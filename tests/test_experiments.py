"""Experiment harness smoke tests on micro-scale networks.

These verify the harness plumbing (variant construction, sweeps, result
shapes, formatters); the benchmarks regenerate the real figures.
"""

import math
from dataclasses import replace

import pytest

from repro.engine.config import SimParams
from repro.experiments.common import (
    CONGESTION_VARIANTS,
    RELIABILITY_VARIANTS,
    congestion_network,
    preset_by_name,
    quicken,
    reliability_network,
)
from tests.conftest import micro_config, sweep_rows


def fast_base():
    return micro_config(
        sim=SimParams(seed=3, warmup_cycles=200, measure_cycles=800,
                      drain_cycles=6000, sample_period=25)
    )


class TestCommon:
    def test_preset_lookup(self):
        assert preset_by_name("tiny").dragonfly.p == 2
        with pytest.raises(ValueError):
            preset_by_name("gigantic")

    def test_quicken_scales_windows(self):
        base = preset_by_name("tiny")
        quick = quicken(base, 0.5)
        assert quick.sim.measure_cycles == base.sim.measure_cycles // 2

    def test_reliability_variants(self):
        base = fast_base()
        for variant, scale in RELIABILITY_VARIANTS.items():
            net = reliability_network(base, variant)
            if scale is None:
                assert net.switches[0].stash_dir is None
            else:
                assert net.switches[0].reliability_on
                cap_full = reliability_network(base, "stash100")
                assert net.switches[0].stash_dir.total_capacity() <= \
                    cap_full.switches[0].stash_dir.total_capacity()

    def test_congestion_variants(self):
        base = fast_base()
        for variant, scale in CONGESTION_VARIANTS.items():
            net = congestion_network(base, variant)
            assert net.switches[0].ecn_on
            assert net.switches[0].congestion_stash_on == (scale is not None)

    def test_seed_override(self):
        net = reliability_network(fast_base(), "baseline", seed=77)
        assert net.config.sim.seed == 77


class TestFig5:
    def test_sweep_shape(self):
        from repro.experiments.fig5 import format_fig5

        rows = sweep_rows(
            "fig5", fast_base(),
            {"loads": (0.2,), "variants": ("baseline", "stash100")},
        )
        assert [point.key for point, _ in rows] == [
            (1, "baseline", 0.2), (1, "stash100", 0.2)
        ]
        for _point, r in rows:
            assert 0 < r.accepted_load <= 1.0
            assert r.avg_latency > 0
        table = format_fig5(rows)
        assert "baseline" in table and "stash100" in table


class TestFig6:
    def test_trace_runtimes(self):
        from repro.experiments.fig6 import format_fig6, run_fig6

        res = run_fig6(
            fast_base(), apps=("MiniFE",), variants=("baseline", "stash100"),
            size_scale=2, iterations=1,
        )
        assert res["MiniFE"]["baseline"] > 0
        out = format_fig6(res)
        assert "MiniFE" in out


class TestFig7:
    def test_transient_series(self):
        from repro.experiments.fig7 import format_fig7, run_fig7

        res = run_fig7(
            fast_base(), variants=("baseline",), include_reference=False,
            victim_rate=0.25,
        )
        r = res["baseline"]
        assert r.time.size > 0
        assert r.mean_latency > 0
        assert not math.isnan(r.p99_latency)
        assert "baseline" in format_fig7(res)


class TestFig8:
    def test_probe_series(self):
        from repro.experiments.fig8 import format_fig8, run_fig8

        res = run_fig8(fast_base(), variant="stash100", victim_rate=0.25)
        assert res.time.size > 0
        assert res.aggressor_load.max() > 0
        assert 0 <= res.peak_utilization <= 1.0
        assert "stash" in format_fig8(res).lower()


class TestFig9:
    def test_burst_sweep(self):
        from repro.experiments.fig9 import format_fig9

        rows = sweep_rows(
            "fig9", fast_base(),
            {"bursts_pkts": (1, 4), "variants": ("baseline",),
             "victim_rate": 0.25},
        )
        assert [point.key for point, _ in rows] == [
            (1, "baseline", 1), (1, "baseline", 4)
        ]
        assert all(r.group("victim").p90 > 0 for _, r in rows)
        assert "baseline" in format_fig9(rows)


class TestTables:
    def test_table1(self):
        from repro.experiments.tables import format_table1, run_table1

        res = run_table1(fast_base())
        assert res["paper_total"] == pytest.approx(0.7225, abs=1e-4)
        assert "72" in format_table1(res)

    def test_table2(self):
        from repro.experiments.tables import format_table2, run_table2

        rows = run_table2(ranks=12, size_scale=2)
        assert len(rows) == 6
        assert all(r["ops"] > 0 for r in rows)
        assert "BIGFFT" in format_table2(rows)


class TestAblations:
    def test_speedup_ablation(self):
        from repro.experiments.ablations import run_speedup_ablation

        rows = run_speedup_ablation(fast_base(), speedups=(1.0, 1.3),
                                    load=0.3)
        assert [s for s, _, _ in rows] == [1.0, 1.3]
        assert all(acc > 0 for _, acc, _ in rows)

    def test_placement_ablation(self):
        from repro.experiments.ablations import run_placement_ablation

        res = run_placement_ablation(fast_base(), load=0.3,
                                     capacity_scale=0.5)
        assert set(res) == {"jsq", "random"}


class TestOccupancy:
    def test_census_rows(self):
        from repro.experiments.occupancy import (
            format_occupancy,
            run_occupancy_census,
        )

        rows = run_occupancy_census(fast_base(), load=0.4)
        classes = [r.link_class for r in rows]
        assert classes == ["endpoint", "local", "global"]
        for r in rows:
            assert 0 <= r.peak_flits <= r.capacity_flits
            assert 0.0 <= r.idle_fraction <= 1.0
        assert "idle" in format_occupancy(rows)

    def test_census_matches_independent_probe(self):
        """Regression guard for the Timeline migration: the census must
        report exactly what a hand-rolled sampler measures on a
        duplicate network run under the same derived seed."""
        from repro.engine.parallel import derive_run_seed
        from repro.experiments.occupancy import run_occupancy_census
        from repro.network import Network

        base, load, seed, period = fast_base(), 0.4, 1, 20
        rows = run_occupancy_census(base, load=load, seed=seed,
                                    sample_period=period)

        cfg = base.with_(sim=replace(
            base.sim, seed=derive_run_seed(seed, f"occupancy:{load!r}")))
        net = Network(cfg)
        net.add_uniform_traffic(rate=load)
        topo = net.topology
        probes: dict[str, list] = {}
        for s in range(topo.num_switches):
            for spec in topo.switch_ports(s):
                if spec.link_class in ("endpoint", "local", "global"):
                    ip = net.switches[s].in_ports[spec.port]
                    op = net.switches[s].out_ports[spec.port]
                    probes.setdefault(spec.link_class, []).append(
                        lambda ip=ip, op=op: ip.damq.total_committed
                        + op.out_damq.total_committed
                    )
        samples: dict[str, list[list[int]]] = {
            cls: [[] for _ in ps] for cls, ps in probes.items()
        }

        def sample(cycle):
            for cls, ps in probes.items():
                for i, probe in enumerate(ps):
                    samples[cls][i].append(probe())

        net.sim.add_sampler(period, sample)
        net.sim.run(cfg.sim.warmup_cycles + cfg.sim.measure_cycles)

        for r in rows:
            per_port = samples[r.link_class]
            peaks = [max(vals) for vals in per_port]
            assert r.ports == len(peaks)
            assert r.peak_flits == max(peaks)
            assert r.mean_peak_flits == pytest.approx(
                sum(peaks) / len(peaks))


class TestFatTreeExperiment:
    def test_variants_run(self):
        from repro.experiments.fattree_exp import format_fattree

        rows = sweep_rows(
            "fattree", fast_base(),
            {"loads": (0.25,), "variants": ("baseline", "stash100")},
        )
        assert len(rows) == 2
        for _point, r in rows:
            assert r.accepted_load == pytest.approx(r.offered_load, rel=0.15)
            assert r.avg_latency > 0
        assert "stash100" in format_fattree(rows)


class TestPacedRetransmission:
    def test_pace_delays_recovery(self):
        from dataclasses import replace

        from repro.engine.config import ReliabilityParams, StashParams
        from repro.network import Network
        from tests.conftest import drain_and_check, micro_config

        def recovery_cycles(pace):
            cfg = micro_config(
                stash=StashParams(enabled=True, frac_local=0.5),
                reliability=ReliabilityParams(
                    enabled=True, error_rate=0.0, retransmit_pace=pace
                ),
            )
            net = Network(cfg)
            net.error_rate = 1.0  # corrupt exactly the first delivery
            net.endpoints[0].post_message(3, 4, 0)
            net.sim.run(30)
            net.error_rate = 0.0
            drain_and_check(net, max_cycles=100_000)
            msg = next(iter(net.messages.values()))
            return msg.complete_cycle

        fast = recovery_cycles(pace=0)
        slow = recovery_cycles(pace=400)
        assert slow >= fast + 300  # the pace visibly delays recovery

    def test_paced_retransmits_still_conserve(self):
        from repro.engine.config import ReliabilityParams, StashParams
        from repro.network import Network
        from tests.conftest import drain_and_check, micro_config

        cfg = micro_config(
            stash=StashParams(enabled=True, frac_local=0.5),
            reliability=ReliabilityParams(
                enabled=True, error_rate=0.1, retransmit_pace=150
            ),
        )
        net = Network(cfg)
        net.add_uniform_traffic(rate=0.2, stop=600)
        net.sim.run(600)
        drain_and_check(net, max_cycles=300_000)


class TestRunnerCli:
    def test_table_experiments_via_cli(self, capsys):
        from repro.experiments.runner import main

        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_unknown_experiment_rejected(self):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_seed_flag_is_the_experiment_seed_of_every_point(
        self, monkeypatch, capsys
    ):
        """`--seed N` must reach the sweep: every point's seed is
        `derive_run_seed(N, label)`, and the points are exactly those of
        a `seeds = [N]` campaign (the flag used to rewrite a config slot
        that every sweep then overrode from its own `seed=1` default)."""
        from repro.campaign import Campaign, expand_campaign
        from repro.engine.parallel import derive_run_seed
        from repro.experiments import runner

        ran = []
        run_points = runner.run_points

        def spy(points, **kwargs):
            ran.extend(points)
            return run_points(points, **kwargs)

        monkeypatch.setattr(runner, "run_points", spy)
        argv = ["fattree", "--engine", "flow", "--quick", "--seed", "7"]
        assert runner.main(argv) == 0
        assert "Fat-tree reliability stashing" in capsys.readouterr().out
        assert [p.derived_seed for p in ran] == [
            derive_run_seed(7, p.label) for p in ran
        ]
        campaign = Campaign(
            name="seed7", sweep="fattree", engine="flow", seeds=(7,),
            quick=True, axes={"loads": [0.3]},
        )
        assert [p.store_key() for p in ran] == [
            p.store_key() for p in expand_campaign(campaign)
        ]

    def test_flow_rejection_names_the_limitation(self, capsys):
        """`--engine flow` on a transient experiment must explain *why*
        (steady-state fluid model, no time-stepped mode) and point at
        the fastpath docs, not just refuse."""
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["fig7", "--engine", "flow"])
        err = capsys.readouterr().err
        assert "transients" in err
        assert "time-stepped" in err
        assert "docs/FASTPATH.md" in err

"""Experiment harness smoke tests on micro-scale networks.

These verify the harness plumbing (variant construction, sweeps, result
shapes, formatters); tests/test_paper_shapes.py (nightly) regenerates
the real figures and asserts the paper's shapes.
"""

import math
from dataclasses import replace

import pytest

from repro.engine.config import SimParams
from repro.experiments.common import (
    CONGESTION_VARIANTS,
    RELIABILITY_VARIANTS,
    preset_by_name,
    quicken,
)
from repro.scenario import build_network, congestion_scenario, reliability_scenario
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
            net = build_network(reliability_scenario(base, variant))
            if scale is None:
                assert net.switches[0].stash_dir is None
            else:
                assert net.switches[0].reliability_on
                cap_full = build_network(reliability_scenario(base, "stash100"))
                assert net.switches[0].stash_dir.total_capacity() <= \
                    cap_full.switches[0].stash_dir.total_capacity()

    def test_congestion_variants(self):
        base = fast_base()
        for variant, scale in CONGESTION_VARIANTS.items():
            net = build_network(congestion_scenario(base, variant))
            assert net.switches[0].ecn_on
            assert net.switches[0].congestion_stash_on == (scale is not None)

    def test_seed_override(self):
        net = build_network(
            reliability_scenario(fast_base(), "baseline").with_seed(77)
        )
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
        from repro.experiments.fig6 import format_fig6

        rows = sweep_rows(
            "fig6", fast_base(),
            {"apps": ("MiniFE",), "variants": ("baseline", "stash100"),
             "size_scale": 2},
        )
        assert [point.key for point, _ in rows] == [
            (1, "baseline", "MiniFE"), (1, "stash100", "MiniFE")
        ]
        for _point, r in rows:
            # the replay ran inside one measurement window: its runtime
            # is the whole simulation (the finish cycle is the last one
            # stepped), and every packet was measured
            assert r.extra("trace_runtime") == r.cycles - 1 > 0
            assert r.packets_measured > 0
        assert "MiniFE" in format_fig6(rows)

    def test_axes_rejected_before_any_replay(self):
        from repro.campaign.spec import expand_sweep

        for axes, match in [
            ({"variants": ["stash100"]}, "must include 'baseline'"),
            ({"apps": ["MiniFE", "HPL"]}, r"unknown \['HPL'\]"),
        ]:
            with pytest.raises(ValueError, match=match):
                expand_sweep("fig6", fast_base(), axes, (1,), "cycle")


class TestFig7:
    def test_transient_series(self):
        from repro.experiments.fig7 import format_fig7

        rows = sweep_rows(
            "fig7", fast_base(),
            {"variants": ("baseline",), "victim_rate": 0.25},
        )
        [(point, r)] = rows
        assert point.label == "fig7:baseline"
        assert len(r.series("victim_time")) == len(
            r.series("victim_avg_latency")) > 0
        assert len(r.series("victim_icdf_latency")) == 200
        victim = r.group("victim")
        assert victim.mean > 0
        assert not math.isnan(victim.p99)
        with pytest.raises(TypeError, match="series"):
            r.extra("victim_time")
        assert "baseline" in format_fig7(rows)

    def test_reference_runs_the_baseline_without_aggressors(self):
        from repro.campaign.spec import expand_sweep

        points = expand_sweep("fig7", fast_base(), {}, (1,), "cycle")
        assert [p.key[1] for p in points] == [
            "baseline", "stash100", "stash50", "reference"
        ]
        base, ref = points[0].spec, points[-1].spec
        assert ref.variant == "baseline"
        assert base.traffic[0].aggressor_start == 200 + int(0.2 * 800)
        assert ref.traffic[0].aggressor_start > 10**8


class TestFig8:
    def test_probe_series(self):
        from repro.experiments.fig8 import format_fig8

        rows = sweep_rows("fig8", fast_base(), {"victim_rate": 0.25})
        [(point, r)] = rows
        assert point.key == (1, "stash100")
        assert len(r.series("stash_time")) > 0
        assert max(r.series("aggressor_load")) > 0
        assert 0 <= max(r.series("stash_utilization")) <= 1.0
        assert "stash" in format_fig8(rows).lower()


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
        from repro.experiments.tables import format_table2, table2_rows

        rows = table2_rows(ranks=12, size_scale=2)
        assert len(rows) == 6
        assert all(r["ops"] > 0 for r in rows)
        assert "BIGFFT" in format_table2(rows)


class TestAblations:
    @pytest.fixture(scope="class")
    def rows(self):
        return sweep_rows(
            "ablation", fast_base(),
            {"speedups": (1.0, 1.3), "load": 0.3, "variant": "stash100"},
        )

    def test_speedup_ablation(self, rows):
        speedup = [(p.key, r) for p, r in rows if p.key[1] == "speedup"]
        assert [key[2] for key, _ in speedup] == [1.0, 1.3]
        assert all(r.accepted_load > 0 for _, r in speedup)

    def test_placement_ablation(self, rows):
        placement = {p.key[2]: p for p, _ in rows if p.key[1] == "placement"}
        assert set(placement) == {"jsq", "random"}
        for policy, point in placement.items():
            assert point.spec.config.stash.placement == policy
            assert point.spec.config.stash.capacity_scale == 0.5

    def test_littles_prediction_uses_the_simulated_variant(self, rows):
        """Regression (A1): the bound's flits-per-endpoint come from the
        network that was simulated.  The parent picked the network with
        ``"stash25" if capacity_scale == 0.25 else "stash50"`` — asked
        for full capacity it simulated stash50 against a scale-1.0
        bound."""
        from repro.analysis.littles_law import stash_per_endpoint_flits
        from repro.experiments.ablations import (
            format_ablation,
            littles_law_check,
        )

        littles = [(p, r) for p, r in rows if p.key[1] == "littles"]
        assert [p.key[2] for p, _ in littles] == [0.2, 0.7]
        for point, _ in littles:
            assert point.spec.variant == "stash100"
            assert point.spec.resolved_config().stash.capacity_scale == 1.0
        check = littles_law_check(littles)
        full = reliability_scenario(fast_base(), "stash100").resolved_config()
        assert check["stash_flits_per_endpoint"] == \
            stash_per_endpoint_flits(full)
        assert f"({check['stash_flits_per_endpoint']:.0f} flits/endpoint" \
            in format_ablation(rows)

    def test_variant_must_stash(self):
        from repro.campaign.spec import expand_sweep

        for variant in ("baseline", "stash33"):
            with pytest.raises(ValueError, match="stashing reliability"):
                expand_sweep("ablation", fast_base(), {"variant": variant},
                             (1,), "cycle")


class TestOccupancy:
    def test_census_rows(self):
        from repro.experiments.occupancy import format_occupancy

        rows = sweep_rows("occupancy", fast_base(), {"loads": (0.4,)})
        [(point, r)] = rows
        assert point.key == (1, "census", 0.4)
        capacity = 96 + 96
        for link_class in ("endpoint", "local", "global"):
            peaks = r.series(f"port_peaks_{link_class}")
            assert len(peaks) == 6
            assert all(0 <= peak <= capacity for peak in peaks)
        out = format_occupancy(rows)
        assert "idle" in out
        # the header names the load that was simulated (the parent
        # printed its default, "load 0.6", whatever ran)
        assert "load 0.4)" in out.splitlines()[0]

    def test_census_matches_independent_probe(self):
        """Regression guard for the Timeline migration: the census must
        report exactly what a hand-rolled sampler measures on a
        duplicate network run under the same derived seed — on the
        polling kernel, where no switch defers a retention release."""
        from repro.engine.parallel import derive_run_seed
        from repro.network import Network

        base, load, seed, period = fast_base(), 0.4, 1, 20
        [(point, result)] = sweep_rows(
            "occupancy", base, {"loads": (load,)}, seed=seed
        )
        assert point.spec.config.sim.sample_period == period
        assert point.spec.config.sim.kernel == "event"

        cfg = base.with_(sim=replace(
            base.sim, seed=derive_run_seed(seed, f"occupancy:{load!r}"),
            kernel="polling"))
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

        for link_class, per_port in samples.items():
            peaks = tuple(float(max(vals)) for vals in per_port)
            assert result.series(f"port_peaks_{link_class}") == peaks


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
        from tests.conftest import (
            completed_messages, drain_and_check, micro_config,
        )

        def recovery_cycles(pace):
            cfg = micro_config(
                stash=StashParams(enabled=True, frac_local=0.5),
                reliability=ReliabilityParams(
                    enabled=True, error_rate=0.0, retransmit_pace=pace
                ),
            )
            net = Network(cfg)
            net.error_rate = 1.0  # corrupt exactly the first delivery
            done = completed_messages(net)
            net.endpoints[0].post_message(3, 4, 0)
            net.sim.run(30)
            net.error_rate = 0.0
            drain_and_check(net, max_cycles=100_000)
            (msg,) = done
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
        that every sweep then overrode from its own `seed=1` default;
        fig7/fig8 then ran on the raw `--seed`)."""
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

        # a probed, cycle-only family takes the same route (expansion
        # only: the tiny-preset run itself is ~10 s; no rows render "")
        del ran[:]
        monkeypatch.setattr(
            runner, "run_points",
            lambda points, **kwargs: ran.extend(points) or [],
        )
        assert runner.main(["fig8", "--quick", "--seed", "7"]) == 0
        [point] = ran
        assert point.label == "fig8:stash100"
        assert point.derived_seed == derive_run_seed(7, "fig8:stash100")
        campaign = Campaign(name="f8", sweep="fig8", seeds=(7,), quick=True)
        assert [point.store_key()] == [
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

    @pytest.mark.parametrize("name", ["table1", "table2", "all"])
    def test_flow_rejected_for_the_analytic_tables(self, name, capsys):
        """The tables build no network, so an engine choice cannot apply
        to them: refused (usage error, nothing run), never ignored."""
        from repro.experiments.runner import main

        with pytest.raises(SystemExit) as exit_info:
            main([name, "--engine", "flow"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        refused = "table2" if name == "table2" else "table1"  # all: the first
        assert f"{refused} is analytic" in captured.err
        assert "--engine flow does not apply" in captured.err
        assert captured.out == ""

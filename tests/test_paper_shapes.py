"""The paper's qualitative shapes, regenerated at tiny-preset scale.

Every test runs one experiment on the 42-node ``tiny`` dragonfly through
the runner's path (``tests/conftest.py::sweep_rows``: ``expand_sweep`` →
``run_points``) at experiment seed 1 and asserts who wins and roughly
where the crossovers fall.  Absolute cycle counts are simulator-scale
specific; EXPERIMENTS.md records the paper-vs-measured comparison.

About half an hour of simulation, so the whole module is ``nightly``:
excluded from tier-1 by ``addopts``, run by CI's scheduled job.
"""

from __future__ import annotations

import pytest

from repro.analysis.campaign import rows_by_variant
from repro.analysis.metrics import normalized_runtimes
from repro.analysis.table1 import dragonfly_link_table
from repro.experiments.ablations import littles_law_check
from repro.experiments.common import preset_by_name, quicken
from repro.experiments.tables import run_table1, table2_rows
from tests.conftest import sweep_rows

pytestmark = pytest.mark.nightly

JOBS = 2  # results are identical for any worker count
LIGHT_APPS = ("AMR", "MiniFE", "MultiGrid", "AMG")
HEAVY_APPS = ("BIGFFT", "FillBoundary")
#: tiny preset at full windows (fig7/fig8 need the complete transient)
#: and with halved windows: the workhorse
FULL = preset_by_name("tiny")
QUICK = quicken(FULL, 0.5)


def results_by_variant(rows):
    return {
        variant: [r for _point, r in group]
        for variant, group in rows_by_variant(rows).items()
    }


def test_table1_underutilization():
    result = run_table1(QUICK)
    # the paper's headline: ~72 % of all port buffering is idle
    assert result["paper_total"] == pytest.approx(0.7225, abs=1e-4)
    assert [r.underutilized for r in result["paper_rows"]] == [0.99, 0.95, 0.0]
    # the simulated configuration shows the same structure: the shorter
    # the link class, the more of the symmetric port buffer is idle.
    # (The tiny preset deliberately oversizes buffers relative to its
    # compressed global RTT, so its inter-group row is >0; the paper
    # preset reproduces the published 0 %.)
    sim = result["sim_rows"]
    assert sim[0].underutilized > sim[1].underutilized > sim[2].underutilized
    paper = preset_by_name("paper")
    paper_sim = dragonfly_link_table(paper.dragonfly, paper.switch)
    assert paper_sim[2].underutilized == pytest.approx(0.0, abs=0.05)
    assert paper_sim[0].underutilized > 0.9


def test_table2_trace_inventory():
    by_name = {r["name"]: r for r in table2_rows(42, 4)}
    assert set(by_name) == {*LIGHT_APPS, *HEAVY_APPS}
    # bandwidth-bound traces move more data than the light ones (the
    # property Fig. 6's contrast rests on)
    heavy = min(by_name[app]["send_flits"] for app in HEAVY_APPS)
    light = max(by_name[app]["send_flits"] for app in ("MultiGrid", "MiniFE"))
    assert heavy > light


def test_fig5_latency_and_throughput():
    """Stash 100 %/50 % track the baseline; 25 % saturates early (at
    roughly the Little's-law bound, ~60 % of the baseline's saturation)."""
    results = results_by_variant(sweep_rows(
        "fig5", QUICK, {"loads": (0.2, 0.5, 0.8)}, jobs=JOBS,
    ))
    accepted = {v: [r.accepted_load for r in rs] for v, rs in results.items()}
    # (b) below saturation everyone delivers the offered load
    for variant, series in results.items():
        assert series[0].accepted_load == pytest.approx(
            series[0].offered_load, rel=0.1), variant
    # full- and half-capacity stashing track the baseline (paper:
    # "nearly identical performance"; we allow 15 % at the extreme point)
    base_hi = accepted["baseline"][2]
    assert accepted["stash100"][2] >= 0.85 * base_hi
    assert accepted["stash50"][2] >= 0.85 * base_hi
    # mid-load: indistinguishable
    assert accepted["stash100"][1] == pytest.approx(
        accepted["baseline"][1], rel=0.06)
    # 25 % capacity saturates early (paper: 78 % vs 90 %)
    assert accepted["stash25"][2] < 0.75 * base_hi
    # (a) latency ordering at high load: restricted capacity queues at
    # the source and latency blows up first
    assert results["stash25"][2].avg_latency > results["baseline"][2].avg_latency


def normalized(rows):
    runtimes: dict = {}
    for point, r in rows:
        _seed, variant, app = point.key
        runtimes.setdefault(app, {})[variant] = r.extra("trace_runtime")
    return normalized_runtimes(runtimes)


def test_fig6_light_apps_unaffected():
    norm = normalized(sweep_rows(
        "fig6", QUICK,
        {"apps": LIGHT_APPS, "variants": ("baseline", "stash100", "stash25")},
        jobs=JOBS,
    ))
    for app in LIGHT_APPS:
        # paper: "nearly identical performance to the baseline,
        # including the network with only 25% of available capacity"
        assert norm[app]["stash100"] == pytest.approx(1.0, abs=0.1), norm
        assert norm[app]["stash25"] == pytest.approx(1.0, abs=0.15), norm


def test_fig6_bandwidth_apps_degrade_only_when_restricted():
    norm = normalized(sweep_rows(
        "fig6", QUICK,
        {"apps": HEAVY_APPS, "variants": ("baseline", "stash100", "stash25"),
         "size_scale": 6},
        jobs=JOBS,
    ))
    for app in HEAVY_APPS:
        # full capacity costs at most a few percent (paper: <= 2 %)
        assert norm[app]["stash100"] <= 1.12, norm
        # restricted capacity hurts the bandwidth-bound traces more than
        # full capacity does
        assert norm[app]["stash25"] >= norm[app]["stash100"] - 0.02, norm


def test_fig7_transient_response():
    """The ECN baseline's victim suffers during the transient (long ICDF
    tail, max latencies far above the no-aggressor reference); stashing
    absorbs it, keeping the tail close to the reference."""
    rows = {p.key[1]: r for p, r in sweep_rows("fig7", FULL, {}, jobs=JOBS)}
    base, stash, ref = (
        rows[name].group("victim")
        for name in ("baseline", "stash100", "reference")
    )
    # the aggressor hurts the baseline's tail relative to the reference
    assert base.p99 > 1.1 * ref.p99
    # stashing absorbs the transient: tail far closer to the reference
    assert stash.p99 < base.p99
    assert stash.max < base.max
    # paper: "At full capacity, the maximum latency is only about 3x the
    # best case"; allow up to ~6x at this scale
    assert stash.max < 6 * ref.max
    # 7a: the baseline's worst time-bin is worse than stashing's
    assert max(rows["baseline"].series("victim_avg_latency")) > max(
        rows["stash100"].series("victim_avg_latency"))


def test_fig8_buffer_usage_timeline():
    """At aggressor onset the offered load shoots up and stash
    utilization follows; utilization stays high through the ECN
    transient and drains to near zero once ECN converges and the
    aggressor stops."""
    [(point, r)] = sweep_rows("fig8", FULL, {})
    t = r.series("stash_time")
    util = r.series("stash_utilization")
    load = r.series("aggressor_load")
    assert len(t) > 10
    total = FULL.sim.warmup_cycles + FULL.sim.measure_cycles
    onset = point.spec.traffic[0].aggressor_start
    assert onset == FULL.sim.warmup_cycles + int(
        0.1 * FULL.sim.measure_cycles)
    peak = max(util)
    # before the aggressor: stash essentially idle
    assert max((u for x, u in zip(t, util) if x < onset), default=0.0) < 0.15
    # during the event + backlog drain: the stash absorbs congestion
    assert peak > 0.2
    # once the aggressor's backlog clears: drained back toward idle
    tail = [u for x, u in zip(t, util) if x >= 0.95 * total]
    assert not tail or min(tail) < 0.5 * peak
    # the aggressor's offered load rises at onset and is throttled later
    before = max((v for x, v in zip(t, load) if x < onset), default=0.01)
    assert max(
        v for x, v in zip(t, load) if onset <= x < onset + 1000
    ) > 2 * max(before, 0.01)


@pytest.fixture(scope="module")
def fig9_p90():
    """variant -> [(burst pkts, victim p90 latency)]"""
    rows = sweep_rows(
        "fig9", QUICK,
        {"bursts_pkts": (4, 16, 64), "variants": ("baseline", "stash100"),
         "victim_rate": 0.4},
        jobs=JOBS,
    )
    return {
        variant: [(point.key[2], r.group("victim").p90) for point, r in group]
        for variant, group in rows_by_variant(rows).items()
    }


def test_fig9_burst_sweep(fig9_p90):
    """Stashing outperforms the baseline across burst sizes; the
    baseline's tail worsens as burstiness grows."""
    base, stash = fig9_p90["baseline"], fig9_p90["stash100"]
    # stashing outperforms (or matches) the baseline wherever the bursts
    # are large enough to create real transients (>= 16 packets/message
    # at this scale; below that the stash network's smaller normal
    # buffers dominate — a documented scale artifact, see EXPERIMENTS.md);
    # the same comparison at 64 packets is the xfail below
    for (b1, p90_base), (b2, p90_stash) in zip(base, stash):
        assert b1 == b2
        if 16 <= b1 < 64:
            assert p90_stash <= p90_base * 1.05, (b1, p90_base, p90_stash)
    # burstiness hurts the baseline's tail
    assert base[-1][1] > base[0][1]


@pytest.mark.xfail(strict=True, reason=(
    "finding (EXPERIMENTS.md, Figure 9): at 64 packets stash100's p90 is "
    "414 vs the baseline's 369, +12 % against the 5 % allowance"
))
def test_fig9_stashing_matches_baseline_at_64_packets(fig9_p90):
    base, stash = fig9_p90["baseline"][-1], fig9_p90["stash100"][-1]
    assert stash[1] <= base[1] * 1.05, (base, stash)


@pytest.fixture(scope="module")
def ablation_rows():
    return rows_by_variant(sweep_rows(
        "ablation", QUICK, {"speedups": (1.0, 1.3), "load": 0.6},
        jobs=JOBS,
    ))


def test_ab1_internal_speedup(ablation_rows):
    accepted = {p.key[2]: r.accepted_load for p, r in ablation_rows["speedup"]}
    # the 1.3x overclock must not be *worse* than 1.0x; the paper adds
    # it to cover the stashing paths' extra internal bandwidth demand
    assert accepted[1.3] >= accepted[1.0] * 0.97


def test_ab2_stash_placement(ablation_rows):
    accepted = {
        p.key[2]: r.accepted_load for p, r in ablation_rows["placement"]
    }
    # JSQ must not lose to random placement on delivered throughput
    assert accepted["jsq"] >= accepted["random"] * 0.95


def test_a1_littles_law_saturation(ablation_rows):
    res = littles_law_check(ablation_rows["littles"])
    # the paper's check: predicted 75 % vs simulated ~78 % — Little's law
    # "closely resembling the simulation result".  Same here: the bound
    # must track the measured early saturation within ~40 %, and the
    # restriction must actually bind (saturation well below baseline).
    predicted = res["predicted_saturation"]
    simulated = res["simulated_saturation"]
    assert simulated < 0.6
    assert 0.7 <= simulated / max(predicted, 1e-9) <= 1.4


@pytest.fixture(scope="module")
def census():
    """(per-port buffer capacity, link class -> peak occupancy)"""
    [(point, r)] = sweep_rows("occupancy", QUICK, {})
    switch = point.spec.config.switch
    return switch.input_buffer_flits + switch.output_buffer_flits, {
        cls: max(r.series(f"port_peaks_{cls}"))
        for cls in ("endpoint", "local", "global")
    }


def test_occupancy_census_confirms_table1_dynamically(census):
    capacity, peak = census
    # the structural claim behind Table I: endpoint ports leave more of
    # their symmetric buffers idle than transit ports, even at peak
    assert peak["endpoint"] < peak["local"]
    # and nothing ever overflows its buffer
    assert max(peak.values()) <= capacity


@pytest.mark.xfail(strict=True, reason=(
    "finding (EXPERIMENTS.md, X1): endpoint ports peak at 121 of 384 "
    "flits, 68 % idle against the asserted > 70 %"
))
def test_occupancy_endpoint_ports_idle_over_70_percent(census):
    capacity, peak = census
    assert 1 - peak["endpoint"] / capacity > 0.7


def test_fattree_reliability_tracks_baseline():
    results = results_by_variant(sweep_rows(
        "fattree", QUICK,
        {"loads": (0.3, 0.6), "variants": ("baseline", "stash100", "stash25")},
        jobs=JOBS,
    ))
    # full-capacity stashing is performance neutral on the fat-tree too
    for base, full in zip(results["baseline"], results["stash100"]):
        assert full.accepted_load >= base.accepted_load * 0.95
    # the capacity restriction is what bites, same as the dragonfly
    assert (results["stash25"][-1].accepted_load
            <= results["stash100"][-1].accepted_load + 0.01)

"""Flow-level fastpath: determinism, sanity, and schema conformance.

The fastpath is a pure function of the :class:`ScenarioSpec` — no RNG,
no wall-clock, sorted iteration everywhere — so its results must be
*exactly* equal run-to-run and for any ``--jobs`` fan-out, not merely
statistically close.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.engine import fastpath
from repro.engine.base import EngineResult, EngineUnsupported, get_engine
from repro.engine.config import small_preset, tiny_preset
from repro.scenario import (
    FatTreeTopologySpec,
    ScenarioSpec,
    SingleSwitchTopologySpec,
    UniformAggressorTraffic,
    UniformTraffic,
    congestion_scenario,
    reliability_scenario,
)
from tests.conftest import micro_config


def _flow(spec):
    return get_engine("flow").run(spec)


def test_flow_engine_is_deterministic():
    spec = ScenarioSpec(
        config=micro_config(), traffic=(UniformTraffic(rate=0.6),)
    )
    a, b = _flow(spec), _flow(spec)
    assert a == b


def test_flow_low_load_accepts_offered():
    spec = ScenarioSpec(
        config=micro_config(), traffic=(UniformTraffic(rate=0.2),)
    )
    r = _flow(spec)
    assert r.engine == "flow"
    assert r.accepted_load == pytest.approx(r.offered_load, rel=1e-6)
    assert r.avg_latency > 0
    assert r.p99_latency >= r.avg_latency


def test_flow_throughput_monotone_and_saturating():
    cfg = micro_config()
    accepted = [
        _flow(ScenarioSpec(config=cfg, traffic=(UniformTraffic(rate=load),)))
        .accepted_load
        for load in (0.2, 0.5, 0.8, 1.0)
    ]
    # monotone up to fixed-point convergence noise
    for lo, hi in zip(accepted, accepted[1:]):
        assert hi >= lo - 1e-6
    # saturation: accepted never exceeds offered
    for load, acc in zip((0.2, 0.5, 0.8, 1.0), accepted):
        assert acc <= load + 1e-6


def test_flow_stash25_plateau_is_flat():
    """Past the stash25 knee the pool bound, not the offered load, sets
    throughput.  An allocator that stops early makes the plateau jitter
    by ~3e-4 here, which a 1e-4 tolerance on four loads did not see."""
    cfg = tiny_preset()
    accepted = [
        _flow(reliability_scenario(
            cfg, "stash25", traffic=(UniformTraffic(rate=0.56 + 0.04 * step),)
        )).accepted_load
        for step in range(10)  # 0.56 ... 0.92
    ]
    for lo, hi in zip(accepted, accepted[1:]):
        assert hi >= lo - 1e-6
    assert max(accepted) - min(accepted) < 1e-6


def test_flow_stash_capacity_binds():
    cfg = micro_config()
    full = _flow(
        reliability_scenario(
            cfg, "stash100", traffic=(UniformTraffic(rate=0.8),)
        )
    )
    quarter = _flow(
        reliability_scenario(
            cfg, "stash25", traffic=(UniformTraffic(rate=0.8),)
        )
    )
    assert quarter.accepted_load < full.accepted_load


def test_flow_supports_all_three_topologies():
    cfg = micro_config()
    for topo in (
        None,
        SingleSwitchTopologySpec(num_nodes=4),
        FatTreeTopologySpec(),
    ):
        kwargs = {"topology": topo} if topo is not None else {}
        r = _flow(
            ScenarioSpec(
                config=cfg, traffic=(UniformTraffic(rate=0.3),), **kwargs
            )
        )
        assert isinstance(r, EngineResult)
        assert r.accepted_load > 0


@pytest.mark.xfail(
    strict=True,
    reason="pinned, not fixed (docs/FASTPATH.md, ROADMAP 3(d)): a "
    "destination's injection link is charged for ACKs only if its source "
    "switch was visited first",
)
def test_flow_ack_charging_is_symmetric_across_source_switches(monkeypatch):
    """Every source switch's flows should load as many destination
    injection links with ACKs as any other's; on tiny uniform traffic
    switch 0's charge 2 of 42 destinations and switch 20's all 42."""
    tables = []
    solve = fastpath.FlowEngine._solve

    def spy(self, cfg, table):
        tables.append(table)
        return solve(self, cfg, table)

    monkeypatch.setattr(fastpath.FlowEngine, "_solve", spy)
    _flow(ScenarioSpec(
        config=tiny_preset(), traffic=(UniformTraffic(rate=0.5),)
    ))
    (t,) = tables
    flow_inj = t.inc.entry_link[t.inc.flow_ptr[:-1]]
    inj_links = np.unique(flow_inj)  # in source-switch order
    onto_inj = np.isin(t.ack_link, inj_links)
    ack_flow = np.repeat(np.arange(len(t.acks)), t.acks)
    charged = np.bincount(flow_inj[ack_flow[onto_inj]])[inj_links]
    assert charged[0] == charged[-1]


def test_flow_rejects_unknown_traffic():
    class WeirdTraffic:
        kind = "weird"

    spec = ScenarioSpec(config=micro_config())
    object.__setattr__(spec, "traffic", (WeirdTraffic(),))
    with pytest.raises(EngineUnsupported):
        _flow(spec)


def test_flow_refuses_trace_replays_and_probes_by_name():
    from repro.scenario import TraceTraffic

    trace = ScenarioSpec(config=micro_config(),
                         traffic=(TraceTraffic("MiniFE"),))
    with pytest.raises(EngineUnsupported, match="TraceTraffic"):
        _flow(trace)
    probed = ScenarioSpec(config=micro_config(),
                          traffic=(UniformTraffic(rate=0.3),),
                          probes=("port_occupancy",))
    with pytest.raises(EngineUnsupported, match="port_occupancy"):
        _flow(probed)


def test_flow_fig5_jobs_byte_identical():
    """A fig5 sweep through the fastpath must produce identical results
    for serial and 4-way-parallel execution (the determinism contract
    CI enforces end-to-end on stdout)."""
    from tests.conftest import sweep_rows

    cfg = micro_config()
    axes = {"loads": (0.2, 0.8), "variants": ("baseline", "stash25")}
    serial = sweep_rows("fig5", cfg, axes, seed=3, engine="flow", jobs=1)
    fanned = sweep_rows("fig5", cfg, axes, seed=3, engine="flow", jobs=4)
    assert serial == fanned


def test_flow_result_schema_matches_cycle():
    """Both engines emit the same stats schema for the same spec —
    groups, extras discoverability, and the scalar surface the
    experiment scripts consume."""
    spec = ScenarioSpec(
        config=micro_config(), traffic=(UniformTraffic(rate=0.3),)
    )
    flow = _flow(spec)
    cycle = get_engine("cycle").run(spec)
    for field in (
        "offered_load",
        "accepted_load",
        "avg_latency",
        "p90_latency",
        "p99_latency",
        "max_latency",
        "packets_measured",
        "cycles",
    ):
        assert hasattr(flow, field) and hasattr(cycle, field)
    assert flow.engine == "flow" and cycle.engine == "cycle"


# ----------------------------------------------------------------------
# memory: the flow table's dtypes and one solve's footprint
# (docs/FASTPATH.md, "Memory")
# ----------------------------------------------------------------------


def _spy_tables(monkeypatch):
    """Record every flow table the engine solves."""
    tables = []
    solve = fastpath.FlowEngine._solve

    def spy(self, cfg, table):
        tables.append(table)
        return solve(self, cfg, table)

    monkeypatch.setattr(fastpath.FlowEngine, "_solve", spy)
    return tables


def test_gather_columns_are_int32_and_bincount_reads_only_intp(monkeypatch):
    """The per-flow index columns and the link-to-flow map are int32.
    Every array ``np.bincount`` reads is intp, since bincount copies any
    other integer input to a full intp array first, and so is every
    entry-sized index the solver gathers through each step, since numpy
    gathers through an int32 index ~3x slower.  Stash-bound and ECN runs
    cover both solver branches."""
    tables = _spy_tables(monkeypatch)
    read = set()
    bincount = np.bincount

    def spy(x, *args, **kwargs):
        read.add(np.asarray(x).dtype)
        return bincount(x, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", spy)
    cfg = tiny_preset()
    _flow(reliability_scenario(
        cfg, "stash25", traffic=(UniformTraffic(rate=0.8),)
    ))
    _flow(congestion_scenario(
        cfg, "stash100", traffic=(UniformAggressorTraffic(burst_flits=64),)
    ))
    assert read == {np.dtype(np.intp)}
    assert len(tables) == 2
    for t in tables:
        for column in (t.inc.link_flow, t.klass, t.group, t.stash_link):
            assert column.dtype == np.int32
        for column in (t.inc.flow_ptr, t.inc.entry_flow, t.inc.entry_link,
                       t.inc.link_ptr, t.acks, t.ack_link, t.member_inj,
                       t.member_eject):
            assert column.dtype == np.intp


def test_flow_solve_peak_bytes_per_incidence_entry(monkeypatch):
    """``tracemalloc`` peak of one run per incidence entry, on a
    234-node dragonfly (100,854 entries) large enough that fixed costs
    vanish.  With six entry-sized temporaries alive in the freeze
    update and every index column intp it read ~127 B; with the
    per-entry allocation multiplied in place and the gathered-from
    columns int32, ~99 B; with no freeze update after the last round,
    flows expanded to entries by ``np.repeat`` and the entry weights
    alive only through ``_maxmin``, ~76 B."""
    tables = _spy_tables(monkeypatch)
    base = small_preset()
    cfg = base.with_(
        dragonfly=replace(base.dragonfly, p=3, a=6, h=2),
        switch=replace(base.switch, num_ports=16, rows=4, cols=4),
    )
    spec = reliability_scenario(
        cfg, "stash25", traffic=(UniformTraffic(rate=0.7),)
    )
    tracemalloc.start()
    try:
        _flow(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (t,) = tables
    entries = len(t.inc.entry_link)
    assert entries > 100_000
    assert peak / entries < 88.0, f"{peak / entries:.1f} B per entry"

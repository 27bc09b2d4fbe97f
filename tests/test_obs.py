"""Observability layer tests: instruments, the trace cap, capture plumbing,
determinism, and the zero-overhead-when-off contract.

The two load-bearing guarantees:

* enabling observability never changes simulation results (obs-on and
  obs-off runs produce identical ``EngineResult`` values), and
* a merged ``--trace`` file is byte-identical for any ``--jobs`` value.
"""

from __future__ import annotations

import doctest
import time
from dataclasses import replace

import pytest

from repro.engine.config import ObsParams, SimParams
from repro.engine.parallel import (
    RunSpec,
    derive_run_seed,
    drain_run_log,
    run_specs,
)
from repro.network import Network
from repro.obs import (
    EVENT_TYPES,
    SCHEMA_FIELDS,
    EventTrace,
    Timeline,
    harvest,
    merge_snapshots,
    take_captures,
)
from tests.conftest import micro_config


def obs_config(trace: bool = True, **sim_overrides):
    cfg = micro_config(
        sim=SimParams(seed=5, warmup_cycles=200, measure_cycles=600,
                      drain_cycles=8000, sample_period=25)
    )
    if sim_overrides:
        cfg = cfg.with_(sim=replace(cfg.sim, **sim_overrides))
    return cfg.with_(obs=ObsParams(enabled=True, trace=trace))


def _obs_point(cfg, load, seed):
    """Module-level sweep point (picklable) used by the jobs-N tests."""
    cfg = cfg.with_(sim=replace(cfg.sim, seed=seed))
    net = Network(cfg)
    net.add_uniform_traffic(rate=load)
    net.run_standard()
    return load


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------


class TestCounters:
    def test_snapshot_and_merge(self):
        snap = {"x.y.n": 2}
        merged = merge_snapshots(
            [{**snap, "x.y.peak_q": 7}, {**snap, "x.y.peak_q": 5}]
        )
        assert merged == {"x.y.n": 4, "x.y.peak_q": 7}  # sum; peaks max


class TestEventTrace:
    def test_record_cap_counts_dropped(self, monkeypatch):
        monkeypatch.setattr("repro.obs.events.MAX_RECORDS", 2)
        t = EventTrace()
        for c in range(5):
            t.emit(c, "flit.inject", -1, 0, 0, c, 1)
        assert [r[0] for r in t.records] == [0, 1] and t.dropped == 3


class TestTimeline:
    def test_tracks_series_and_peaks(self):
        from repro.engine.simulator import Simulator

        sim = Simulator()
        box = {"v": 0}

        class Bump:
            def step(self, cycle):
                box["v"] = cycle

        sim.add(Bump())
        tl = Timeline(5)
        tl.track("v", lambda: box["v"])
        tl.install(sim)
        sim.run(20)
        assert tl.cycles == [0, 5, 10, 15]
        assert tl.series("v") == [0, 5, 10, 15]
        assert tl.peak("v") == 15

    def test_duplicate_name_rejected(self):
        tl = Timeline(5)
        tl.track("v", lambda: 0)
        with pytest.raises(ValueError):
            tl.track("v", lambda: 1)


def test_obs_doctests_pass():
    import repro.analysis.obsview
    import repro.obs.events
    import repro.obs.observer
    import repro.obs.timeline

    for mod in (repro.obs.events, repro.obs.observer, repro.obs.timeline,
                repro.analysis.obsview):
        result = doctest.testmod(mod)
        assert result.attempted > 0, f"{mod.__name__} lost its doctests"
        assert result.failed == 0, f"{mod.__name__} doctest failures"


# ---------------------------------------------------------------------------
# zero-overhead-when-off and no-result-perturbation contracts
# ---------------------------------------------------------------------------


class TestZeroOverheadContract:
    def test_obs_off_components_hold_none(self):
        net = Network(micro_config())
        assert net.obs is None and net._trace is None
        assert all(sw.obs is None for sw in net.switches)
        assert all(ep.obs is None for ep in net.endpoints)

    def test_obs_off_never_calls_emit(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("emit called with observability off")

        monkeypatch.setattr(EventTrace, "emit", boom)
        net = Network(micro_config())
        net.add_uniform_traffic(rate=0.4)
        net.run_standard()  # would raise if any guard were wrong
        assert net.sim.cycle > 0

    def test_metrics_only_mode_attaches_no_trace(self):
        net = Network(obs_config(trace=False))
        assert net.obs is not None and net._trace is None
        assert all(sw.obs is None for sw in net.switches)
        net.add_uniform_traffic(rate=0.4)
        net.run_standard()
        caps = take_captures()
        assert len(caps) == 1
        assert caps[0].records == () and caps[0].counters
        assert caps[0].counters["engine.sim.cycles"] == net.sim.cycle

    def test_capture_twice_returns_equal_counters(self):
        # regression: capture() used to add() into a persistent
        # registry, doubling every counter on the second call
        net = Network(obs_config(trace=False))
        net.add_uniform_traffic(rate=0.4)
        net.run_standard()
        first = net.obs.capture()
        assert first.counters["endpoint.nic.flits_injected"] > 0
        assert net.obs.capture() == first
        assert first.counters == harvest(net)
        take_captures()  # leave no live observers behind

    def test_obs_on_results_identical_to_off(self):
        def run(cfg):
            net = Network(cfg)
            net.add_uniform_traffic(rate=0.5)
            return net.run_standard()

        off = run(micro_config(sim=obs_config().sim))
        on = run(obs_config(trace=True))
        take_captures()  # leave no live observers behind
        assert on == off

    @pytest.mark.oracle_off  # times the cycle loop: no audit, no shadow check
    def test_counter_overhead_is_bounded(self):
        """Loose wall-clock guard: metrics-only mode may not slow the
        cycle loop measurably (counters are harvested at capture time,
        the trace guards are single attribute checks)."""

        def timed(cfg):
            best = float("inf")
            for _ in range(3):
                net = Network(cfg)
                net.add_uniform_traffic(rate=0.5)
                t0 = time.perf_counter()
                net.run_standard()
                best = min(best, time.perf_counter() - t0)
            take_captures()
            return best

        off = timed(micro_config(sim=obs_config().sim))
        on = timed(obs_config(trace=False))
        assert on <= off * 2.5 + 0.05


# ---------------------------------------------------------------------------
# capture plumbing and jobs-N determinism
# ---------------------------------------------------------------------------


def _sweep_trace(jobs: int) -> str:
    from repro.analysis.obsview import trace_lines

    base = obs_config(trace=True)
    specs = [
        RunSpec(key=load, fn=_obs_point, args=(base, load),
                seed=derive_run_seed(9, f"obs:{load!r}"))
        for load in (0.2, 0.4, 0.6)
    ]
    outcomes = run_specs(specs, jobs=jobs)
    assert all(len(o.obs) == 1 for o in outcomes)
    return "\n".join(trace_lines(drain_run_log())) + "\n"


class TestTraceDeterminism:
    def test_trace_bytes_identical_jobs_1_vs_4(self):
        serial = _sweep_trace(1)
        pooled = _sweep_trace(4)
        assert serial == pooled
        header = serial.splitlines()[0]
        assert '"schema":"repro.obs.trace"' in header
        assert '"runs":3' in header

    def test_fig7_trace_bytes_identical_jobs_1_vs_2(self):
        """Every fig7 network is built inside a sweep point, so its
        events reach the run log (they never did while fig7 built its
        networks in the runner's own process) in point order."""
        from repro.analysis.obsview import trace_lines
        from tests.conftest import sweep_rows

        def traced(jobs: int) -> list[str]:
            sweep_rows("fig7", obs_config(trace=True), {}, jobs=jobs)
            return list(trace_lines(drain_run_log()))

        serial = traced(1)
        assert '"runs":4' in serial[0]
        assert serial == traced(2)

    def test_run_log_orders_by_spec_not_completion(self):
        _sweep_trace(4)  # drained internally; log must now be empty
        assert drain_run_log() == []

    def test_written_trace_loads_back(self, tmp_path):
        from repro.analysis.obsview import load_trace, write_trace

        base = obs_config(trace=True)
        specs = [
            RunSpec(key=0.4, fn=_obs_point, args=(base, 0.4),
                    seed=derive_run_seed(9, "obs:trace-file"))
        ]
        run_specs(specs, jobs=1)
        caps = drain_run_log()
        jsonl = tmp_path / "t.jsonl"
        n_jsonl = write_trace(str(jsonl), caps)
        assert n_jsonl > 0
        header, events = load_trace(str(jsonl))
        assert header["runs"] == 1 and len(events) == n_jsonl
        assert list(events[0]) == list(SCHEMA_FIELDS)

    def test_load_trace_refuses_another_schema_version(self, tmp_path):
        from repro.analysis.obsview import load_trace

        path = tmp_path / "future.jsonl"
        path.write_text(
            '{"schema":"repro.obs.trace","version":2,"fields":[],'
            '"runs":0,"dropped":0}\n'
        )
        with pytest.raises(ValueError, match="version 2.*version 1"):
            load_trace(str(path))

    def test_event_values_follow_schema(self):
        cfg = obs_config(trace=True)
        net = Network(cfg)
        net.add_uniform_traffic(rate=0.5)
        net.run_standard()
        caps = take_captures()
        events = {r[1] for r in caps[0].records}
        assert "flit.inject" in events and "packet.deliver" in events
        assert events <= set(EVENT_TYPES)
        for cycle, event, sw, port, vc, pid, value in caps[0].records:
            if event == "flit.inject":
                assert sw == -1 and value > 0  # port carries the node id
            if event == "packet.deliver":
                assert sw == -1 and value >= 0  # value is the latency

"""The benchmark's metric tables: names, units, directions, bounds.

One table serves ``bench compare``, the printed report, and
``BENCHMARK.json`` (``bench/tests`` asserts the file mirrors it).

Bounds.  ISSUE 11 proposed 10 % on ``wall_s``; this host cannot resolve
that unpaired — its CPU speed changes by up to 1.4x for seconds to tens
of seconds at a time (a fixed 2 M-iteration loop reads anything from 46
to 100 ms within one minute, with no steal time), so two quiet-looking
runs of one commit differ by more than 10 %.  Every host-time metric
therefore carries the widest bound the benchmark contract allows, and a
gain is claimed only with the paired recipe in ``bench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "DRIVER_END_TO_END",
    "END_TO_END",
    "EndToEnd",
    "PER_LAYER",
    "PerLayer",
    "end_to_end_for",
]


@dataclass(frozen=True)
class EndToEnd:
    """An end-to-end metric and the slack ``bench compare`` allows it.

    ``bound`` is the share of the parent's median by which the metric
    may get worse; ``slack`` is an absolute allowance in the metric's
    own unit, for readings near zero (the larger of the two applies).
    ``workloads`` restricts the metric to the named workloads; ``None``
    means every workload reports it.
    """

    name: str
    unit: str
    better: str
    bound: float
    slack: float = 0.0
    workloads: tuple[str, ...] | None = None


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str = "lower"


_CYCLE_PAIR = ("cycle_rel_mid", "cycle_cong_burst")

END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("wall_s", "s", "lower", 0.25),
    EndToEnd("setup_s", "s", "lower", 0.25, slack=0.05),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10),
    EndToEnd("warm_rerun_ms", "ms", "lower", 0.25, workloads=("campaign_grid",)),
    # simulated, exact-repeat for a fixed seed: percentage points
    EndToEnd("flow_tput_err_pct", "%", "lower", 0.0, slack=0.5, workloads=_CYCLE_PAIR),
    EndToEnd("flow_lat_err_pct", "%", "lower", 0.0, slack=0.5, workloads=_CYCLE_PAIR),
)

#: the metrics every workload reports: what BENCHMARK.json lists as
#: ``end_to_end``.  The workload-specific ones reach the driver as
#: per-layer metrics and are gated by ``bench compare``.
DRIVER_END_TO_END: tuple[EndToEnd, ...] = tuple(
    m for m in END_TO_END if m.workloads is None
)


def end_to_end_for(workload: str) -> tuple[EndToEnd, ...]:
    """The end-to-end metrics ``workload`` reports."""
    return tuple(
        m for m in END_TO_END if m.workloads is None or workload in m.workloads
    )


def _timed(prefix: str, *stems: str) -> list[PerLayer]:
    """``<prefix>.<stem>_s`` and ``<prefix>.<stem>_calls`` per stem."""
    out = []
    for stem in stems:
        out.append(PerLayer(f"{prefix}.{stem}_s", "s"))
        out.append(PerLayer(f"{prefix}.{stem}_calls", "count"))
    return out


PER_LAYER: tuple[PerLayer, ...] = (
    # engine.simulator
    PerLayer("simulator.run_s", "s"),
    PerLayer("simulator.self_s", "s"),
    PerLayer("simulator.phase_warmup_s", "s"),
    PerLayer("simulator.phase_measure_s", "s"),
    PerLayer("simulator.phase_drain_s", "s"),
    PerLayer("simulator.sim_cycles", "count"),
    PerLayer("simulator.step_skip_ratio", "ratio", "higher"),
    # switch.tiled_switch / switch.stashing_switch
    *_timed("switch", "step"),
    PerLayer("switch.self_s", "s"),
    *_timed("switch", "nac"),
    # switch.port, switch.tile
    *_timed("port", "ingress", "rowbus", "mux", "egress", "credits", "stash_drain"),
    *_timed("tile", "crossbar"),
    # endpoints.endpoint
    *_timed("endpoint", "step"),
    PerLayer("endpoint.nac_s", "s"),
    # engine.base / network / scenario.spec
    PerLayer("engine.self_s", "s"),
    PerLayer("network.result_s", "s"),
    PerLayer("scenario.build_network_s", "s"),
    PerLayer("scenario.resolve_s", "s"),
    PerLayer("scenario.spec_hash_us", "us"),
    # model counts (simulated; exact-repeat for a fixed seed)
    PerLayer("model.flit_hops", "count"),
    PerLayer("model.packets_delivered", "count", "higher"),
    PerLayer("model.credit_stalls", "count"),
    PerLayer("model.stash_stores", "count"),
    PerLayer("model.stash_stalls", "count"),
    PerLayer("model.stash_peak_committed", "count"),
    PerLayer("model.packets_marked", "count"),
    PerLayer("model.ecn_window_cuts", "count"),
    PerLayer("model.damq_peak_in", "count"),
    PerLayer("host_us_per_flit_hop", "us"),
    PerLayer("host_us_per_sim_cycle", "us"),
    # engine.fastpath / topology.dragonfly
    PerLayer("fastpath.run_s", "s"),
    PerLayer("fastpath.self_s", "s"),
    PerLayer("topology.build_s", "s"),
    PerLayer("fastpath.nodes", "count"),
    PerLayer("fastpath.ecn_steps", "count"),
    PerLayer("fastpath.bottleneck_utilization", "ratio"),
    PerLayer("fastpath.run_ms_p50", "ms"),
    PerLayer("fastpath.run_ms_p95", "ms"),
    # campaign.spec / campaign.store / campaign.service / engine.parallel
    PerLayer("campaign.parse_s", "s"),
    PerLayer("campaign.expand_s", "s"),
    PerLayer("campaign.points", "count"),
    PerLayer("store.put_us_p50", "us"),
    PerLayer("store.put_us_p95", "us"),
    PerLayer("store.load_us_p50", "us"),
    PerLayer("store.bytes_per_entry", "B"),
    PerLayer("service.overhead_s", "s"),
    PerLayer("service.warm_hit_ratio", "ratio", "higher"),
    PerLayer("parallel.dispatch_us_jobs1", "us"),
    PerLayer("parallel.dispatch_us_jobs2", "us"),
    # harness
    PerLayer("trace.traced_wall_s", "s"),
    PerLayer("trace.overhead_pct", "%"),
    PerLayer("trace.unattributed_s", "s"),
    PerLayer("trace.attributed_pct", "%", "higher"),
    # the workload-specific end-to-end metrics, for the driver's view
    *(PerLayer(m.name, m.unit, m.better) for m in END_TO_END if m.workloads),
)

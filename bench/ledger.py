"""The per-layer ledger: a finished trace turned into named metrics.

Every value is ``None`` when its span target could not be wrapped
(:attr:`bench.trace.Tracer.missing`), so a later PR that deletes or
merges a traced method loses that row, not the benchmark.
"""

from __future__ import annotations

import statistics
from typing import Any, Iterable

from repro.engine.base import EngineResult

from bench.trace import Span, Tracer

__all__ = [
    "campaign_ledger",
    "cycle_ledger",
    "flow_error_pct",
    "flow_ledger",
    "model_counts",
    "percentile",
    "top_self_times",
    "trace_ledger",
]

Ledger = dict[str, "float | int | None"]


def percentile(values: list[float], pct: float) -> float | None:
    """Nearest-rank percentile; ``None`` of nothing (which is what an
    unwrapped target's durations are)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil
    return ordered[int(rank) - 1]


def _total(*parts: float | int | None) -> Any:
    """Sum, or ``None`` as soon as one part is unknown."""
    if any(part is None for part in parts):
        return None
    return sum(parts)  # type: ignore[arg-type]


def trace_ledger(root: Span, untraced_seconds: float) -> Ledger:
    """What the tracing itself cost and how much of the wall it named."""
    unattributed = root.self_seconds
    return {
        "trace.traced_wall_s": root.seconds,
        "trace.overhead_pct": 100.0 * (root.seconds / untraced_seconds - 1.0),
        "trace.unattributed_s": unattributed,
        "trace.attributed_pct": 100.0 * (1.0 - unattributed / root.seconds),
    }


def top_self_times(tracer: Tracer, count: int = 3) -> list[list]:
    """The ``count`` largest self-time entries: [span name, seconds]."""
    ranked = sorted(tracer.self_times().items(), key=lambda item: -item[1])
    return [[name, seconds] for name, seconds in ranked[:count]]


def model_counts(networks: Iterable[Any]) -> Ledger:
    """Simulated counts, read from the public attributes
    ``repro.obs.observer`` harvests.  Exact-repeat for a fixed seed."""
    out = dict.fromkeys((
        "model.flit_hops", "model.packets_delivered", "model.credit_stalls",
        "model.stash_stores", "model.stash_stalls", "model.packets_marked",
        "model.ecn_window_cuts",
    ), 0)
    peak_stash = peak_damq = 0
    for net in networks:
        for ep in net.endpoints:
            out["model.packets_delivered"] += ep.packets_delivered
            out["model.ecn_window_cuts"] += ep.ecn.window_cuts
        for sw in net.switches:
            for ip in sw.in_ports:
                out["model.flit_hops"] += ip.flits_received
                out["model.packets_marked"] += ip.packets_marked
                out["model.stash_stalls"] += ip.stall_no_stash
                peak_damq = max(peak_damq, ip.damq.peak_committed)
            for op in sw.out_ports:
                out["model.credit_stalls"] += op.credit_stalls
            if sw.stash_dir is not None:
                for part in sw.stash_dir.partitions:
                    out["model.stash_stores"] += part.stored_total
                    peak_stash = max(peak_stash, part.peak_committed)
    out["model.stash_peak_committed"] = peak_stash
    out["model.damq_peak_in"] = peak_damq
    return out  # type: ignore[return-value]


def cycle_ledger(
    tracer: Tracer, root: Span, networks: list[Any], untraced_seconds: float
) -> Ledger:
    """engine.simulator, switch.*, endpoints.endpoint, network, scenario
    and the model counts of a cycle-engine workload."""
    sec, calls, own = tracer.seconds, tracer.calls, tracer.self_seconds
    out: Ledger = {
        "simulator.run_s": _total(sec("simulator.run"), sec("simulator.run_until")),
        "simulator.self_s": _total(own("simulator.run"), own("simulator.run_until")),
        "switch.step_s": sec("switch.step"),
        "switch.step_calls": calls("switch.step"),
        "switch.self_s": own("switch.step"),
        # StashingSwitch.next_active_cycle calls the base method, itself
        # wrapped: its self time plus the base method's whole time
        "switch.nac_s": _total(sec("switch.nac"), own("stash_switch.nac") or 0.0),
        "switch.nac_calls": calls("switch.nac"),
        "port.credits_s": _total(
            sec("port.apply_credits"), sec("port.release_retained")),
        "port.credits_calls": _total(
            calls("port.apply_credits"), calls("port.release_retained")),
        "tile.crossbar_s": sec("tile.crossbar"),
        "tile.crossbar_calls": calls("tile.crossbar"),
        "endpoint.step_s": sec("endpoint.step"),
        "endpoint.step_calls": calls("endpoint.step"),
        "endpoint.nac_s": sec("endpoint.nac"),
        "engine.self_s": own("point"),
        "network.result_s": sec("network.result"),
        "scenario.build_network_s": sec("scenario.build_network"),
        "scenario.resolve_s": sec("scenario.resolve"),
        "topology.build_s": sec("topology.build"),
    }
    for stage in ("ingress", "rowbus", "mux", "egress", "stash_drain"):
        out[f"port.{stage}_s"] = sec(f"port.{stage}")
        out[f"port.{stage}_calls"] = calls(f"port.{stage}")

    # run_standard's three kernel calls per point, in order
    phases = {"warmup": 0.0, "measure": 0.0, "drain": 0.0}
    for point in tracer.children(root, "point"):
        runs = tracer.children(point, "simulator.run")
        for phase, span in zip(("warmup", "measure"), runs):
            phases[phase] += span.seconds
        for span in tracer.children(point, "simulator.run_until"):
            phases["drain"] += span.seconds
    known = "simulator.run" not in tracer.missing
    for phase, seconds in phases.items():
        out[f"simulator.phase_{phase}_s"] = seconds if known else None

    cycles = sum(net.sim.cycle for net in networks)
    slots = sum(
        net.sim.cycle * (len(net.switches) + len(net.endpoints))
        for net in networks
    )
    steps = _total(calls("switch.step"), calls("endpoint.step"))
    out["simulator.sim_cycles"] = cycles
    out["simulator.step_skip_ratio"] = (
        1.0 - steps / slots if steps is not None and slots else None
    )

    counts = model_counts(networks)
    out.update(counts)
    hops = counts["model.flit_hops"]
    out["host_us_per_flit_hop"] = 1e6 * untraced_seconds / hops if hops else None
    out["host_us_per_sim_cycle"] = (
        1e6 * untraced_seconds / cycles if cycles else None
    )
    return out


def flow_ledger(
    tracer: Tracer, results: list[EngineResult | None], nodes: int
) -> Ledger:
    """engine.fastpath and topology.dragonfly."""
    runs_ms = [1e3 * s for s in tracer.durations("fastpath.run")]
    done = [r for r in results if r is not None]
    return {
        "fastpath.run_s": tracer.seconds("fastpath.run"),
        "fastpath.self_s": tracer.self_seconds("fastpath.run"),
        "fastpath.run_ms_p50": percentile(runs_ms, 50),
        "fastpath.run_ms_p95": percentile(runs_ms, 95),
        "topology.build_s": tracer.seconds("topology.build"),
        "scenario.resolve_s": tracer.seconds("scenario.resolve"),
        "engine.self_s": tracer.self_seconds("point"),
        "fastpath.nodes": nodes,
        "fastpath.ecn_steps": max((r.extra("ecn_steps") for r in done), default=0.0),
        "fastpath.bottleneck_utilization": max(
            (r.extra("bottleneck_utilization") for r in done), default=0.0),
    }


def campaign_ledger(
    cold: Tracer, warm: Tracer, cold_seconds: float, compute_seconds: float,
    points: int, entry_bytes: list[int],
) -> Ledger:
    """campaign.spec, campaign.store and campaign.service.  ``cold`` is
    the trace of the run into an empty store, ``warm`` of the reruns
    against the filled one (where loads find and verify an entry)."""
    puts_us = [1e6 * s for s in cold.durations("store.put")]
    loads_us = [1e6 * s for s in warm.durations("store.load")]
    return {
        "campaign.expand_s": cold.seconds("campaign.expand"),
        "campaign.points": points,
        "store.put_us_p50": percentile(puts_us, 50),
        "store.put_us_p95": percentile(puts_us, 95),
        "store.load_us_p50": percentile(loads_us, 50),
        "store.bytes_per_entry": (
            statistics.fmean(entry_bytes) if entry_bytes else None),
        # the service's own report of Σ point compute, not a traced span
        "service.overhead_s": cold_seconds - compute_seconds,
    }


def flow_error_pct(
    cycle: list[EngineResult | None], flow: list[EngineResult | None], field: str
) -> float | None:
    """max over points of |flow - cycle| / cycle, in percent."""
    errors = []
    for c, f in zip(cycle, flow):
        if c is None or f is None:
            return None
        reference = getattr(c, field)
        if not reference:
            return None
        errors.append(100.0 * abs(getattr(f, field) - reference) / reference)
    return max(errors, default=None)

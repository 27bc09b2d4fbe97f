"""The two-speed engine interface.

An :class:`Engine` consumes a :class:`repro.scenario.ScenarioSpec` and
produces an :class:`EngineResult` — the shared stats schema both speeds
emit.  Two implementations exist:

* :class:`CycleEngine` (``"cycle"``) runs the cycle-accurate
  :class:`repro.network.Network`, whose ``result()`` is already an
  :class:`EngineResult`; it is the reference and the only engine that
  models the switch microarchitecture.
* :class:`repro.engine.fastpath.FlowEngine` (``"flow"``) solves a
  fluid max-min-fair bandwidth allocation over the same topology graph
  — orders of magnitude faster, validated against the cycle engine by
  :mod:`repro.analysis.crosscheck` (tolerances in docs/FASTPATH.md).

Select by name with :func:`get_engine`; the experiment runner threads
``--engine cycle|flow`` straight through here.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Protocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.stats import LatencyStats
    from repro.scenario.spec import ScenarioSpec

__all__ = [
    "CycleEngine",
    "ENGINE_NAMES",
    "Engine",
    "EngineResult",
    "EngineUnsupported",
    "GroupStats",
    "get_engine",
]


class EngineUnsupported(RuntimeError):
    """The selected engine cannot run this experiment/scenario."""


@dataclass(frozen=True)
class GroupStats:
    """Latency summary for one tracked traffic group (e.g. ``victim``)."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    max: float

    @classmethod
    def from_latency(cls, stats: "LatencyStats") -> "GroupStats":
        """Summarise a latency collector into the shared schema."""
        return cls(
            count=stats.count,
            mean=stats.mean,
            p50=stats.percentile(50),
            p90=stats.percentile(90),
            p99=stats.percentile(99),
            max=stats.max,
        )


@dataclass(frozen=True)
class EngineResult:
    """The stats schema shared by every engine.

    Loads are flits/cycle/node over the measurement window; latencies
    are cycles.  ``groups`` holds per-traffic-group latency summaries
    keyed by the group names the scenario's traffic tracks (``victim``
    / ``aggressor``); ``extras`` carries engine-specific probes: scalars
    (the cycle engine reports ``stash_stalls``, the flow engine
    ``bottleneck_utilization`` and ``ecn_steps``) and, for a scenario
    naming ``probes``, the recorders' series as float tuples
    (:mod:`repro.scenario.probes`).
    """

    engine: str
    offered_load: float
    accepted_load: float
    avg_latency: float
    p90_latency: float
    p99_latency: float
    max_latency: float
    packets_measured: int
    cycles: int
    groups: tuple[tuple[str, GroupStats], ...] = ()
    extras: tuple[tuple[str, float | tuple[float, ...]], ...] = ()

    def group(self, name: str) -> GroupStats:
        """Stats for a named traffic group (e.g. ``"victim"``);
        raises :class:`KeyError` when the scenario defined no such
        group."""
        for group_name, stats in self.groups:
            if group_name == name:
                return stats
        raise KeyError(name)

    def extra(self, name: str, default: float = 0.0) -> float:
        """An engine-specific scalar (e.g. the cycle engine's
        ``stash_stalls``), or ``default`` when this engine doesn't
        emit it."""
        for key, value in self.extras:
            if key == name:
                if isinstance(value, tuple):
                    raise TypeError(f"extra {name!r} is a series")
                return value
        return default

    def series(self, name: str) -> tuple[float, ...]:
        """A recorded series (e.g. the ``victim_latency`` probe's
        ``victim_time``); raises :class:`KeyError` when the scenario
        named no probe recording it."""
        for key, value in self.extras:
            if key == name:
                if not isinstance(value, tuple):
                    raise TypeError(f"extra {name!r} is a scalar")
                return value
        raise KeyError(name)


class Engine(Protocol):
    """Anything that can run a :class:`ScenarioSpec` to an
    :class:`EngineResult`."""

    name: str
    #: False when ``run`` never reads ``spec.seed`` (seed siblings share a run)
    reads_seed: bool

    def run(self, spec: "ScenarioSpec") -> EngineResult:
        """Execute the scenario and return its aggregated stats."""
        ...


class CycleEngine:
    """Adapter: the cycle-accurate simulator behind the Engine protocol.

    Builds the network via :func:`repro.scenario.spec.build_network`
    (the byte-identity-preserving materialisation), installs the
    recorders the spec's ``probes`` name, and drives the standard
    warmup / measure / (optional drain) phases — or, for a
    :class:`~repro.scenario.spec.TraceTraffic` scenario, replays the
    trace to completion inside one measurement window and reports its
    execution time as the ``trace_runtime`` extra.
    """

    name = "cycle"
    reads_seed = True

    def run(self, spec: "ScenarioSpec") -> EngineResult:
        """Simulate the scenario flit-by-flit and aggregate its stats."""
        from repro.scenario.probes import PROBES
        from repro.scenario.spec import TraceTraffic, build_network

        net = build_network(spec)
        readers = [PROBES[name](net) for name in spec.probes]
        extras: tuple = ()
        if spec.traffic and isinstance(spec.traffic[0], TraceTraffic):
            from repro.trace import build_app, run_trace

            trace = spec.traffic[0]
            program = build_app(
                trace.app, net.topology.num_nodes,
                size_scale=trace.size_scale, iterations=trace.iterations,
            )
            net.open_measurement()
            runtime = run_trace(net, program, trace.max_cycles)
            net.close_measurement()
            result = net.result()
            extras = (("trace_runtime", float(runtime)),)
        else:
            result = net.run_standard(drain=spec.drain)
        for read in readers:
            extras += read()
        # the finished network is one cyclic graph (components <-> net <->
        # sim): free it here, before the next point builds its own
        del net, readers
        gc.collect()
        if not extras:
            return result
        return replace(result, extras=result.extras + extras)


#: the one list of engine names (``--engine`` choices, a campaign
#: file's ``engine``)
ENGINE_NAMES = ("cycle", "flow")


def get_engine(name: str) -> Engine:
    """Resolve an engine by its runner name (``cycle`` or ``flow``)."""
    if name == "cycle":
        return CycleEngine()
    if name == "flow":
        from repro.engine.fastpath import FlowEngine

        return FlowEngine()
    raise ValueError(f"unknown engine {name!r}; choose from {ENGINE_NAMES}")

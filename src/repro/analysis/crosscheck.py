"""Cross-validation of the flow-level fastpath against the cycle kernel.

Runs the same :class:`~repro.scenario.ScenarioSpec` through both engines
on a family of small presets and reports the throughput/latency deltas
plus the wall-clock speedup.  This is the accuracy contract behind
``--engine flow``: the fluid model is trusted only where this harness
shows it tracking the cycle-accurate kernel (see docs/FASTPATH.md for
the known divergences outside that envelope).

Both engines consume the *identical* spec object — the harness asserts
the spec hashes match before comparing results, so a divergence is an
engine-model difference, never a scenario-construction one.

Usage::

    python -m repro.analysis.crosscheck            # full presets
    python -m repro.analysis.crosscheck --quick    # CI smoke (short runs)
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, replace

from repro.engine.base import EngineResult, get_engine
from repro.engine.config import (
    DragonflyParams,
    NetworkConfig,
    SimParams,
    StashParams,
    SwitchParams,
)
from repro.experiments.common import preset_by_name
from repro.scenario import (
    FatTreeTopologySpec,
    ScenarioSpec,
    SingleSwitchTopologySpec,
    UniformTraffic,
    reliability_scenario,
)

__all__ = [
    "CrossCheckRow",
    "crosscheck_presets",
    "format_crosscheck",
    "main",
    "run_crosscheck",
]

#: throughput agreement required of the fluid model on these presets
THROUGHPUT_TOLERANCE = 0.10


@dataclass(frozen=True)
class CrossCheckRow:
    preset: str
    spec_hash: str
    cycle_throughput: float
    flow_throughput: float
    cycle_latency: float
    flow_latency: float
    cycle_seconds: float
    flow_seconds: float

    @property
    def throughput_delta(self) -> float:
        """Signed relative error of the flow engine's accepted load."""
        if self.cycle_throughput <= 0:
            return 0.0
        return (
            self.flow_throughput - self.cycle_throughput
        ) / self.cycle_throughput

    @property
    def speedup(self) -> float:
        if self.flow_seconds <= 0:
            return float("inf")
        return self.cycle_seconds / self.flow_seconds

    @property
    def within_tolerance(self) -> bool:
        return abs(self.throughput_delta) <= THROUGHPUT_TOLERANCE


def _short(cfg: NetworkConfig, quick: bool) -> NetworkConfig:
    """CI-smoke windows.  The warmup must still cover the slowest
    queue-fill transient (the stash-bound point takes ~1.5k cycles to
    reach steady state) or the cycle *reference* is biased low and the
    comparison measures the transient, not the model."""
    if not quick:
        return cfg
    return cfg.with_(
        sim=replace(
            cfg.sim,
            warmup_cycles=1500,
            measure_cycles=4000,
            drain_cycles=12000,
        )
    )


def _micro_dragonfly() -> NetworkConfig:
    """A 6-node dragonfly (p=1, a=2, h=1) small enough that the cycle
    engine finishes in seconds — the stash-bound validation point.  At
    this scale the fluid queueing model tracks the cycle engine's
    latency closely, so the congestion-aware stash RTT (and therefore
    the Little's-law saturation level) is meaningful; see
    docs/FASTPATH.md for the tiny-preset caveat."""
    return NetworkConfig(
        switch=SwitchParams(
            num_ports=4,
            rows=2,
            cols=2,
            num_vcs=6,
            input_buffer_flits=96,
            output_buffer_flits=96,
            row_buffer_packets=4,
            col_buffer_packets=4,
            max_packet_flits=4,
            speedup=1.3,
            sideband_latency=2,
        ),
        dragonfly=DragonflyParams(
            p=1,
            a=2,
            h=1,
            latency_endpoint=1,
            latency_local=2,
            latency_global=8,
        ),
        stash=StashParams(frac_local=0.5),
        sim=SimParams(
            seed=7,
            warmup_cycles=2000,
            measure_cycles=8000,
            drain_cycles=30000,
            sample_period=25,
        ),
    )


def crosscheck_presets(
    quick: bool = False,
) -> list[tuple[str, ScenarioSpec]]:
    """The validation family: one preset per topology the fastpath
    models, at moderate load (the regime the fluid model is built for),
    plus one stash-bound point exercising the Little's-law pool."""
    tiny = _short(preset_by_name("tiny"), quick)
    micro = _short(_micro_dragonfly(), quick)
    load = 0.5
    presets = [
        (
            "single-switch",
            ScenarioSpec(
                config=tiny,
                topology=SingleSwitchTopologySpec(num_nodes=6),
                traffic=(UniformTraffic(rate=load),),
            ),
        ),
        (
            "dragonfly",
            ScenarioSpec(config=tiny, traffic=(UniformTraffic(rate=load),)),
        ),
        (
            "micro-stash25",
            reliability_scenario(
                micro, "stash25", traffic=(UniformTraffic(rate=0.8),)
            ),
        ),
        (
            "fat-tree",
            ScenarioSpec(
                config=tiny,
                topology=FatTreeTopologySpec(),
                traffic=(UniformTraffic(rate=0.3),),
            ),
        ),
    ]
    return presets


def _run_timed(engine_name: str, spec: ScenarioSpec) -> tuple[EngineResult, float]:
    engine = get_engine(engine_name)
    t0 = time.perf_counter()
    result = engine.run(spec)
    return result, time.perf_counter() - t0


def run_crosscheck(
    presets: list[tuple[str, ScenarioSpec]] | None = None,
    quick: bool = False,
    progress=None,
) -> list[CrossCheckRow]:
    if presets is None:
        presets = crosscheck_presets(quick)
    rows = []
    for name, spec in presets:
        cycle_spec, flow_spec = spec, spec
        assert cycle_spec.spec_hash() == flow_spec.spec_hash()
        cycle, cycle_s = _run_timed("cycle", cycle_spec)
        flow, flow_s = _run_timed("flow", flow_spec)
        row = CrossCheckRow(
            preset=name,
            spec_hash=spec.spec_hash()[:12],
            cycle_throughput=cycle.accepted_load,
            flow_throughput=flow.accepted_load,
            cycle_latency=cycle.avg_latency,
            flow_latency=flow.avg_latency,
            cycle_seconds=cycle_s,
            flow_seconds=flow_s,
        )
        rows.append(row)
        if progress is not None:
            progress(row)
    return rows


def format_crosscheck(rows: list[CrossCheckRow]) -> str:
    lines = [
        "Engine cross-validation (cycle vs flow, identical specs)",
        "",
        f"{'preset':<18} {'hash':<13} {'cyc thr':>8} {'flow thr':>9} "
        f"{'delta':>7} {'cyc lat':>8} {'flow lat':>9} {'speedup':>8}",
    ]
    for r in rows:
        flag = "" if r.within_tolerance else "  <-- OUT OF TOLERANCE"
        lines.append(
            f"{r.preset:<18} {r.spec_hash:<13} {r.cycle_throughput:>8.3f} "
            f"{r.flow_throughput:>9.3f} {r.throughput_delta:>+7.1%} "
            f"{r.cycle_latency:>8.1f} {r.flow_latency:>9.1f} "
            f"{r.speedup:>7.0f}x{flag}"
        )
    worst = max((abs(r.throughput_delta) for r in rows), default=0.0)
    lines.append("")
    lines.append(
        f"worst throughput delta {worst:.1%} "
        f"(tolerance {THROUGHPUT_TOLERANCE:.0%})"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.crosscheck",
        description="Validate the flow-level fastpath against the "
        "cycle-accurate kernel on small presets.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shorter cycle-engine windows (CI smoke)",
    )
    args = parser.parse_args(argv)

    def progress(row: CrossCheckRow) -> None:
        print(
            f"[crosscheck] {row.preset}: cycle {row.cycle_seconds:.1f}s, "
            f"flow {row.flow_seconds:.2f}s",
            file=sys.stderr,
        )

    rows = run_crosscheck(quick=args.quick, progress=progress)
    print(format_crosscheck(rows))
    return 0 if all(r.within_tolerance for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())

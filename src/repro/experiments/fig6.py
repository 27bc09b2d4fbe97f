"""Figure 6: MPI application-trace execution time, normalized to the
baseline network without stashing/retransmission.

Expected shape (paper Section VI-A): the four light traces (AMR, MiniFE,
MultiGrid, AMG) are ~1.0 at every stash capacity; the bandwidth-bound
traces (BIGFFT, FillBoundary) degrade only at 25 % capacity; stashing
occasionally *beats* baseline on congestion-prone traces because the
stash bound makes endpoints self-pacing.

Cycle engine only: a trace replay is per-message dependency tracking,
which the fluid fastpath has no notion of.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.analysis.campaign import Rows
from repro.analysis.metrics import normalized_runtimes
from repro.engine.config import NetworkConfig
from repro.experiments.common import (
    RELIABILITY_VARIANTS,
    SweepEntry,
    check_axes,
)
from repro.scenario import TraceTraffic, reliability_scenario
from repro.trace.apps import APP_REGISTRY

__all__ = ["fig6_entries", "format_fig6"]


def fig6_entries(
    base: NetworkConfig, axes: Mapping[str, Any]
) -> list[SweepEntry]:
    """One trace replay per (app, variant), app-major (``sweep =
    "fig6"`` in a campaign file; docs/CAMPAIGNS.md).

    Accepted axes: ``apps``, ``variants`` (must include ``baseline``,
    the normalisation reference), ``size_scale``, ``iterations``.
    """
    check_axes(
        "fig6", axes, ("apps", "variants", "size_scale", "iterations"),
        scalars=("size_scale", "iterations"),
    )
    apps = axes.get("apps", tuple(APP_REGISTRY))
    unknown = [app for app in apps if app not in APP_REGISTRY]
    if unknown:
        raise ValueError(
            f"fig6 apps must be among {sorted(APP_REGISTRY)}; unknown {unknown}"
        )
    variants = axes.get("variants", tuple(RELIABILITY_VARIANTS))
    if "baseline" not in variants:
        raise ValueError(
            "fig6 variants must include 'baseline': runtimes are "
            "normalized to it"
        )
    size_scale = int(axes.get("size_scale", 4))
    iterations = int(axes.get("iterations", 1))
    return [
        SweepEntry(
            key=(variant, app),
            label=f"fig6:{app}:{variant}",
            spec=reliability_scenario(
                base,
                variant,
                traffic=(TraceTraffic(app, size_scale, iterations),),
            ),
        )
        for app in apps
        for variant in variants
    ]


def format_fig6(rows: Rows) -> str:
    runtimes: dict[str, dict[str, float]] = {}
    for point, r in rows:
        _seed, variant, app = point.key
        runtimes.setdefault(app, {})[variant] = r.extra("trace_runtime")
    norm = normalized_runtimes(runtimes)
    variants = list(next(iter(runtimes.values())))
    header = f"{'app':<13}" + "".join(f"{v:>10}" for v in variants)
    lines = [
        "Figure 6 — normalized application-trace execution time",
        "",
        header,
    ]
    for app, by_variant in norm.items():
        lines.append(
            f"{app:<13}" + "".join(f"{by_variant[v]:>10.3f}" for v in variants)
        )
    return "\n".join(lines)

"""Figure 5: performance impact of stashing for end-to-end reliability
under uniform-random traffic.

5a: average network latency vs offered load; 5b: offered vs accepted
throughput — for the baseline and stashing networks at 100 % / 50 % /
25 % capacity.  Expected shape (paper Section VI-A): stash 100 % and
50 % track the baseline; 25 % saturates early at roughly the Little's-law
bound.

Runs on either engine (``engine="cycle"`` or ``"flow"``); the flow
fastpath reproduces the throughput curves within the tolerances in
docs/FASTPATH.md at a small fraction of the cycle engine's cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.config import NetworkConfig
from repro.experiments.common import (
    RELIABILITY_VARIANTS,
    SweepEntry,
    collect_by_variant,
    preset_by_name,
    run_sweep,
)
from repro.scenario import UniformTraffic, reliability_scenario

__all__ = [
    "Fig5Point",
    "campaign_entries",
    "fig5_entries",
    "format_fig5",
    "run_fig5",
]

DEFAULT_LOADS = (0.1, 0.3, 0.5, 0.7, 0.8, 0.9)


@dataclass(frozen=True)
class Fig5Point:
    offered: float
    accepted: float
    avg_latency: float
    p99_latency: float


def fig5_entries(
    base: NetworkConfig,
    loads: tuple[float, ...] = DEFAULT_LOADS,
    variants: tuple[str, ...] = tuple(RELIABILITY_VARIANTS),
    msg_flits: int | None = None,
) -> list[SweepEntry]:
    """One scenario per (variant, load) sweep point."""
    return [
        SweepEntry(
            key=(variant, load),
            label=f"fig5:{variant}:{load!r}",
            spec=reliability_scenario(
                base,
                variant,
                traffic=(UniformTraffic(rate=load, msg_flits=msg_flits),),
            ),
        )
        for variant in variants
        for load in loads
    ]


def campaign_entries(base: NetworkConfig, axes: dict) -> list[SweepEntry]:
    """Campaign-file binding (``sweep = "fig5"``; docs/CAMPAIGNS.md).

    Accepted ``[axes]`` keys: ``variants``, ``loads``, ``msg_flits``.
    Loads are coerced to float so a campaign file's ``1`` and the
    interactive runner's ``1.0`` produce identical labels (and
    therefore identical derived seeds).
    """
    known = {"variants", "loads", "msg_flits"}
    unknown = sorted(set(axes) - known)
    if unknown:
        raise ValueError(
            f"fig5 campaigns accept axes {sorted(known)}; unknown {unknown}"
        )
    return fig5_entries(
        base,
        loads=tuple(float(x) for x in axes.get("loads", DEFAULT_LOADS)),
        variants=tuple(axes.get("variants", tuple(RELIABILITY_VARIANTS))),
        msg_flits=axes.get("msg_flits"),
    )


def run_fig5(
    base: NetworkConfig | None = None,
    loads: tuple[float, ...] = DEFAULT_LOADS,
    variants: tuple[str, ...] = tuple(RELIABILITY_VARIANTS),
    msg_flits: int | None = None,
    seed: int = 1,
    jobs: int = 1,
    engine: str = "cycle",
    progress=None,
) -> dict[str, list[Fig5Point]]:
    if base is None:
        base = preset_by_name("tiny")
    outcomes = run_sweep(
        fig5_entries(base, loads, variants, msg_flits),
        seed=seed, engine=engine, jobs=jobs, progress=progress,
    )
    return collect_by_variant(
        outcomes,
        variants,
        value=lambda r: Fig5Point(
            offered=r.offered_load,
            accepted=r.accepted_load,
            avg_latency=r.avg_latency,
            p99_latency=r.p99_latency,
        ),
    )


def format_fig5(results: dict[str, list[Fig5Point]]) -> str:
    from repro.analysis.ascii_chart import multi_series_chart

    lines = [
        "Figure 5 — reliability stashing under uniform-random traffic",
        "",
        "(a) latency vs offered load        (b) offered vs accepted",
        f"{'variant':<10} {'offered':>8} {'accepted':>9} {'avg lat':>8} {'p99':>8}",
    ]
    for variant, points in results.items():
        for p in points:
            lines.append(
                f"{variant:<10} {p.offered:>8.3f} {p.accepted:>9.3f} "
                f"{p.avg_latency:>8.1f} {p.p99_latency:>8.1f}"
            )
        lines.append("")
    lines.append("(b) offered vs accepted throughput:")
    lines.append(
        multi_series_chart(
            {
                variant: (
                    [p.offered for p in points],
                    [p.accepted for p in points],
                )
                for variant, points in results.items()
            }
        )
    )
    return "\n".join(lines)

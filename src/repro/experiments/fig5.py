"""Figure 5: performance impact of stashing for end-to-end reliability
under uniform-random traffic.

5a: average network latency vs offered load; 5b: offered vs accepted
throughput — for the baseline and stashing networks at 100 % / 50 % /
25 % capacity.  Expected shape (paper Section VI-A): stash 100 % and
50 % track the baseline; 25 % saturates early at roughly the Little's-law
bound.

Runs on either engine (``cycle`` or ``flow``); the flow fastpath
reproduces the throughput curves within the tolerances in
docs/FASTPATH.md at a small fraction of the cycle engine's cost.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.analysis.campaign import Rows, rows_by_variant
from repro.engine.config import NetworkConfig
from repro.experiments.common import (
    RELIABILITY_VARIANTS,
    SweepEntry,
    check_axes,
)
from repro.scenario import UniformTraffic, reliability_scenario

__all__ = ["fig5_entries", "format_fig5"]

DEFAULT_LOADS = (0.1, 0.3, 0.5, 0.7, 0.8, 0.9)


def fig5_entries(
    base: NetworkConfig, axes: Mapping[str, Any]
) -> list[SweepEntry]:
    """One scenario per (variant, load) sweep point (``sweep = "fig5"``
    in a campaign file; docs/CAMPAIGNS.md).

    Accepted axes: ``variants``, ``loads``, ``msg_flits``.  Loads are
    coerced to float so a campaign file's ``1`` and a caller's ``1.0``
    produce identical labels (and therefore identical derived seeds).
    """
    check_axes(
        "fig5", axes, ("variants", "loads", "msg_flits"), scalars=("msg_flits",)
    )
    msg_flits = axes.get("msg_flits")
    loads = [float(x) for x in axes.get("loads", DEFAULT_LOADS)]
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
        for variant in axes.get("variants", RELIABILITY_VARIANTS)
        for load in loads
    ]


def format_fig5(rows: Rows) -> str:
    from repro.analysis.ascii_chart import multi_series_chart

    by_variant = rows_by_variant(rows)
    lines = [
        "Figure 5 — reliability stashing under uniform-random traffic",
        "",
        "(a) latency vs offered load        (b) offered vs accepted",
        f"{'variant':<10} {'offered':>8} {'accepted':>9} {'avg lat':>8} {'p99':>8}",
    ]
    for variant, group in by_variant.items():
        for _point, r in group:
            lines.append(
                f"{variant:<10} {r.offered_load:>8.3f} {r.accepted_load:>9.3f} "
                f"{r.avg_latency:>8.1f} {r.p99_latency:>8.1f}"
            )
        lines.append("")
    lines.append("(b) offered vs accepted throughput:")
    lines.append(
        multi_series_chart(
            {
                variant: (
                    [r.offered_load for _point, r in group],
                    [r.accepted_load for _point, r in group],
                )
                for variant, group in by_variant.items()
            }
        )
    )
    return "\n".join(lines)

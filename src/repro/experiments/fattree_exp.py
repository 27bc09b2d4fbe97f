"""Fat-tree reliability experiment (paper Section IV-A: "similar designs
are feasible for other high-radix, asymmetric topologies such as
multi-level fat-trees").

Runs the Fig. 5-style comparison — baseline vs reliability-stashing at
full and quarter capacity — on a two-level leaf/spine fat-tree whose
leaf switches stash in their endpoint-port buffers (uplinks keep all
their buffering, like the dragonfly's global ports).

Runs on either engine; the flow fastpath models the tree's ECMP spine
choice as an even fluid split.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.analysis.campaign import Rows, rows_by_variant
from repro.engine.config import NetworkConfig
from repro.experiments.common import SweepEntry, check_axes
from repro.scenario import (
    FatTreeTopologySpec,
    UniformTraffic,
    reliability_scenario,
)

__all__ = ["fattree_entries", "format_fattree"]

VARIANTS = {"baseline": None, "stash100": 1.0, "stash25": 0.25}


def fattree_entries(
    base: NetworkConfig, axes: Mapping[str, Any]
) -> list[SweepEntry]:
    """One scenario per (variant, load) on the default leaf/spine tree
    (``sweep = "fattree"`` in a campaign file; docs/CAMPAIGNS.md).

    Accepted axes: ``variants``, ``loads`` (coerced to float; this
    sweep's variant set is ``baseline``/``stash100``/``stash25``).
    """
    check_axes("fattree", axes, ("variants", "loads"))
    loads = [float(x) for x in axes.get("loads", (0.3, 0.7))]
    return [
        SweepEntry(
            key=(variant, load),
            label=f"fattree:{variant}:{load!r}",
            spec=reliability_scenario(
                base,
                variant,
                traffic=(UniformTraffic(rate=load),),
                topology=FatTreeTopologySpec(),
            ),
        )
        for variant in axes.get("variants", VARIANTS)
        for load in loads
    ]


def format_fattree(rows: Rows) -> str:
    lines = [
        "Fat-tree reliability stashing (leaf/spine, Section IV-A claim)",
        "",
        f"{'variant':<10} {'offered':>8} {'accepted':>9} {'avg lat':>8}",
    ]
    for variant, group in rows_by_variant(rows).items():
        for _point, r in group:
            lines.append(
                f"{variant:<10} {r.offered_load:>8.3f} "
                f"{r.accepted_load:>9.3f} {r.avg_latency:>8.1f}"
            )
        lines.append("")
    return "\n".join(lines)

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

from repro.engine.config import NetworkConfig
from repro.experiments.common import (
    SweepEntry,
    collect_by_variant,
    preset_by_name,
    run_sweep,
)
from repro.scenario import (
    FatTreeTopologySpec,
    UniformTraffic,
    reliability_scenario,
)

__all__ = [
    "campaign_entries",
    "fattree_entries",
    "format_fattree",
    "run_fattree_reliability",
]

VARIANTS = {"baseline": None, "stash100": 1.0, "stash25": 0.25}


def fattree_entries(
    base: NetworkConfig,
    loads: tuple[float, ...] = (0.3, 0.7),
    variants: tuple[str, ...] = tuple(VARIANTS),
) -> list[SweepEntry]:
    """One scenario per (variant, load) on the default leaf/spine tree."""
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
        for variant in variants
        for load in loads
    ]


def campaign_entries(base: NetworkConfig, axes: dict) -> list[SweepEntry]:
    """Campaign-file binding (``sweep = "fattree"``; docs/CAMPAIGNS.md).

    Accepted ``[axes]`` keys: ``variants``, ``loads`` (floats; this
    sweep's variant set is ``baseline``/``stash100``/``stash25``).
    """
    known = {"variants", "loads"}
    unknown = sorted(set(axes) - known)
    if unknown:
        raise ValueError(
            f"fattree campaigns accept axes {sorted(known)}; unknown {unknown}"
        )
    return fattree_entries(
        base,
        loads=tuple(float(x) for x in axes.get("loads", (0.3, 0.7))),
        variants=tuple(axes.get("variants", tuple(VARIANTS))),
    )


def run_fattree_reliability(
    base: NetworkConfig | None = None,
    loads: tuple[float, ...] = (0.3, 0.7),
    variants: tuple[str, ...] = tuple(VARIANTS),
    seed: int = 1,
    jobs: int = 1,
    engine: str = "cycle",
    progress=None,
) -> dict[str, list[tuple[float, float, float]]]:
    """Returns variant -> [(offered, accepted, avg_latency)]."""
    if base is None:
        base = preset_by_name("tiny")
    outcomes = run_sweep(
        fattree_entries(base, loads, variants),
        seed=seed, engine=engine, jobs=jobs, progress=progress,
    )
    return collect_by_variant(
        outcomes,
        variants,
        value=lambda r: (r.offered_load, r.accepted_load, r.avg_latency),
    )


def format_fattree(results: dict[str, list[tuple[float, float, float]]]) -> str:
    lines = [
        "Fat-tree reliability stashing (leaf/spine, Section IV-A claim)",
        "",
        f"{'variant':<10} {'offered':>8} {'accepted':>9} {'avg lat':>8}",
    ]
    for variant, series in results.items():
        for offered, accepted, lat in series:
            lines.append(
                f"{variant:<10} {offered:>8.3f} {accepted:>9.3f} {lat:>8.1f}"
            )
        lines.append("")
    return "\n".join(lines)

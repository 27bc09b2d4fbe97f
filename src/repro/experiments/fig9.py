"""Figure 9: victim tail latency vs aggressor burstiness.

Half the endpoints run a 40 % uniform-random victim with single-packet
messages; the other half a maximum-rate uniform-random aggressor whose
message size sweeps from 1 to many packets.  Reported: the victim's 90th
percentile packet latency per network.

Expected shape (paper Section VI-B): the ECN baseline's tail latency
rises with burst size, peaks at intermediate bursts (congestion events
too short for ECN to react, long enough to hurt), then falls once bursts
are long enough for ECN's steady state; stashing networks stay flat and
below the baseline at every burst size.

Runs on either engine; the flow fastpath models the aggressors as
closed-loop fluid sources and reports trend-level tails only
(docs/FASTPATH.md).
"""

from __future__ import annotations

from repro.engine.config import NetworkConfig
from repro.experiments.common import (
    CONGESTION_VARIANTS,
    SweepEntry,
    preset_by_name,
    run_sweep,
)
from repro.scenario import UniformAggressorTraffic, congestion_scenario

__all__ = [
    "campaign_entries",
    "fig9_entries",
    "format_fig9",
    "run_fig9",
]

DEFAULT_BURSTS_PKTS = (1, 2, 4, 8, 16, 32, 64)


def fig9_entries(
    base: NetworkConfig,
    bursts_pkts: tuple[int, ...] = DEFAULT_BURSTS_PKTS,
    variants: tuple[str, ...] = tuple(CONGESTION_VARIANTS),
    victim_rate: float = 0.4,
) -> list[SweepEntry]:
    """One scenario per (variant, burst size); fig9 measures without a
    drain phase (open victim + saturating aggressors never drain)."""
    return [
        SweepEntry(
            key=(variant, burst),
            label=f"fig9:{variant}:{burst}",
            spec=congestion_scenario(
                base,
                variant,
                traffic=(
                    UniformAggressorTraffic(
                        burst_flits=burst * base.switch.max_packet_flits,
                        victim_rate=victim_rate,
                    ),
                ),
                drain=False,
            ),
        )
        for variant in variants
        for burst in bursts_pkts
    ]


def campaign_entries(base: NetworkConfig, axes: dict) -> list[SweepEntry]:
    """Campaign-file binding (``sweep = "fig9"``; docs/CAMPAIGNS.md).

    Accepted ``[axes]`` keys: ``variants``, ``bursts_pkts``,
    ``victim_rate``.  Burst sizes are coerced to int (labels, and
    therefore derived seeds, must match the interactive runner's).
    """
    known = {"variants", "bursts_pkts", "victim_rate"}
    unknown = sorted(set(axes) - known)
    if unknown:
        raise ValueError(
            f"fig9 campaigns accept axes {sorted(known)}; unknown {unknown}"
        )
    return fig9_entries(
        base,
        bursts_pkts=tuple(
            int(x) for x in axes.get("bursts_pkts", DEFAULT_BURSTS_PKTS)
        ),
        variants=tuple(axes.get("variants", tuple(CONGESTION_VARIANTS))),
        victim_rate=float(axes.get("victim_rate", 0.4)),
    )


def run_fig9(
    base: NetworkConfig | None = None,
    bursts_pkts: tuple[int, ...] = DEFAULT_BURSTS_PKTS,
    variants: tuple[str, ...] = tuple(CONGESTION_VARIANTS),
    victim_rate: float = 0.4,
    percentile: float = 90.0,
    seed: int = 1,
    jobs: int = 1,
    engine: str = "cycle",
    progress=None,
) -> dict[str, list[tuple[int, float, float]]]:
    """Returns variant -> [(burst_pkts, victim pXX latency, victim
    accepted load)] — the paper notes victim throughput holds at 40 %
    across the sweep while latency diverges."""
    if base is None:
        base = preset_by_name("tiny")
    outcomes = run_sweep(
        fig9_entries(base, bursts_pkts, variants, victim_rate),
        seed=seed, engine=engine, jobs=jobs, progress=progress,
    )
    results: dict[str, list[tuple[int, float, float]]] = {
        v: [] for v in variants
    }
    for outcome in outcomes:
        variant, burst = outcome.key
        r = outcome.value
        results[variant].append(
            (burst, r.group("victim").percentile(percentile), r.accepted_load)
        )
    return results


def format_fig9(results: dict[str, list[tuple[int, float, float]]]) -> str:
    lines = [
        "Figure 9 — victim 90th-percentile latency vs aggressor burst size",
        "",
        f"{'variant':<10} {'burst(pkts)':>12} {'p90 latency':>12} {'accepted':>9}",
    ]
    for variant, series in results.items():
        for burst, p90, accepted in series:
            lines.append(
                f"{variant:<10} {burst:>12} {p90:>12.1f} {accepted:>9.3f}"
            )
        lines.append("")
    return "\n".join(lines)

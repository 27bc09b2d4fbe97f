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

from typing import Any, Mapping

from repro.analysis.campaign import Rows, rows_by_variant
from repro.engine.config import NetworkConfig
from repro.experiments.common import (
    CONGESTION_VARIANTS,
    SweepEntry,
    check_axes,
)
from repro.scenario import UniformAggressorTraffic, congestion_scenario

__all__ = ["fig9_entries", "format_fig9"]

DEFAULT_BURSTS_PKTS = (1, 2, 4, 8, 16, 32, 64)


def fig9_entries(
    base: NetworkConfig, axes: Mapping[str, Any]
) -> list[SweepEntry]:
    """One scenario per (variant, burst size) (``sweep = "fig9"`` in a
    campaign file; docs/CAMPAIGNS.md); fig9 measures without a drain
    phase (open victim + saturating aggressors never drain).

    Accepted axes: ``variants``, ``bursts_pkts``, ``victim_rate``.
    Burst sizes are coerced to int (labels, and therefore derived
    seeds, must not depend on how the caller spelled the number).
    """
    check_axes(
        "fig9", axes, ("variants", "bursts_pkts", "victim_rate"),
        scalars=("victim_rate",),
    )
    victim_rate = float(axes.get("victim_rate", 0.4))
    bursts = [int(x) for x in axes.get("bursts_pkts", DEFAULT_BURSTS_PKTS)]
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
        for variant in axes.get("variants", CONGESTION_VARIANTS)
        for burst in bursts
    ]


def format_fig9(rows: Rows) -> str:
    """The victim's p90 latency and accepted load per (variant, burst)
    — the paper notes victim throughput holds at 40 % across the sweep
    while latency diverges."""
    lines = [
        "Figure 9 — victim 90th-percentile latency vs aggressor burst size",
        "",
        f"{'variant':<10} {'burst(pkts)':>12} {'p90 latency':>12} {'accepted':>9}",
    ]
    for variant, group in rows_by_variant(rows).items():
        for point, r in group:
            lines.append(
                f"{variant:<10} {point.key[2]:>12} "
                f"{r.group('victim').p90:>12.1f} {r.accepted_load:>9.3f}"
            )
        lines.append("")
    return "\n".join(lines)

"""Figure 8: stash-buffer usage at a hotspot switch during a congestion
event.

Probes one switch attached to a hotspot destination while the Fig. 7
scenario plays out: the aggressor's offered (post-window) injection load
and the switch's stash-buffer utilization, sampled over time.

Expected shape (paper Section VI-B): at aggressor onset the offered load
shoots up and stash utilization follows; ECN feedback then throttles the
sources, utilization stays high through the transient, and once ECN
converges the stash drains to near zero.

Cycle engine only (a transient); the series come from the
``hotspot_stash`` probe (:mod:`repro.scenario.probes`).
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.analysis.campaign import Rows
from repro.engine.config import NetworkConfig
from repro.experiments.common import SweepEntry
from repro.experiments.fig7 import hotspot_entries

__all__ = ["fig8_entries", "format_fig8"]


def fig8_entries(
    base: NetworkConfig, axes: Mapping[str, Any]
) -> list[SweepEntry]:
    """One congestion event per stashing variant (default ``stash100``;
    ``sweep = "fig8"`` in a campaign file; docs/CAMPAIGNS.md).

    The aggressor event occupies [10 %, 25 %) of the measurement window.
    Because the aggressor is open-loop, its NIC backlog keeps the
    hotspot congested for ~(oversubscription - 1) times the event
    duration after it stops; these fractions leave enough run time for
    the stash to drain back to near zero (the tail of the paper's
    Fig. 8).
    """
    return hotspot_entries(
        "fig8", base, axes, ("stash100",), "hotspot_stash", (0.1, 0.25)
    )


def format_fig8(rows: Rows) -> str:
    blocks = []
    for _point, r in rows:
        time = r.series("stash_time")
        utilization = r.series("stash_utilization")
        lines = [
            "Figure 8 — stash usage during a congestion event "
            f"(hotspot switch {int(r.extra('hotspot_switch'))})",
            "",
            f"{'time':>8} {'aggr flits/cyc':>15} {'stash util':>11}",
        ]
        stride = max(1, len(time) // 24)
        for t, load, util in zip(
            time[::stride],
            r.series("aggressor_load")[::stride],
            utilization[::stride],
        ):
            bar = "#" * int(util * 40)
            lines.append(f"{int(t):>8} {load:>15.2f} {util:>11.3f} {bar}")
        lines.append(
            f"\npeak stash utilization: {max(utilization, default=0.0):.3f}"
        )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)

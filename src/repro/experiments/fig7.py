"""Figure 7: network transient response to the onset of congestion.

A uniform-random victim shares the network with hotspot aggressors that
activate partway through the run.  7a plots the victim's average latency
over time; 7b the victim's inverse-cumulative latency distribution, with
a no-aggressor baseline as reference.

Expected shape (paper Section VI-B): the ECN baseline's victim latency
spikes during the transient and its ICDF grows a long tail; stashing
absorbs the transient (higher capacity -> flatter time series, shorter
tail).

Cycle engine only (a transient); the series come from the
``victim_latency`` probe (:mod:`repro.scenario.probes`).
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.analysis.campaign import Rows
from repro.engine.config import NetworkConfig
from repro.experiments.common import (
    CONGESTION_VARIANTS,
    SweepEntry,
    check_axes,
)
from repro.scenario import HotspotTraffic, congestion_scenario

__all__ = ["fig7_entries", "format_fig7", "hotspot_entries"]

#: "never": the reference run's aggressors stay silent
NEVER = 10**9


def hotspot_entries(
    sweep: str,
    base: NetworkConfig,
    axes: Mapping[str, Any],
    variants: tuple[str, ...],
    probe: str,
    event: tuple[float, float | None],
) -> list[SweepEntry]:
    """The grid Figs. 7 and 8 share: one congestion transient per
    variant, the hotspot aggressors active over the ``event`` =
    ``(onset, offset)`` fractions of the measurement window (offset
    ``None`` = to the end), ``probe`` recording.  No drain phase: the
    measurement window *is* the transient.  The variant ``reference``
    is the ECN baseline with the aggressors never switched on.

    Accepted axes: ``variants``, ``victim_rate``.
    """
    check_axes(
        sweep, axes, ("variants", "victim_rate"), scalars=("victim_rate",)
    )
    victim_rate = float(axes.get("victim_rate", 0.4))
    sim = base.sim
    onset, offset = (
        None if f is None else sim.warmup_cycles + int(f * sim.measure_cycles)
        for f in event
    )
    return [
        SweepEntry(
            key=(name,),
            label=f"{sweep}:{name}",
            spec=congestion_scenario(
                base,
                "baseline" if name == "reference" else name,
                traffic=(
                    HotspotTraffic(
                        victim_rate=victim_rate,
                        aggressor_start=NEVER if name == "reference" else onset,
                        aggressor_stop=offset,
                    ),
                ),
                drain=False,
                probes=(probe,),
            ),
        )
        for name in axes.get("variants", variants)
    ]


def fig7_entries(
    base: NetworkConfig, axes: Mapping[str, Any]
) -> list[SweepEntry]:
    """One transient per congestion variant plus ``reference``, the
    aggressors switching on 20 % into the measurement window (``sweep =
    "fig7"`` in a campaign file; docs/CAMPAIGNS.md)."""
    return hotspot_entries(
        "fig7", base, axes, (*CONGESTION_VARIANTS, "reference"),
        "victim_latency", (0.2, None),
    )


def format_fig7(rows: Rows) -> str:
    from repro.analysis.ascii_chart import multi_series_chart

    lines = [
        "Figure 7 — victim response to congestion onset",
        "",
        f"{'variant':<11} {'mean lat':>9} {'p99 lat':>9} {'max lat':>9}",
    ]
    for point, r in rows:
        victim = r.group("victim")
        lines.append(
            f"{point.key[1]:<11} {victim.mean:>9.1f} {victim.p99:>9.1f} "
            f"{victim.max:>9.0f}"
        )
    for title, x_name, y_name in (
        ("(a) victim avg latency over time:",
         "victim_time", "victim_avg_latency"),
        ("(b) victim inverse-cumulative latency distribution:",
         "victim_icdf_latency", "victim_icdf_fraction"),
    ):
        lines.append("")
        lines.append(title)
        series = {
            point.key[1]: (r.series(x_name), r.series(y_name))
            for point, r in rows
            if r.series(x_name)
        }
        if series:
            lines.append(multi_series_chart(series))
    return "\n".join(lines)

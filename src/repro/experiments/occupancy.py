"""Dynamic buffer-occupancy census: Table I measured, not just derived.

Table I *derives* buffer underutilization from link lengths; this
experiment *measures* it: run the baseline symmetric-port network under
realistic load, sample every port's committed input + output occupancy,
and report the peak per link class.  The fraction of the symmetric
buffer never touched is the stashable headroom — the empirical basis of
the whole paper.

Cycle engine only (per-port buffer state); the samples come from the
``port_occupancy`` probe (:mod:`repro.scenario.probes`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Mapping

from repro.analysis.campaign import Rows
from repro.engine.config import NetworkConfig
from repro.experiments.common import SweepEntry, check_axes
from repro.scenario import ScenarioSpec, UniformTraffic
from repro.scenario.probes import LINK_CLASSES

__all__ = ["format_occupancy", "occupancy_entries"]

#: cycles between occupancy samples (finer than the presets' figure
#: sampling: a peak is what the census is after)
SAMPLE_PERIOD = 20


def occupancy_entries(
    base: NetworkConfig, axes: Mapping[str, Any]
) -> list[SweepEntry]:
    """One census per offered load on the plain baseline network — full
    symmetric buffers everywhere — over warmup + measure, no drain
    (``sweep = "occupancy"`` in a campaign file; docs/CAMPAIGNS.md).

    Accepted axes: ``loads`` (coerced to float).
    """
    check_axes("occupancy", axes, ("loads",))
    config = base.with_(sim=replace(base.sim, sample_period=SAMPLE_PERIOD))
    return [
        SweepEntry(
            key=("census", load),
            label=f"occupancy:{load!r}",
            spec=ScenarioSpec(
                config=config,
                traffic=(UniformTraffic(rate=load),),
                drain=False,
                probes=("port_occupancy",),
            ),
        )
        for load in (float(x) for x in axes.get("loads", (0.6,)))
    ]


def format_occupancy(rows: Rows) -> str:
    blocks = []
    for point, r in rows:
        switch = point.spec.config.switch
        capacity = switch.input_buffer_flits + switch.output_buffer_flits
        lines = [
            "Measured buffer occupancy census (baseline network, load "
            f"{point.key[2]})",
            "",
            f"{'class':<10} {'ports':>6} {'capacity':>9} {'peak':>6} "
            f"{'mean peak':>10} {'idle at peak':>13}",
        ]
        for link_class in LINK_CLASSES:
            peaks = r.series(f"port_peaks_{link_class}")
            if not peaks:
                continue  # this topology has no such ports
            lines.append(
                f"{link_class:<10} {len(peaks):>6} {capacity:>9} "
                f"{int(max(peaks)):>6} {sum(peaks) / len(peaks):>10.1f} "
                f"{1.0 - max(peaks) / capacity:>12.0%}"
            )
        blocks.append("\n".join(lines))
    blocks.append(
        "idle-at-peak is the stashable headroom Table I derives from link "
        "lengths — here measured under traffic."
    )
    return "\n\n".join(blocks)

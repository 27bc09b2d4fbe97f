"""Consumers for :mod:`repro.obs` output: merged counters, trace files,
and occupancy-timeline charts.

The observability layer produces picklable :class:`~repro.obs.ObsCapture`
values (one per network) in a deterministic order; this module turns
them into the user-facing artifacts — a merged counter listing, a JSONL
trace file, a CSV trace, and ASCII timeline charts — without ever
re-touching the simulation.
"""

from __future__ import annotations

import json
from typing import Sequence

from repro.analysis.ascii_chart import multi_series_chart
from repro.obs.counters import merge_snapshots
from repro.obs.events import SCHEMA_FIELDS, trace_csv_lines
from repro.obs.observer import ObsCapture, merge_entries
from repro.obs.timeline import Timeline

__all__ = [
    "format_counters",
    "load_trace",
    "merged_counters",
    "timeline_chart",
    "trace_lines",
    "write_trace",
]


def merged_counters(captures: Sequence[ObsCapture]) -> dict:
    """Merge every capture's counter snapshot into one (see
    :func:`repro.obs.merge_snapshots`: counters sum, ``peak_`` values
    max)."""
    return merge_snapshots([cap.counters for cap in captures])


def format_counters(counters: dict) -> str:
    """Render a counter snapshot (:func:`repro.obs.harvest`, or several
    merged) as aligned, name-sorted lines.

    >>> print(format_counters({"engine.sim.cycles": 12, "a.b.peak_x": 3}))
    a.b.peak_x           3
    engine.sim.cycles   12
    """
    if not counters:
        return "(no counters)"
    names = sorted(counters)
    name_w = max(len(n) for n in names)
    return "\n".join(f"{name:<{name_w}}  {counters[name]:>3}" for name in names)


def trace_lines(captures: Sequence[ObsCapture]) -> list[str]:
    """JSONL lines (header first) for captures already in deterministic
    order; run ``i`` in the trace is ``captures[i]``."""
    return merge_entries([(i, cap) for i, cap in enumerate(captures)])


def write_trace(path: str, captures: Sequence[ObsCapture],
                fmt: str = "jsonl") -> int:
    """Write a merged trace file; returns the number of event records.

    ``fmt`` is ``"jsonl"`` (schema header line + one JSON object per
    event) or ``"csv"`` (header row of :data:`SCHEMA_FIELDS` prefixed
    with ``run``).  Both orders are deterministic for any ``--jobs N``.
    """
    if fmt == "jsonl":
        lines = trace_lines(captures)
        count = len(lines) - 1  # header
    elif fmt == "csv":
        lines = trace_csv_lines(
            [(i, list(cap.records)) for i, cap in enumerate(captures)]
        )
        count = len(lines) - 1
    else:
        raise ValueError(f"unknown trace format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return count


def load_trace(path: str) -> tuple[dict, list[dict]]:
    """Read a JSONL trace back: (header dict, list of event dicts).

    Events come back keyed by ``("run",) + SCHEMA_FIELDS``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header.get("schema") != "repro.obs.trace":
            raise ValueError(f"{path} is not a repro.obs trace")
        events = [json.loads(line) for line in fh if line.strip()]
    return header, events


def timeline_chart(tl: Timeline, names: Sequence[str] | None = None,
                   width: int = 60, height: int = 12) -> str:
    """Render tracked :class:`~repro.obs.Timeline` series as one ASCII
    chart (cycle on x, tracked value on y, one glyph per series)."""
    picked = list(names) if names is not None else list(tl.names)
    if not picked:
        raise ValueError("timeline has no tracked series")
    series = {name: (tl.cycles, tl.series(name)) for name in picked}
    return multi_series_chart(series, width=width, height=height)

"""Consumers for :mod:`repro.obs` output: merged counters and trace
files.

The observability layer produces picklable :class:`~repro.obs.ObsCapture`
values (one per network) in a deterministic order; this module turns
them into the user-facing artifacts — a merged counter listing and a
JSONL trace file — without ever re-touching the simulation.
"""

from __future__ import annotations

import json
from typing import Sequence

from repro.obs.events import SCHEMA_VERSION
from repro.obs.observer import ObsCapture, merge_entries, merge_snapshots

__all__ = [
    "format_counters",
    "load_trace",
    "merged_counters",
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


def write_trace(path: str, captures: Sequence[ObsCapture]) -> int:
    """Write a merged JSONL trace file (schema header line + one JSON
    object per event, deterministic for any ``--jobs N``); returns the
    number of event records."""
    lines = trace_lines(captures)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(lines) - 1  # header


def load_trace(path: str) -> tuple[dict, list[dict]]:
    """Read a JSONL trace back: (header dict, list of event dicts).

    Events come back keyed by :data:`repro.obs.SCHEMA_FIELDS`.  A file of
    another schema, or of another schema version, is refused rather than
    misread.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header.get("schema") != "repro.obs.trace":
            raise ValueError(f"{path} is not a repro.obs trace")
        if header.get("version") != SCHEMA_VERSION:
            raise ValueError(
                f"{path} is trace schema version {header.get('version')!r}; "
                f"this reader understands version {SCHEMA_VERSION}"
            )
        events = [json.loads(line) for line in fh if line.strip()]
    return header, events

"""Analytic models and post-processing: Table I buffer underutilization,
the Little's-law saturation model of Section VI-A, and metric helpers."""

from repro.analysis.table1 import (
    LinkClassRow,
    buffer_underutilization,
    dragonfly_link_table,
    paper_table1,
)
from repro.analysis.littles_law import (
    stash_limited_injection_rate,
    stash_per_endpoint_flits,
)
from repro.analysis.metrics import normalized_runtimes, saturation_load
from repro.analysis.ascii_chart import line_chart, multi_series_chart
from repro.analysis.obsview import (
    format_counters,
    load_trace,
    merged_counters,
    trace_lines,
    write_trace,
)

__all__ = [
    "LinkClassRow",
    "buffer_underutilization",
    "dragonfly_link_table",
    "format_counters",
    "line_chart",
    "load_trace",
    "merged_counters",
    "multi_series_chart",
    "normalized_runtimes",
    "paper_table1",
    "saturation_load",
    "stash_limited_injection_rate",
    "stash_per_endpoint_flits",
    "trace_lines",
    "write_trace",
]

"""``python -m bench compare A.json B.json``: is B no worse than A?

One row per workload and end-to-end metric: both medians with their
min-max, the ratio with its base, and a verdict against the bound in
:mod:`bench.metrics`:

* ``ok``: B's median is within the bound of A's;
* ``regressed``: it is worse by more than the bound;
* ``unresolved``: the spread of either side's repetitions (the distance
  between their quartiles; of three repetitions, max - min) is wider
  than the bound, so the medians cannot resolve it — unless the two
  sets of runs do not overlap: every run of B better than every run of
  A is ``ok``, every run of B worse than every run of A by more than the
  bound is ``regressed``.

A and B are compared per seed: a workload run with another seed or size
in B than in A is refused.  Exit status 1 on that, on any ``regressed``
row, or on a larger share of failed points.  A changed ``stats_digest``
or ``model.*`` count is reported, not failed: a speed-only change must
keep them, a model fix may not.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import Any

from bench.metrics import EndToEnd, end_to_end_for

__all__ = ["add_arguments", "compare", "judge", "run"]


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("a", type=Path, help="the parent's result.json")
    parser.add_argument("b", type=Path, help="the change's result.json")


def _spread(entry: dict[str, Any]) -> float:
    """Distance between the quartiles of the samples behind a reading
    (of three samples: max - min); 0 for a reading taken once."""
    samples = entry.get("samples", ())
    if len(samples) < 2:
        return 0.0
    q1, _median, q3 = statistics.quantiles(samples, n=4)
    return q3 - q1


def judge(metric: EndToEnd, a: dict[str, Any], b: dict[str, Any]) -> str:
    """The verdict for one metric of one workload (entries as in
    ``result.json``: value, and samples/min/max where the metric was
    sampled)."""
    if a["value"] is None or b["value"] is None:
        return "unresolved"
    sign = 1.0 if metric.better == "lower" else -1.0
    limit = max(metric.bound * abs(a["value"]), metric.slack)
    if max(_spread(a), _spread(b)) > limit:
        # (best, worst) run of each side, as signed badness
        ends_a = sorted(sign * a.get(key, a["value"]) for key in ("min", "max"))
        ends_b = sorted(sign * b.get(key, b["value"]) for key in ("min", "max"))
        if ends_b[1] < ends_a[0]:
            return "ok"
        if ends_b[0] - ends_a[1] > limit:
            return "regressed"
        return "unresolved"
    return "regressed" if sign * (b["value"] - a["value"]) > limit else "ok"


def _cell(entry: dict[str, Any]) -> str:
    if entry["value"] is None:
        return "null"
    text = f"{entry['value']:.4g} {entry['unit']}"
    if "min" in entry:
        text += f" [{entry['min']:.4g}..{entry['max']:.4g}]"
    return text


def _model_counts(row: dict[str, Any]) -> dict[str, Any]:
    return {
        name: value for name, value in row.get("per_layer", {}).items()
        if name.startswith("model.")
    }


def compare(a: dict[str, Any], b: dict[str, Any]) -> tuple[list[str], bool]:
    """(report lines, whether B is acceptable)."""
    lines: list[str] = []
    acceptable = True
    for name, row_a in a["workloads"].items():
        row_b = b["workloads"].get(name)
        if row_b is None:
            lines.append(f"{name}: missing from B")
            acceptable = False
            continue
        runs = [(row["seed"], row["smoke"]) for row in (row_a, row_b)]
        if runs[0] != runs[1]:
            lines.append(f"{name}: A ran (seed, smoke) {runs[0]}, B {runs[1]}: "
                         "not the same inputs")
            acceptable = False
            continue
        for metric in end_to_end_for(name):
            entry_a = row_a["end_to_end"].get(metric.name)
            entry_b = row_b["end_to_end"].get(metric.name)
            if entry_a is None or entry_b is None:
                continue  # a pass was skipped (--no-trace)
            verdict = judge(metric, entry_a, entry_b)
            acceptable = acceptable and verdict != "regressed"
            ratio = "n/a"
            if entry_a["value"] and entry_b["value"] is not None:
                ratio = (f"{entry_b['value'] / entry_a['value']:.3f} "
                         f"(base {entry_a['value']:.4g} {metric.unit})")
            lines.append(
                f"{name:<17} {metric.name:<18} A {_cell(entry_a):<32} "
                f"B {_cell(entry_b):<32} B/A {ratio:<26} {verdict}"
            )
        share_a = row_a["failed_points"] / row_a["points"]
        share_b = row_b["failed_points"] / row_b["points"]
        if share_b > share_a:
            acceptable = False
            lines.append(
                f"{name}: failed points rose from {row_a['failed_points']}/"
                f"{row_a['points']} to {row_b['failed_points']}/{row_b['points']}"
            )
        if (row_a["stats_digest"] != row_b["stats_digest"]
                or _model_counts(row_a) != _model_counts(row_b)):
            lines.append(f"{name}: simulated statistics changed")
    return lines, acceptable


def run(args: argparse.Namespace) -> int:
    a = json.loads(args.a.read_text())
    b = json.loads(args.b.read_text())
    lines, acceptable = compare(a, b)
    print("\n".join(lines))
    print("compare: " + ("ok" if acceptable else "NOT ok"))
    return 0 if acceptable else 1

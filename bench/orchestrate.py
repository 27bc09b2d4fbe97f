"""``python -m bench run``: every workload, one fresh subprocess per
pass, one at a time; prints each metric and writes ``result.json``."""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any

from bench import BENCH_DIR, OUT_DIR, SCHEMA
from bench.metrics import end_to_end_for
from bench.worker import WORKLOADS

__all__ = ["add_arguments", "run"]


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="run only this workload (repeatable)")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced pass (no per-layer ledger)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repetitions of each untraced timed section")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="windows / 10, 12 campaign points: seconds, not minutes")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "result.json")


def _pass(name: str, args: argparse.Namespace, traced: bool) -> dict[str, Any]:
    """Run one pass of one workload in a fresh interpreter."""
    detail = OUT_DIR / "tmp" / f"detail-{name}-{int(traced)}-{os.getpid()}.json"
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
        "--seed", str(args.seed), "--repeats", str(args.repeats),
        "--trace", str(int(traced)), "--detail", str(detail),
    ]
    if args.smoke:
        command.append("--smoke")
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    record = json.loads(detail.read_text())
    detail.unlink()
    return record


def _merge(plain: dict[str, Any], traced: dict[str, Any] | None) -> dict[str, Any]:
    """One workload's row of ``result.json`` from its two passes."""
    row = {
        key: plain[key]
        for key in ("why", "seed", "smoke", "points", "stats_digest", "end_to_end")
    }
    row["failed_points"] = plain["failed_points"]
    row["failures"] = list(plain["failures"])
    if traced is not None:
        row["failed_points"] += traced["failed_points"]
        row["failures"] += traced["failures"]
        if traced["stats_digest"] != plain["stats_digest"]:
            row["failed_points"] += 1
            row["failures"].append("traced pass digest differs from the untraced pass")
        row["per_layer"] = traced["per_layer"]
        row["top_self_s"] = traced["top_self_s"]
        row["missing_targets"] = traced["missing_targets"]
        # the simulated end-to-end metrics are computed beside the trace
        for metric in end_to_end_for(plain["workload"]):
            if metric.name not in row["end_to_end"]:
                row["end_to_end"][metric.name] = {
                    "value": traced["per_layer"].get(metric.name),
                    "unit": metric.unit, "n": 1,
                }
    return row


def _print_row(name: str, row: dict[str, Any]) -> None:
    print(f"\n{name}: {row['failed_points']} failed of {row['points']} points"
          f"  digest {row['stats_digest'][:12]}")
    for metric, entry in row["end_to_end"].items():
        spread = ""
        if "min" in entry:
            spread = f"  [{entry['min']:.4g} .. {entry['max']:.4g}]"
        print(f"  {metric:<34} {_fmt(entry['value']):>12} {entry['unit']:<6}"
              f" n={entry['n']}{spread}")
    for metric, value in row.get("per_layer", {}).items():
        print(f"  {metric:<34} {_fmt(value):>12}")
    for span, seconds in row.get("top_self_s", []):
        print(f"  top self time: {span:<22} {seconds:.3f} s")


def _fmt(value: Any) -> str:
    if value is None:
        return "null"
    return f"{value:.5g}" if isinstance(value, float) else str(value)


def run(args: argparse.Namespace) -> int:
    names = args.workload or list(WORKLOADS)
    result: dict[str, Any] = {
        "schema": SCHEMA,
        "seed": args.seed,
        "repeats": args.repeats,
        "smoke": args.smoke,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "workloads": {},
    }
    for name in names:
        plain = _pass(name, args, traced=False)
        traced = None if args.no_trace else _pass(name, args, traced=True)
        row = _merge(plain, traced)
        result["workloads"][name] = row
        _print_row(name, row)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"\nwrote {args.out}")
    failed = sum(row["failed_points"] for row in result["workloads"].values())
    return 1 if failed else 0

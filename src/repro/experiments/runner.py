"""Command-line experiment runner.

Usage::

    repro-experiments table1
    repro-experiments fig5 --preset tiny --quick
    repro-experiments fig5 --quick --jobs 4
    repro-experiments all --quick
    python -m repro.experiments.runner fig7

``--jobs N`` runs each experiment's independent sweep points across N
worker processes.  Results are bit-identical for any N (every point
carries a pre-derived seed; see :mod:`repro.engine.parallel`), so the
flag only changes wall-clock time.  Progress lines go to stderr; stdout
carries exactly the formatted tables/figures.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time

from repro.campaign.service import run_points
from repro.campaign.spec import SWEEPS, check_engine, expand_sweep
from repro.engine.base import ENGINE_NAMES
from repro.engine.parallel import drain_run_log
from repro.experiments.common import PRESETS, preset_by_name, quicken
from repro.experiments.tables import (
    format_table1,
    format_table2,
    run_table1,
    table2_rows,
)

__all__ = ["main"]


def _progress_printer(name: str):
    """A run_points progress callback reporting per-point timing on
    stderr (stdout must stay byte-identical across --jobs values)."""

    def progress(done: int, total: int, point, outcome) -> None:
        cps = outcome.cycles_per_second
        cps_txt = f", {cps:.0f} cyc/s" if cps else ""
        print(
            f"[{name} {done}/{total}] {point.key!r} "
            f"({outcome.wall_seconds:.1f}s{cps_txt})",
            file=sys.stderr,
        )

    return progress


#: the sparser grid ``--quick`` runs of each sweep family (omitted axes
#: keep the family's defaults)
QUICK_AXES: dict[str, dict] = {
    "fig5": {"loads": (0.2, 0.5, 0.8)},
    "fig6": {"apps": ("BIGFFT", "MiniFE")},
    "fig7": {},
    "fig8": {},
    "fig9": {"bursts_pkts": (1, 8, 32)},
    "ablation": {"speedups": (1.0, 1.3)},
    "occupancy": {},
    "fattree": {"loads": (0.3,)},
}

#: the experiments that build no network: name -> render(base)
ANALYTIC = {
    "table1": lambda base: format_table1(run_table1(base)),
    "table2": lambda base: format_table2(table2_rows()),
}

#: ``all`` runs these ten, in this order
EXPERIMENTS = (*ANALYTIC, *SWEEPS)


def _run_one(name: str, base, quick: bool, jobs: int = 1,
             engine: str = "cycle", seed: int = 1) -> str:
    if name in ANALYTIC:
        return ANALYTIC[name](base)
    points = expand_sweep(
        name, base, QUICK_AXES[name] if quick else {}, (seed,), engine
    )
    rows = run_points(points, jobs=jobs, progress=_progress_printer(name))
    module = importlib.import_module(SWEEPS[name].module)
    return getattr(module, f"format_{name}")(rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=EXPERIMENTS + ("all",),
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--preset",
        default="tiny",
        choices=tuple(PRESETS),
        help="network scale (default: tiny; 'paper' is very slow in Python)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shorter windows and sparser sweeps",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=1,
        help="experiment seed every point's RNG seed is derived from "
        "(default: 1)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for sweep points (default: 1 = serial; "
        "results are bit-identical for any N)",
    )
    parser.add_argument(
        "--engine",
        default="cycle",
        choices=ENGINE_NAMES,
        help="simulation engine: 'cycle' (cycle-accurate, default) or "
        "'flow' (flow-level fastpath; steady-state sweeps only)",
    )
    parser.add_argument(
        "--kernel",
        default=None,
        choices=("polling", "event"),
        help="cycle-loop kernel (default: the preset's, normally "
        "'event'; results are bit-identical for either)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect repro.obs counters and print the merged snapshot "
        "after each experiment",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a merged JSONL event trace (repro.obs schema) to "
        "FILE; byte-identical for any --jobs value",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    names = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    try:
        for name in names:
            if name in SWEEPS:
                check_engine(name, args.engine)
            elif args.engine != "cycle":
                raise ValueError(
                    f"{name} is analytic (it builds no network): "
                    f"--engine {args.engine} does not apply"
                )
    except ValueError as exc:
        parser.error(str(exc))

    base = preset_by_name(args.preset)
    if args.quick:
        base = quicken(base, 0.5)
    if args.kernel is not None:
        from dataclasses import replace

        base = base.with_(sim=replace(base.sim, kernel=args.kernel))

    obs_on = args.metrics or args.trace is not None
    if obs_on:
        from repro.engine.config import ObsParams

        base = base.with_(
            obs=ObsParams(enabled=True, trace=args.trace is not None)
        )

    captures = []
    for name in names:
        t0 = time.perf_counter()
        print(f"=== {name} (preset={args.preset}) ===")
        print(_run_one(name, base, args.quick, jobs=args.jobs,
                       engine=args.engine, seed=args.seed))
        print()
        # wall-clock varies run to run; keep stdout deterministic
        print(f"--- {name} done in {time.perf_counter() - t0:.1f}s ---",
              file=sys.stderr)
        if obs_on:
            # every network is built inside a sweep point, so the run
            # log is all of them, in (sweep, index) order for any --jobs
            captures.extend(drain_run_log())

    if args.metrics and captures:
        from repro.analysis.obsview import format_counters, merged_counters

        print("=== metrics (merged) ===")
        print(format_counters(merged_counters(captures)))
        print()
    if args.trace is not None:
        from repro.analysis.obsview import write_trace

        records = write_trace(args.trace, captures)
        print(f"wrote {records} trace records from {len(captures)} run(s) "
              f"to {args.trace}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

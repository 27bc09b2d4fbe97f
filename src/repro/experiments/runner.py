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
from repro.campaign.spec import SWEEPS, expand_sweep
from repro.engine.base import ENGINE_NAMES
from repro.experiments.common import PRESETS, preset_by_name, quicken

__all__ = ["main"]

EXPERIMENTS = (
    "table1",
    "table2",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "ablation",
    "occupancy",
    "fattree",
)


def _progress_printer(name: str):
    """A run_specs progress callback reporting per-point timing on
    stderr (stdout must stay byte-identical across --jobs values)."""

    def progress(done: int, total: int, outcome) -> None:
        cps = outcome.cycles_per_second
        cps_txt = f", {cps:.0f} cyc/s" if cps else ""
        print(
            f"[{name} {done}/{total}] {outcome.key!r} "
            f"({outcome.wall_seconds:.1f}s{cps_txt})",
            file=sys.stderr,
        )

    return progress


#: experiments that run on either engine — the registered sweep
#: families; everything else probes the switch microarchitecture or
#: transient behavior and is cycle-only (see docs/FASTPATH.md)
ENGINE_AWARE = tuple(SWEEPS)

#: the sparser grid ``--quick`` runs of each sweep family (omitted axes
#: keep the family's defaults)
QUICK_AXES = {
    "fig5": {"loads": (0.2, 0.5, 0.8)},
    "fig9": {"bursts_pkts": (1, 8, 32)},
    "fattree": {"loads": (0.3,)},
}


def _run_one(name: str, base, quick: bool, jobs: int = 1,
             engine: str = "cycle", seed: int = 1) -> str:
    progress = _progress_printer(name)
    if engine != "cycle" and name not in ENGINE_AWARE:
        from repro.engine.base import EngineUnsupported

        raise EngineUnsupported(
            f"experiment {name!r} is cycle-only: it measures transients or "
            "per-packet behaviour, which the steady-state fluid fastpath "
            "cannot represent (a time-stepped fluid mode would be needed; "
            f"see docs/FASTPATH.md). --engine {engine} supports "
            f"{', '.join(ENGINE_AWARE)}"
        )
    if name in SWEEPS:
        points = expand_sweep(
            name, base, QUICK_AXES[name] if quick else {}, (seed,), engine
        )
        rows = run_points(points, jobs=jobs, progress=progress)
        module = importlib.import_module(SWEEPS[name])
        return getattr(module, f"format_{name}")(rows)
    if name == "table1":
        from repro.experiments.tables import format_table1, run_table1

        return format_table1(run_table1(base))
    if name == "table2":
        from repro.experiments.tables import format_table2, run_table2

        return format_table2(run_table2(jobs=jobs, progress=progress))
    if name == "fig6":
        from repro.experiments.fig6 import format_fig6, run_fig6

        apps = ("BIGFFT", "MiniFE") if quick else None
        kwargs = {"apps": apps} if apps else {}
        return format_fig6(
            run_fig6(base, seed=seed, jobs=jobs, progress=progress, **kwargs)
        )
    if name == "fig7":
        from repro.experiments.fig7 import format_fig7, run_fig7

        return format_fig7(run_fig7(base, seed=seed))
    if name == "fig8":
        from repro.experiments.fig8 import format_fig8, run_fig8

        return format_fig8(run_fig8(base, seed=seed))
    if name == "occupancy":
        from repro.experiments.occupancy import (
            format_occupancy,
            run_occupancy_census,
        )

        return format_occupancy(
            run_occupancy_census(
                base, seed=seed, jobs=jobs, progress=progress
            )
        )
    if name == "ablation":
        from repro.experiments.ablations import (
            format_ablations,
            run_littles_law_check,
            run_placement_ablation,
            run_speedup_ablation,
        )

        speedups = (1.0, 1.3) if quick else (1.0, 1.15, 1.3, 1.5)
        common = {"seed": seed, "jobs": jobs, "progress": progress}
        return format_ablations(
            run_speedup_ablation(base, speedups=speedups, **common),
            run_placement_ablation(base, **common),
            run_littles_law_check(base, **common),
        )
    raise ValueError(f"unknown experiment {name!r}")


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
        "'flow' (flow-level fastpath; fig5/fig9/fattree only)",
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
    if args.engine != "cycle":
        wanted = (
            EXPERIMENTS if args.experiment == "all" else (args.experiment,)
        )
        bad = [n for n in wanted if n not in ENGINE_AWARE]
        if bad:
            parser.error(
                f"--engine {args.engine} supports {', '.join(ENGINE_AWARE)}; "
                f"{', '.join(bad)} are cycle-only: they measure transients "
                "or per-packet behaviour, which the steady-state fluid "
                "fastpath cannot represent (a time-stepped fluid mode would "
                "be needed; see docs/FASTPATH.md)"
            )

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

    names = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
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
            captures.extend(_drain_captures())

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


def _drain_captures() -> list:
    """Collect captures from sweep points (in (sweep, index) order) and
    any networks the experiment built outside a sweep (in construction
    order) — the same order for any ``--jobs`` value."""
    from repro.engine.parallel import drain_run_log
    from repro.obs.observer import take_captures

    return drain_run_log() + take_captures()


if __name__ == "__main__":
    sys.exit(main())

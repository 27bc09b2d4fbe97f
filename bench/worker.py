"""One workload, one pass, in this process.

``--trace 0`` measures the end-to-end metrics with nothing wrapped:
the timed section is repeated while another repetition fits in
``--seconds`` (once at least), or exactly ``--repeats`` times, and
``wall_s`` is the median.  ``--trace 1`` runs the section once plain
and once under :class:`bench.trace.Tracer`, requires equal results, and
reports the per-layer ledger.

The last line of standard output is the result object the benchmark
contract reads; ``--detail FILE`` also writes the full record that
``bench run`` assembles into ``result.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any

from bench import BENCH_DIR, OUT_DIR, require_repro

require_repro()

from repro.campaign import parse_campaign_text  # noqa: E402
from repro.engine.base import EngineResult, get_engine  # noqa: E402
from repro.engine.parallel import RunSpec, run_specs  # noqa: E402

from bench import ledger  # noqa: E402
from bench.metrics import DRIVER_END_TO_END, PER_LAYER, end_to_end_for  # noqa: E402
from bench.trace import Tracer  # noqa: E402
from bench.workloads import WARM_RERUNS, WORKLOADS, Rep, Workload  # noqa: E402

#: fresh interpreters started to time set-up, at least (median reported)
SETUP_RUNS = 3
#: no-op specs pushed through ``run_specs`` to time its dispatch
DISPATCH_SPECS = 200


def noop_point(seed: int | None = None) -> int:
    """The body of the dispatch-cost specs (module-level: it pickles)."""
    return 0


def stats_digest(results: list[EngineResult | None]) -> str:
    """sha256 of the canonical results: equal digests, equal statistics."""
    canon = json.dumps(
        [asdict(r) if r is not None else None for r in results],
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def time_setup(workload: Workload, seed: int, smoke: bool) -> float:
    """Seconds from starting a fresh interpreter to a prepared workload
    (and back out): import, spec or campaign construction, store
    directory creation."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload.name,
        "--seed", str(seed), "--setup-only",
    ] + (["--smoke"] if smoke else [])
    t0 = time.perf_counter()
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _summary(samples: list[float], unit: str) -> dict[str, Any]:
    return {
        "value": statistics.median(samples), "unit": unit, "n": len(samples),
        "min": min(samples), "max": max(samples), "samples": samples,
    }


# ----------------------------------------------------------------------
# the untraced pass
# ----------------------------------------------------------------------


def measure(
    workload: Workload, seed: int, seconds: float, repeats: int | None,
    smoke: bool, scratch: Path,
) -> dict[str, Any]:
    """End-to-end metrics; nothing wrapped."""
    plan = workload.prepare(seed, smoke, scratch)
    try:
        reps: list[Rep] = []
        setup: list[float] = []
        warm_s: list[float] = []
        measured = 0.0
        while True:
            # one set-up reading before each repetition (topped up
            # below): readings spread over the run sit out a slow burst
            # of the host that back-to-back ones would all land in
            setup.append(time_setup(workload, seed, smoke))
            # the last repetition's networks are cyclic garbage: collect
            # them here, not at some point inside the next timed section
            gc.collect()
            rep = plan.run()
            plan.verify(rep)
            if workload.kind == "campaign":
                seconds_each, hit_ratio = plan.warm(WARM_RERUNS)
                warm_s += seconds_each
                rep.failures += plan.verify_warm(rep, hit_ratio)
            reps.append(rep)
            measured += rep.seconds
            if repeats is not None:
                if len(reps) >= repeats:
                    break
            elif measured + rep.seconds > seconds:
                break
        while not smoke and len(setup) < SETUP_RUNS:
            setup.append(time_setup(workload, seed, smoke))
    finally:
        plan.close()

    failures = [f for rep in reps for f in rep.failures]
    extra: dict[str, Any] = {}
    if warm_s:
        extra["warm_rerun_ms"] = _summary([1e3 * s for s in warm_s], "ms")
    digests = {stats_digest(rep.results) for rep in reps}
    if len(digests) > 1:
        failures.append("repeats of the same seed disagree")
    points = len(plan.points)
    return {
        "points": points,
        "attempted": points * len(reps),
        "failed_points": len(failures),
        "failures": failures,
        "stats_digest": stats_digest(reps[0].results),
        "end_to_end": {
            "wall_s": _summary([rep.seconds for rep in reps], "s"),
            "setup_s": _summary(setup, "s"),
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB", "n": 1,
            },
            **extra,
        },
    }


# ----------------------------------------------------------------------
# the traced pass
# ----------------------------------------------------------------------


def _dispatch_us(jobs: int) -> float:
    specs = [RunSpec(key=i, fn=noop_point) for i in range(DISPATCH_SPECS)]
    t0 = time.perf_counter()
    run_specs(specs, jobs=jobs)
    return 1e6 * (time.perf_counter() - t0) / DISPATCH_SPECS


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _flow_errors(plan, plain: Rep) -> dict[str, Any]:
    """The flow engine's error against the plain cycle repetition on the
    identical specs (run untimed, unwrapped)."""
    flow = get_engine("flow")
    fluid = [flow.run(spec) for _point, spec in plan.points]
    return {
        name: ledger.flow_error_pct(plain.results, fluid, field)
        for field, name in (("accepted_load", "flow_tput_err_pct"),
                            ("avg_latency", "flow_lat_err_pct"))
    }


def _campaign_metrics(
    plan, tracer: Tracer, traced: Rep, failures: list[str], trace_file: dict
) -> dict[str, Any]:
    """The campaign layers: the cold trace, three traced cache-hit
    reruns, and the parse and dispatch probes."""
    entry_bytes = [p.stat().st_size for p in plan.store.entry_paths()]
    warm_tracer = Tracer()
    with warm_tracer.installed("warm"):
        warm_s, hit_ratio = plan.warm(3, warm_tracer)
    failures += plan.verify_warm(traced, hit_ratio)
    trace_file["warm_spans"] = warm_tracer.to_json()["spans"]
    metrics = ledger.campaign_ledger(
        tracer, warm_tracer, traced.seconds, traced.compute_seconds,
        len(plan.points), entry_bytes,
    )
    metrics["campaign.parse_s"] = statistics.median(
        _timed(parse_campaign_text, plan.text, "toml") for _ in range(5)
    )
    metrics["service.warm_hit_ratio"] = hit_ratio
    metrics["warm_rerun_ms"] = 1e3 * statistics.median(warm_s)
    metrics["parallel.dispatch_us_jobs1"] = _dispatch_us(1)
    metrics["parallel.dispatch_us_jobs2"] = _dispatch_us(2)
    return metrics


def trace(
    workload: Workload, seed: int, smoke: bool, scratch: Path, out_dir: Path
) -> dict[str, Any]:
    """Per-layer metrics: one plain repetition, one traced, compared.
    The spans go to ``out_dir/trace-<workload>.json``."""
    plan = workload.prepare(seed, smoke, scratch)
    try:
        plain = plan.run()
        plan.verify(plain)
        tracer = Tracer()
        with tracer.installed(f"workload:{workload.name}") as root:
            traced = plan.run(tracer)
        plan.verify(traced)
        for problem in tracer.problems:
            print(f"bench: warning: {problem}", file=sys.stderr)
        failures = plain.failures + traced.failures
        if traced.results != plain.results:
            failures.append("traced results differ from the untraced pass")

        trace_file = {
            "workload": workload.name, "seed": seed, "smoke": smoke,
            **tracer.to_json(),
        }
        metrics: dict[str, Any] = ledger.trace_ledger(root, plain.seconds)
        first_spec = plan.points[0][1]
        metrics["scenario.spec_hash_us"] = 1e6 * statistics.median(
            _timed(first_spec.spec_hash) for _ in range(21)
        )
        if workload.kind == "cycle":
            networks = tracer.captured.get("scenario.build_network", [])
            metrics.update(
                ledger.cycle_ledger(tracer, root, networks, plain.seconds)
            )
            declared = {m.name for m in end_to_end_for(workload.name)}
            if "flow_tput_err_pct" in declared:
                metrics.update(_flow_errors(plan, plain))
        else:
            nodes = first_spec.resolved_config().dragonfly.num_nodes
            metrics.update(ledger.flow_ledger(tracer, traced.results, nodes))
        if workload.kind == "campaign":
            metrics.update(
                _campaign_metrics(plan, tracer, traced, failures, trace_file)
            )
    finally:
        plan.close()

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"trace-{workload.name}.json").write_text(
        json.dumps(trace_file, indent=1) + "\n"
    )
    points = len(plan.points)
    return {
        "points": points,
        "attempted": 2 * points,
        "failed_points": len(failures),
        "failures": failures,
        "stats_digest": stats_digest(traced.results),
        "missing_targets": tracer.missing,
        "top_self_s": ledger.top_self_times(tracer),
        "per_layer": metrics,
    }


# ----------------------------------------------------------------------
# entry
# ----------------------------------------------------------------------


def contract_line(record: dict[str, Any], traced: bool) -> str:
    """The result object the benchmark contract reads.  It wants a
    number for every declared metric: one that does not apply to this
    workload, or whose span target is gone, reads 0."""
    metrics = {}
    if traced:
        values = record["per_layer"]
        for metric in PER_LAYER:
            value = values.get(metric.name)
            metrics[metric.name] = {
                "value": value if value is not None else 0, "unit": metric.unit,
            }
    else:
        for metric in DRIVER_END_TO_END:
            metrics[metric.name] = {
                "value": record["end_to_end"][metric.name]["value"],
                "unit": metric.unit,
            }
    return json.dumps({
        "correct": record["failed_points"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed_points"],
        "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="the untraced pass repeats the timed section "
                             "while another repetition fits in this")
    parser.add_argument("--repeats", type=int, default=None,
                        help="repeat exactly this many times instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="windows / 10, 12 campaign points")
    parser.add_argument("--detail", type=Path, default=None,
                        help="also write the full record to this file")
    parser.add_argument("--setup-only", action="store_true",
                        help="prepare the workload and exit (times set-up)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    scratch = OUT_DIR / "tmp" / f"{workload.name}-{os.getpid()}"
    if args.setup_only:
        workload.prepare(args.seed, args.smoke, scratch).close()
        return 0
    if args.trace:
        record = trace(workload, args.seed, args.smoke, scratch, OUT_DIR)
    else:
        record = measure(
            workload, args.seed, args.seconds, args.repeats, args.smoke, scratch
        )
    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "smoke": args.smoke, "traced": bool(args.trace), **record,
    }
    for failure in record["failures"]:
        print(f"bench: FAILED {workload.name}: {failure}", file=sys.stderr)
    if args.detail is not None:
        args.detail.parent.mkdir(parents=True, exist_ok=True)
        args.detail.write_text(json.dumps(record, indent=1) + "\n")
    print(contract_line(record, bool(args.trace)))
    return 0

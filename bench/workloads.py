"""The five workloads: what runs, why, and how a point is judged.

All five are closed batches: a fixed list of points run to completion,
the next starting when the previous returns.  ``--seed`` reaches the
program only through the generated :class:`ScenarioSpec`s (engine
workloads: ``derive_run_seed(seed, label)`` into ``spec.with_seed``;
the campaign: its sweep seeds, which ``expand_campaign`` derives per
point the same way).

Sizes.  The benchmark contract gives 114 runs 3420 s in all, about
30 s each with set-up, on a host whose speed drifts by 1.3x.  ISSUE 11's
sizes take 106 s per set of five at one repetition each, so the driver's
run does one repetition (``--seconds 20`` fits no second one) and three
of the five are shortened, as little as that budget allows:
``flow_mid`` and ``campaign_grid`` are the issue's size; the dense pair
keeps the issue's 1000-cycle warm-up (the queue-fill transient) and
uncapped drain and halves the measure window to 2000 cycles;
``cycle_sparse`` measures 50 000 cycles for the issue's 60 000.
"""

from __future__ import annotations

import math
import shutil
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

from repro.campaign import (
    Campaign,
    CorruptEntryError,
    ResultStore,
    expand_campaign,
    parse_campaign_text,
    run_campaign,
)
from repro.engine.base import EngineResult, get_engine
from repro.engine.config import NetworkConfig, small_preset, tiny_preset
from repro.engine.parallel import derive_run_seed
from repro.scenario import (
    ScenarioSpec,
    UniformAggressorTraffic,
    UniformTraffic,
    congestion_scenario,
    reliability_scenario,
)

from bench.trace import Tracer

__all__ = ["WORKLOADS", "Rep", "Workload", "check_result", "span"]

#: cache-hit reruns timed after each cold campaign run: 21 over the
#: three repetitions of ``bench run`` (p50 only at this n)
WARM_RERUNS = 7


def span(tracer: Tracer | None, name: str, point: str | None = None):
    """``tracer.span`` when tracing, otherwise nothing."""
    return tracer.span(name, point) if tracer is not None else nullcontext()


@dataclass
class Rep:
    """One repetition of a workload's timed section."""

    seconds: float
    #: one entry per point, in point order: the result, or why there is none
    results: list[EngineResult | None]
    failures: list[str]
    #: Σ per-point compute seconds as the campaign service reports them
    compute_seconds: float = 0.0


def check_result(point: str, result: EngineResult) -> str | None:
    """Why this point's statistics are unusable, or ``None``."""
    if math.isnan(result.accepted_load) or math.isnan(result.avg_latency):
        return f"{point}: accepted_load or avg_latency is NaN"
    if result.packets_measured == 0:
        return f"{point}: no packets measured"
    if result.accepted_load > 1.05 * result.offered_load:
        return (f"{point}: accepted {result.accepted_load:.4f} exceeds "
                f"offered {result.offered_load:.4f}")
    return None


def _check_all(
    points: list[tuple[str, ScenarioSpec]], results: list[EngineResult | None]
) -> list[str]:
    problems = []
    for (point, _spec), result in zip(points, results):
        problem = check_result(point, result) if result is not None else None
        if problem:
            problems.append(problem)
    return problems


def _windows(
    cfg: NetworkConfig, warmup: int, measure: int, drain: int, smoke: bool
) -> NetworkConfig:
    if smoke:
        # plumbing, not statistics: a tenth of the windows, and a drain
        # cut off after as many cycles as were measured
        warmup, measure = warmup // 10, measure // 10
        drain = min(drain, measure)
    return cfg.with_(sim=replace(
        cfg.sim, warmup_cycles=warmup, measure_cycles=measure, drain_cycles=drain,
    ))


# ----------------------------------------------------------------------
# engine workloads
# ----------------------------------------------------------------------


class EnginePlan:
    """A list of (point id, spec) run one after another on one engine."""

    def __init__(self, engine: str, points: list[tuple[str, ScenarioSpec]]) -> None:
        self.engine = engine
        self.points = points

    def run(self, tracer: Tracer | None = None) -> Rep:
        engine = get_engine(self.engine)
        results: list[EngineResult | None] = []
        failures: list[str] = []
        t0 = time.perf_counter()
        for point, spec in self.points:
            with span(tracer, "point", point):
                try:
                    results.append(engine.run(spec))
                except Exception:
                    # a failed point is counted and reported, the batch goes on
                    traceback.print_exc()
                    results.append(None)
                    failures.append(f"{point}: engine raised")
        return Rep(time.perf_counter() - t0, results, failures)

    def verify(self, rep: Rep) -> None:
        rep.failures.extend(_check_all(self.points, rep.results))

    def close(self) -> None:
        pass


def _seeded(
    workload: str, seed: int, specs: list[tuple[str, ScenarioSpec]]
) -> list[tuple[str, ScenarioSpec]]:
    return [
        (point, spec.with_seed(derive_run_seed(seed, f"{workload}:{point}")))
        for point, spec in specs
    ]


def _rel_mid(seed: int, smoke: bool, scratch: Path) -> EnginePlan:
    base = _windows(tiny_preset(), 1000, 2000, 10000, smoke)
    traffic = (UniformTraffic(rate=0.5),)
    return EnginePlan("cycle", _seeded("cycle_rel_mid", seed, [
        (variant, reliability_scenario(base, variant, traffic=traffic))
        for variant in ("baseline", "stash100")
    ]))


def _cong_burst(seed: int, smoke: bool, scratch: Path) -> EnginePlan:
    base = _windows(tiny_preset(), 1000, 2000, 10000, smoke)
    traffic = (UniformAggressorTraffic(burst_flits=64),)
    return EnginePlan("cycle", _seeded("cycle_cong_burst", seed, [
        (variant, congestion_scenario(base, variant, traffic=traffic))
        for variant in ("baseline", "stash100")
    ]))


def _sparse(seed: int, smoke: bool, scratch: Path) -> EnginePlan:
    base = _windows(small_preset(), 5000, 50000, 30000, smoke)
    spec = reliability_scenario(
        base, "stash100", traffic=(UniformTraffic(rate=0.01),)
    )
    return EnginePlan("cycle", _seeded("cycle_sparse", seed, [("stash100", spec)]))


def _flow_mid(seed: int, smoke: bool, scratch: Path) -> EnginePlan:
    base = small_preset()
    if smoke:
        shape = replace(base.dragonfly, p=2, a=4, h=2)
    else:
        # 1056 nodes / 264 switches: p + (a - 1) + h = 15 of 16 ports
        shape = replace(base.dragonfly, p=4, a=8, h=4)
        base = base.with_(
            switch=replace(base.switch, num_ports=16, rows=4, cols=4)
        )
    base = base.with_(dragonfly=shape)
    spec = reliability_scenario(
        base, "stash25", traffic=(UniformTraffic(rate=0.7),)
    )
    return EnginePlan("flow", _seeded("flow_mid", seed, [("stash25", spec)]))


# ----------------------------------------------------------------------
# the campaign workload
# ----------------------------------------------------------------------

_VARIANTS = ("baseline", "stash100", "stash50", "stash25")
#: 0.04 ... 0.92
_LOADS = tuple(round(0.04 * step, 2) for step in range(1, 24))


def campaign_text(seed: int, smoke: bool) -> str:
    """The campaign file the workload parses: 4 variants x 23 loads x 3
    seeds = 276 flow points (smoke: 4 x 3 x 1 = 12)."""
    loads = _LOADS[::8] if smoke else _LOADS
    seeds = [seed] if smoke else [seed, seed + 1, seed + 2]
    variants = ", ".join(f'"{v}"' for v in _VARIANTS)
    return (
        "[campaign]\n"
        'name = "bench-grid"\n'
        'sweep = "fig5"\n'
        'preset = "tiny"\n'
        'engine = "flow"\n'
        f"seeds = {seeds}\n"
        "\n[axes]\n"
        f"variants = [{variants}]\n"
        f"loads = {list(loads)}\n"
    )


class CampaignPlan:
    """``run_campaign`` into a fresh store (cold), then reruns against
    the filled store (warm)."""

    def __init__(self, text: str, scratch: Path) -> None:
        self.text = text
        self.campaign: Campaign = parse_campaign_text(text, "toml")
        self.scratch = scratch
        scratch.mkdir(parents=True, exist_ok=True)
        self.expanded = expand_campaign(self.campaign)
        self.points = [
            (repr(point.key), point.spec) for point in self.expanded
        ]
        self._reps = 0
        self.store: ResultStore | None = None

    def run(self, tracer: Tracer | None = None) -> Rep:
        """The cold run; the filled store stays for :meth:`warm`."""
        if self.store is not None:
            shutil.rmtree(self.store.root)
        self._reps += 1
        self.store = store = ResultStore(self.scratch / f"store-{self._reps}")
        t0 = time.perf_counter()
        with span(tracer, "service.run_campaign"):
            summary = run_campaign(self.campaign, store)
        seconds = time.perf_counter() - t0
        failures = []
        if summary.computed != len(self.expanded) or summary.corrupt:
            failures.append(
                f"cold run computed {summary.computed} of "
                f"{len(self.expanded)} points, {summary.corrupt} corrupt"
            )
        return Rep(seconds, [], failures, compute_seconds=summary.compute_seconds)

    def verify(self, rep: Rep) -> None:
        """Read every point back from the store (body-hash verified)."""
        rep.results, problems = self._load_all()
        rep.failures.extend(problems)

    def _load_all(self) -> tuple[list[EngineResult | None], list[str]]:
        assert self.store is not None
        results: list[EngineResult | None] = []
        failures = []
        for (point, _spec), expanded in zip(self.points, self.expanded):
            try:
                entry = self.store.load(expanded.store_key())
            except CorruptEntryError as exc:
                entry = None
                failures.append(f"{point}: {exc}")
            else:
                if entry is None:
                    failures.append(f"{point}: no store entry")
            results.append(entry.result if entry is not None else None)
        return results, failures + _check_all(self.points, results)

    def warm(
        self, reruns: int, tracer: Tracer | None = None
    ) -> tuple[list[float], float]:
        """Rerun against the filled store: (seconds per rerun, hit ratio)."""
        assert self.store is not None
        seconds = []
        hits = points = 0
        for _ in range(reruns):
            t0 = time.perf_counter()
            with span(tracer, "service.run_campaign"):
                summary = run_campaign(self.campaign, self.store)
            seconds.append(time.perf_counter() - t0)
            hits += summary.hits
            points += summary.shard_points
        return seconds, hits / points if points else 0.0

    def verify_warm(self, cold: Rep, hit_ratio: float) -> list[str]:
        """Every rerun point must have hit, and the store must still
        read back equal to the cold run."""
        failures = []
        if hit_ratio != 1.0:
            failures.append(f"warm reruns hit ratio {hit_ratio:.4f}, not 1")
        results, problems = self._load_all()
        if results != cold.results:
            failures.append("warm store contents differ from the cold run")
        return failures + problems

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def _campaign_grid(seed: int, smoke: bool, scratch: Path) -> CampaignPlan:
    return CampaignPlan(campaign_text(seed, smoke), scratch)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    #: one line, copied into BENCHMARK.json
    why: str
    #: "cycle", "flow" or "campaign": which ledger sections apply
    kind: str
    prepare: Callable[[int, bool, Path], Any]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "cycle_rel_mid",
        "Dense mid-load on the cycle engine (tiny preset, uniform 0.5, "
        "baseline + stash100): all five switch stages busy, every stash100 "
        "packet takes the S-VC copy path; datapath gains must show here.",
        "cycle", _rel_mid,
    ),
    Workload(
        "cycle_cong_burst",
        "Same switches used differently: ECN marking and window cuts, "
        "closed-loop 64-flit bursts, stash-on-congestion and R-VC retrieval; "
        "a datapath gain that costs the ECN/retrieval path shows here.",
        "cycle", _cong_burst,
    ),
    Workload(
        "cycle_sparse",
        "108 nodes at load 0.01: almost no flits, so the event kernel "
        "(wake heap, idle skip) and per-cycle endpoint stepping do the work; "
        "kernel changes show here and datapath changes must not.",
        "cycle", _sparse,
    ),
    Workload(
        "flow_mid",
        "One 1056-node water-filling + damped fixed point on the flow engine "
        "(stash25, uniform 0.7), bypassing the cycle engine: the affordable "
        "proxy for the paper-preset point; vectorised max-min shows here.",
        "flow", _flow_mid,
    ),
    Workload(
        "campaign_grid",
        "276 small flow solves through run_campaign into a fresh store, then "
        "cache-hit reruns: graph build per point dominates, so array overhead "
        "on tiny graphs shows, plus expand/persist/verify-on-load.",
        "campaign", _campaign_grid,
    ),
)}

"""The campaign executor: cached, batched, sharded, resumable.

:func:`run_campaign` is the "experiment service" loop.  Given a
:class:`~repro.campaign.spec.Campaign` and a
:class:`~repro.campaign.store.ResultStore`, it

1. expands the campaign to its ordered point list and keeps this
   shard's slice (``index % n == i``);
2. classifies every point against the store — a verified entry is a
   **hit** and is never recomputed; a missing entry is a **miss**; a
   corrupt/truncated entry is counted and recomputed over;
3. admits the misses to the ``--jobs`` process-pool executor in bounded
   **batches** (:func:`run_points`: seeds an engine does not read share
   one solve), persisting each result the moment its solve completes —
   so a crash or ``kill -9`` at any instant loses at most the points
   in flight, and the next invocation resumes from the store;
4. streams progress to an optional line sink (the CLI points it at
   stderr) and returns the run's counts as a :class:`CampaignRunSummary`.

Because results are persisted keyed by content (spec hash + engine +
schema) and entry bytes are canonical, the store after *any* execution
history — resumed, sharded then merged, re-run with an edited grid —
is byte-identical to the store a single uninterrupted run writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.campaign.spec import (
    Campaign,
    CampaignPoint,
    expand_campaign,
    shard_points,
)
from repro.campaign.store import CorruptEntryError, ResultStore
from repro.engine.base import EngineResult, get_engine
from repro.engine.parallel import RunOutcome, run_specs

__all__ = ["CampaignRunSummary", "point_meta", "run_campaign", "run_points"]

ProgressSink = Callable[[str], None]
PointProgress = Callable[[int, int, CampaignPoint, RunOutcome], None]


@dataclass(frozen=True)
class CampaignRunSummary:
    """What one :func:`run_campaign` invocation did.  Every field but
    ``compute_seconds`` (Σ solve seconds: a point that reused another's
    solve adds none) is deterministic, and :meth:`format` leaves that
    one out, so receipts diff cleanly across reruns."""

    name: str
    sweep: str
    engine: str
    preset: str
    total_points: int
    shard: tuple[int, int]
    shard_points: int
    hits: int
    computed: int
    corrupt: int
    batches: int
    compute_seconds: float

    @property
    def hit_rate(self) -> float:
        """Cache hits over this shard's points (1.0 when nothing ran)."""
        if self.shard_points == 0:
            return 1.0
        return self.hits / self.shard_points

    def format(self) -> str:
        """The run receipt the CLI prints (stable bytes; the one
        nondeterministic field, compute seconds, is the caller's to
        print on stderr)."""
        i, n = self.shard
        lines = [
            f"campaign {self.name} (sweep {self.sweep}, engine "
            f"{self.engine}, preset {self.preset})",
            f"  points    {self.total_points} total, shard {i}/{n} -> "
            f"{self.shard_points} this run",
            f"  hits      {self.hits}",
            f"  computed  {self.computed}",
            f"  corrupt   {self.corrupt} (recomputed, not served)",
            f"  batches   {self.batches}",
            f"  cache     {self.hit_rate:.1%}",
        ]
        return "\n".join(lines)


def point_meta(point: CampaignPoint) -> dict[str, Any]:
    """The provenance stored beside a result.

    Only *point-intrinsic* facts — never the campaign name, host, or
    time — so that every campaign (and every rerun) producing this
    point writes byte-identical entry files.
    """
    return {
        "key": list(point.key),
        "label": point.label,
        "seed": point.derived_seed,
        "sweep_seed": point.sweep_seed,
    }


def run_points(
    points: list[CampaignPoint],
    jobs: int = 1,
    progress: PointProgress | None = None,
) -> list[tuple[CampaignPoint, EngineResult]]:
    """Run every point on its engine; returns ``(point, result)`` rows
    in point order — the rows :func:`repro.analysis.campaign.campaign_rows`
    reads back from a store.

    Points whose engine does not read the seed (``Engine.reads_seed``)
    and whose specs are equal once it is cleared share one ``run_specs``
    solve, so the ``jobs`` workers see only distinct problems; results
    are identical for any ``jobs``.  ``progress(done, total, point,
    outcome)`` is called here for every point as its solve completes; a
    point that reused another's solve sees that one's key in
    ``outcome.key``.
    """
    groups: dict[Any, list[CampaignPoint]] = {}
    for i, point in enumerate(points):
        solve: Any = i  # a point whose engine reads its seed solves alone
        if not get_engine(point.engine).reads_seed:
            solve = (point.engine, point.spec.with_seed(None).spec_hash())
        groups.setdefault(solve, []).append(point)
    members = {group[0].key: group for group in groups.values()}
    results: dict[tuple, EngineResult] = {}

    def share(_solved: int, _solves: int, outcome: RunOutcome) -> None:
        for point in members[outcome.key]:
            results[point.key] = outcome.value
            if progress is not None:
                progress(len(results), len(points), point, outcome)

    solves = [group[0].run_spec() for group in groups.values()]
    run_specs(solves, jobs=jobs, progress=share)
    return [(point, results[point.key]) for point in points]


def _batched(items: list, size: int | None) -> list[list]:
    if size is None or size >= len(items):
        return [items] if items else []
    return [items[i : i + size] for i in range(0, len(items), size)]


def run_campaign(
    campaign: Campaign,
    store: ResultStore,
    jobs: int = 1,
    shard: tuple[int, int] | None = None,
    batch: int | None = None,
    progress: ProgressSink | None = None,
) -> CampaignRunSummary:
    """Execute (the missing points of) a campaign shard into the store.

    ``jobs`` is the process-pool width per batch (the ``--jobs``
    executor contract: results are identical for any value).  ``batch``
    bounds how many misses are admitted to the pool at once (``None`` =
    all of them); each completed point is persisted immediately either
    way, so batching only bounds in-flight work, not crash exposure.
    """
    say = progress if progress is not None else (lambda line: None)

    all_points = expand_campaign(campaign)
    points = shard_points(all_points, shard)
    shard_desc = shard if shard is not None else (0, 1)

    # -- classify against the store -----------------------------------
    # one spec hash per point per run, and hit lines only for a sink
    keys = {point.index: point.store_key() for point in points}
    hits: list[CampaignPoint] = []
    misses: list[CampaignPoint] = []
    corrupt = 0
    for point in points:
        try:
            entry = store.load(keys[point.index])
        except CorruptEntryError as exc:
            corrupt += 1
            say(f"[{campaign.name}] corrupt entry for {point.key!r}: {exc}")
            entry = None
        if entry is None:
            misses.append(point)
        else:
            hits.append(point)
    if progress is not None:
        for done, point in enumerate(hits, start=1):
            progress(
                f"[{campaign.name} hit {done}/{len(hits)}] {point.key!r} "
                f"({keys[point.index][0][:12]})"
            )

    # -- admit misses in batches --------------------------------------
    batches = _batched(misses, batch)
    computed = 0
    compute_seconds = 0.0
    total_misses = len(misses)
    for batch_no, admitted in enumerate(batches, start=1):
        say(
            f"[{campaign.name}] batch {batch_no}/{len(batches)}: "
            f"admitting {len(admitted)} point(s) at jobs={jobs}"
        )
        offset = computed

        def persist(done: int, total: int, point: CampaignPoint,
                    outcome: RunOutcome) -> None:
            # called in the parent process for each point as its solve
            # completes — persisting here is what makes a SIGKILL lose
            # only the points still in flight
            nonlocal compute_seconds
            result = outcome.value
            assert isinstance(result, EngineResult)
            store.put(keys[point.index], result, point_meta(point))
            timing = f"reuses {outcome.key!r}"
            if outcome.key == point.key:
                compute_seconds += outcome.wall_seconds
                timing = f"{outcome.wall_seconds:.1f}s"
            say(
                f"[{campaign.name} run {offset + done}/{total_misses}] "
                f"{point.key!r} ({timing})"
            )

        computed += len(run_points(admitted, jobs=jobs, progress=persist))

    return CampaignRunSummary(
        name=campaign.name,
        sweep=campaign.sweep,
        engine=campaign.engine,
        preset=campaign.preset,
        total_points=len(all_points),
        shard=shard_desc,
        shard_points=len(points),
        hits=len(hits),
        computed=computed,
        corrupt=corrupt,
        batches=len(batches),
        compute_seconds=compute_seconds,
    )

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
   **batches**, persisting each result the moment its point completes —
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
from repro.engine.base import EngineResult
from repro.engine.parallel import RunOutcome, run_specs

__all__ = ["CampaignRunSummary", "point_meta", "run_campaign", "run_points"]

ProgressSink = Callable[[str], None]


@dataclass(frozen=True)
class CampaignRunSummary:
    """What one :func:`run_campaign` invocation did.  Every field but
    ``compute_seconds`` is deterministic, and :meth:`format` leaves that
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
    progress: Callable[[int, int, RunOutcome], None] | None = None,
) -> list[tuple[CampaignPoint, EngineResult]]:
    """Run every point on its engine; returns ``(point, result)`` rows
    in point order — the rows :func:`repro.analysis.campaign.campaign_rows`
    reads back from a store.

    Deterministic for any ``jobs`` value on both engines: the cycle
    engine via the points' derived seeds, the flow engine because it is
    a pure function of the spec.  ``progress`` is the ``run_specs``
    callback, called in this process as each point completes.
    """
    outcomes = run_specs(
        [point.run_spec() for point in points], jobs=jobs, progress=progress
    )
    return [(point, outcome.value) for point, outcome in zip(points, outcomes)]


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
    hits: list[CampaignPoint] = []
    misses: list[CampaignPoint] = []
    corrupt = 0
    for point in points:
        try:
            entry = store.load(point.store_key())
        except CorruptEntryError as exc:
            corrupt += 1
            say(f"[{campaign.name}] corrupt entry for {point.key!r}: {exc}")
            entry = None
        if entry is None:
            misses.append(point)
        else:
            hits.append(point)
    for done, point in enumerate(hits, start=1):
        say(
            f"[{campaign.name} hit {done}/{len(hits)}] {point.key!r} "
            f"({point.spec.spec_hash()[:12]})"
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
        by_key = {point.key: point for point in admitted}
        offset = computed

        def persist(done: int, total: int, outcome: RunOutcome) -> None:
            # called in the parent process as each point completes —
            # persisting here is what makes a SIGKILL lose only the
            # points still in flight
            nonlocal compute_seconds
            point = by_key[outcome.key]
            result = outcome.value
            assert isinstance(result, EngineResult)
            store.put(point.store_key(), result, point_meta(point))
            compute_seconds += outcome.wall_seconds
            say(
                f"[{campaign.name} run {offset + done}/{total_misses}] "
                f"{outcome.key!r} ({outcome.wall_seconds:.1f}s)"
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

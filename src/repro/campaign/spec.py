"""Declarative sweep campaigns: the campaign file model and expansion.

A **campaign** is a parameter study written down as data — which sweep
family (any key of :data:`SWEEPS`: every experiment that simulates),
which preset and engine, which axis values (loads, burst sizes,
variants), and which experiment seeds — loaded from a TOML or JSON file (or built programmatically) and
expanded into a :class:`repro.scenario.ScenarioSpec` grid.  The
expansion is the psim ``ConfigSweeper`` idiom recast onto this repo's
scenario layer: the campaign file is the single source of truth, and
every execution path — serial, ``--jobs N``, ``--shard i/N``, resumed
after a kill — derives the same ordered point list from it.

Determinism contract: :func:`expand_sweep` is the one expansion —
``repro-experiments <sweep>`` calls it with the CLI's preset,
quick grid and ``--seed``, :func:`expand_campaign` with the campaign
file's — so expansion order, point labels and per-point derived seeds
cannot differ between the two, a campaign's cached results *are* the
runner's, and a point's cache key (:meth:`CampaignPoint.store_key`) is
stable across processes, hosts, and reruns.

File schema (see docs/CAMPAIGNS.md for the full reference)::

    [campaign]
    name = "fig5-paper-flow"
    sweep = "fig5"            # any SWEEPS key (docs/CAMPAIGNS.md)
    preset = "paper"          # tiny | small | paper
    engine = "flow"           # cycle | flow (where the sweep allows)
    seeds = [1]               # one grid per experiment seed
    quick = false             # optional: runner --quick windows

    [axes]                    # sweep-specific; defaults = full grid
    variants = ["baseline", "stash100", "stash50", "stash25"]
    loads = [0.1, 0.3, 0.5, 0.7, 0.8, 0.9]

    [windows]                 # optional SimParams overrides
    warmup_cycles = 200
    measure_cycles = 500
    drain_cycles = 1000
"""

from __future__ import annotations

import hashlib
import json
import tomllib
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, NamedTuple, Sequence

from repro.engine.base import ENGINE_NAMES
from repro.engine.config import NetworkConfig
from repro.engine.parallel import RunSpec, derive_run_seed
from repro.experiments.common import (
    PRESETS,
    preset_by_name,
    quicken,
    scenario_point,
)
from repro.scenario import ScenarioSpec

__all__ = [
    "Campaign",
    "CampaignError",
    "CampaignPoint",
    "RESULT_SCHEMA_VERSION",
    "SWEEPS",
    "check_engine",
    "expand_campaign",
    "expand_sweep",
    "load_campaign",
    "parse_campaign_text",
    "shard_points",
]

#: version of the persisted result payload (part of every cache key);
#: bump when :class:`repro.engine.base.EngineResult` changes shape, or
#: when an engine's numbers for a fixed spec change, so stale stores
#: read as misses instead of mis-parsing or being served as current.
#: v2: the flow engine's water-filling runs to completion (stash-bound
#: points moved; docs/FASTPATH.md)
RESULT_SCHEMA_VERSION = 2

class SweepFamily(NamedTuple):
    """Where a sweep family lives and which engines can run it."""

    #: experiment module exposing ``<sweep>_entries(base, axes)`` (the
    #: grid) and ``format_<sweep>(rows)`` (the figure's table)
    module: str
    #: engines whose envelope covers the family's scenarios; trace
    #: replays, transients and per-port probes are cycle-only
    #: (docs/FASTPATH.md)
    engines: tuple[str, ...] = ("cycle",)


#: every experiment that simulates, in the runner's ``all`` order
SWEEPS: dict[str, SweepFamily] = {
    "fig5": SweepFamily("repro.experiments.fig5", ENGINE_NAMES),
    "fig6": SweepFamily("repro.experiments.fig6"),
    "fig7": SweepFamily("repro.experiments.fig7"),
    "fig8": SweepFamily("repro.experiments.fig8"),
    "fig9": SweepFamily("repro.experiments.fig9", ENGINE_NAMES),
    "ablation": SweepFamily("repro.experiments.ablations"),
    "occupancy": SweepFamily("repro.experiments.occupancy"),
    "fattree": SweepFamily("repro.experiments.fattree_exp", ENGINE_NAMES),
}

#: SimParams fields a campaign's [windows] section may override
WINDOW_FIELDS = (
    "warmup_cycles",
    "measure_cycles",
    "drain_cycles",
    "sample_period",
)


class CampaignError(ValueError):
    """A campaign file or campaign value failed validation."""


@dataclass(frozen=True)
class Campaign:
    """One declarative sweep campaign (the parsed campaign file).

    ``axes`` holds the sweep-specific grid axes (validated by the sweep
    module's ``<sweep>_entries``); ``windows`` optionally overrides the
    preset's measurement windows; ``quick`` applies the runner's
    ``--quick`` halving before the window overrides.
    """

    name: str
    sweep: str
    preset: str = "tiny"
    engine: str = "cycle"
    seeds: tuple[int, ...] = (1,)
    quick: bool = False
    axes: dict[str, Any] = field(default_factory=dict)
    windows: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise CampaignError("campaign.name must be a non-empty string")
        if self.sweep not in SWEEPS:
            raise CampaignError(
                f"unknown sweep {self.sweep!r}; choose from {sorted(SWEEPS)}"
            )
        if self.preset not in PRESETS:
            raise CampaignError(
                f"unknown preset {self.preset!r}; choose from {tuple(PRESETS)}"
            )
        if self.engine not in ENGINE_NAMES:
            raise CampaignError(
                f"unknown engine {self.engine!r}; choose from {ENGINE_NAMES}"
            )
        if not self.seeds or not all(
            isinstance(s, int) and not isinstance(s, bool) for s in self.seeds
        ):
            raise CampaignError("campaign.seeds must be a non-empty int list")
        if not isinstance(self.quick, bool):
            raise CampaignError(
                f"campaign.quick must be true or false, not {self.quick!r}"
            )
        for key in self.windows:
            if key not in WINDOW_FIELDS:
                raise CampaignError(
                    f"unknown [windows] key {key!r}; choose from {WINDOW_FIELDS}"
                )

    # -- identity ------------------------------------------------------

    def canonical(self) -> dict[str, Any]:
        """The campaign as plain sorted-key data (hash/provenance form)."""
        return {
            "name": self.name,
            "sweep": self.sweep,
            "preset": self.preset,
            "engine": self.engine,
            "seeds": list(self.seeds),
            "quick": self.quick,
            "axes": {k: self.axes[k] for k in sorted(self.axes)},
            "windows": {k: self.windows[k] for k in sorted(self.windows)},
        }

    def campaign_hash(self) -> str:
        """Stable sha256 of the campaign definition (provenance only —
        cache keys depend on the *points*, never on this hash, so two
        campaigns sharing points share cache entries)."""
        canon = json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    # -- materialisation ----------------------------------------------

    def base_config(self) -> NetworkConfig:
        """The preset after ``quick`` scaling and window overrides."""
        base = preset_by_name(self.preset)
        if self.quick:
            base = quicken(base, 0.5)
        if self.windows:
            base = base.with_(sim=replace(base.sim, **self.windows))
        return base


@dataclass(frozen=True)
class CampaignPoint:
    """One expanded experiment point of a campaign.

    ``index`` is the point's position in expansion order — the shard
    partitioning key (``index % nshards``).  ``spec`` already carries
    the per-point derived seed, so ``spec.spec_hash()`` is the full
    content identity of the computation; :meth:`store_key` appends the
    engine and result-schema version to form the cache key.
    """

    index: int
    sweep_seed: int
    key: tuple
    label: str
    spec: ScenarioSpec
    engine: str

    @property
    def derived_seed(self) -> int | None:
        """The seed the executor threads into the engine run."""
        return self.spec.seed

    def store_key(self) -> tuple[str, str, int]:
        """The content-addressed cache key: (spec hash, engine, schema)."""
        return (self.spec.spec_hash(), self.engine, RESULT_SCHEMA_VERSION)

    def run_spec(self) -> RunSpec:
        """Lower to an executor spec — the one place an engine run is
        bound to :func:`~repro.experiments.common.scenario_point`."""
        return RunSpec(
            key=self.key,
            fn=scenario_point,
            args=(self.spec.with_seed(None), self.engine),
            seed=self.derived_seed,
        )


def check_engine(sweep: str, engine: str) -> None:
    """Reject an engine outside the ``sweep`` family's envelope."""
    if engine not in SWEEPS[sweep].engines:
        runs = [n for n, family in SWEEPS.items() if engine in family.engines]
        raise ValueError(
            f"sweep {sweep!r} is cycle-only: it measures transients or "
            "per-packet behaviour, which the steady-state fluid fastpath "
            "cannot represent (a time-stepped fluid mode would be needed; "
            f"see docs/FASTPATH.md); engine {engine!r} runs "
            f"{', '.join(runs)}"
        )


def expand_sweep(
    sweep: str,
    base: NetworkConfig,
    axes: Mapping[str, Any],
    seeds: Sequence[int],
    engine: str,
) -> list[CampaignPoint]:
    """Expand one sweep family over ``base`` into its ordered, fully
    seeded point list: the family's ``<sweep>_entries`` builder
    validates and coerces ``axes`` (omitted axes = the full default
    grid), then every entry becomes one point per experiment seed,
    seed-major, carrying ``derive_run_seed(seed, entry.label)`` — a
    function of the experiment seed and the label alone, so a point
    keeps its seed (and cache key) however the grid around it changes.
    An engine outside the family's envelope is a :class:`ValueError`
    here, before any point runs.
    """
    import importlib

    check_engine(sweep, engine)
    module = importlib.import_module(SWEEPS[sweep].module)
    points: list[CampaignPoint] = []
    for sweep_seed in seeds:
        for entry in getattr(module, f"{sweep}_entries")(base, axes):
            derived = derive_run_seed(sweep_seed, entry.label)
            points.append(
                CampaignPoint(
                    index=len(points),
                    sweep_seed=sweep_seed,
                    key=(sweep_seed,) + tuple(entry.key),
                    label=entry.label,
                    spec=entry.spec.with_seed(derived),
                    engine=engine,
                )
            )
    return points


def expand_campaign(campaign: Campaign) -> list[CampaignPoint]:
    """Expand a campaign into its ordered, fully seeded point list.

    Order is (seed-major, sweep-entry order) and depends only on the
    campaign definition — never on caches, shards, or worker counts —
    so point indices are a stable partitioning key for ``--shard``.
    """
    try:
        return expand_sweep(
            campaign.sweep,
            campaign.base_config(),
            campaign.axes,
            campaign.seeds,
            campaign.engine,
        )
    except ValueError as exc:
        # a bad axis name, variant or window value is only seen here;
        # it is still the campaign file that is wrong
        raise CampaignError(str(exc)) from exc


def shard_points(
    points: list[CampaignPoint], shard: tuple[int, int] | None
) -> list[CampaignPoint]:
    """This shard's slice: points whose ``index % n == i``.

    Round-robin by expansion index keeps per-shard cost balanced when
    cost varies monotonically along an axis (high loads are slower), and
    makes shards disjoint and jointly exhaustive by construction.
    """
    if shard is None:
        return points
    i, n = shard
    if n < 1 or not 0 <= i < n:
        raise CampaignError(f"invalid shard {i}/{n}: need 0 <= i < n")
    return [p for p in points if p.index % n == i]


# ----------------------------------------------------------------------
# campaign file parsing
# ----------------------------------------------------------------------


def parse_campaign_text(text: str, fmt: str = "toml") -> Campaign:
    """Parse campaign file contents (``fmt``: ``"toml"`` or ``"json"``)."""
    if fmt == "json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CampaignError(f"invalid campaign JSON: {exc}") from exc
    elif fmt == "toml":
        data = _parse_toml(text)
    else:
        raise CampaignError(f"unknown campaign format {fmt!r}")
    return _campaign_from_data(data)


def load_campaign(path: str) -> Campaign:
    """Load a campaign from a ``.toml`` or ``.json`` file."""
    fmt = "json" if str(path).endswith(".json") else "toml"
    with open(path, "r", encoding="utf-8") as fh:
        return parse_campaign_text(fh.read(), fmt)


def _campaign_from_data(data: Any) -> Campaign:
    if not isinstance(data, dict):
        raise CampaignError("campaign file must be a table/object at top level")
    unknown = set(data) - {"campaign", "axes", "windows"}
    if unknown:
        raise CampaignError(
            f"unknown campaign section(s) {sorted(unknown)}; expected "
            "[campaign], [axes], [windows]"
        )
    head = data.get("campaign")
    if not isinstance(head, dict):
        raise CampaignError("campaign file needs a [campaign] section")
    known = {"name", "sweep", "preset", "engine", "seeds", "quick"}
    bad = set(head) - known
    if bad:
        raise CampaignError(
            f"unknown [campaign] key(s) {sorted(bad)}; expected {sorted(known)}"
        )
    for req in ("name", "sweep"):
        if req not in head:
            raise CampaignError(f"[campaign] section is missing {req!r}")
    seeds = head.get("seeds", [1])
    if not isinstance(seeds, list):
        raise CampaignError("[campaign] seeds must be an array of ints")
    axes = data.get("axes", {})
    if not isinstance(axes, dict):
        raise CampaignError("[axes] must be a table")
    windows = data.get("windows", {})
    if not isinstance(windows, dict):
        raise CampaignError("[windows] must be a table")
    for key, value in windows.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise CampaignError(f"[windows] {key} must be an integer")
    return Campaign(
        name=head["name"],
        sweep=head["sweep"],
        preset=head.get("preset", "tiny"),
        engine=head.get("engine", "cycle"),
        seeds=tuple(seeds),
        quick=head.get("quick", False),
        axes=dict(axes),
        windows=dict(windows),
    )


def _parse_toml(text: str) -> dict[str, Any]:
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise CampaignError(f"invalid campaign TOML: {exc}") from exc

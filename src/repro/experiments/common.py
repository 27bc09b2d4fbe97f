"""Shared experiment plumbing: presets, window scaling, sweep entries.

The paper compares four networks in the reliability study (Section VI-A)
— baseline (no stashing, unlimited outstanding packets) and stashing at
100 % / 50 % / 25 % capacity — and three in the congestion study
(Section VI-B): ECN baseline, ECN + stashing at 100 % and 50 %.  The
variant tables live in :mod:`repro.scenario.spec`, so both engines
resolve them identically; a single network of either study is
``build_network(reliability_scenario(base, variant).with_seed(seed))``
(or ``congestion_scenario``), the one construction path.

Every experiment that simulates builds a list of :class:`SweepEntry` —
a stable key, the seed-derivation label, and an engine-agnostic
:class:`~repro.scenario.ScenarioSpec`.  Entries become seeded
:class:`~repro.campaign.spec.CampaignPoint` values in
:func:`repro.campaign.spec.expand_sweep` and run through
:func:`repro.campaign.service.run_points` — the one sweep path the
runner and campaign files share (docs/ARCHITECTURE.md §8).  Labels are
byte-compatible with the pre-harness scripts, so derived seeds (and
therefore all cycle-engine output) are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping

from repro.engine.base import get_engine
from repro.engine.config import (
    NetworkConfig,
    paper_preset,
    small_preset,
    tiny_preset,
)
from repro.engine.parallel import Timed
from repro.scenario.spec import (
    CONGESTION_VARIANTS,
    RELIABILITY_VARIANTS,
    ScenarioSpec,
)

__all__ = [
    "CONGESTION_VARIANTS",
    "PRESETS",
    "RELIABILITY_VARIANTS",
    "SweepEntry",
    "check_axes",
    "preset_by_name",
    "quicken",
    "scenario_point",
]


#: preset name -> builder: the one list of network scales (the runner's
#: ``--preset`` choices and a campaign file's ``preset`` both read it)
PRESETS = {"tiny": tiny_preset, "small": small_preset, "paper": paper_preset}


def preset_by_name(name: str) -> NetworkConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {tuple(PRESETS)}")
    return PRESETS[name]()


def quicken(config: NetworkConfig, factor: float) -> NetworkConfig:
    """Scale measurement windows by ``factor`` (<1 shortens runs; the
    runner's and a campaign file's ``quick`` mode use 0.5)."""
    sim = config.sim
    return config.with_(
        sim=replace(
            sim,
            warmup_cycles=max(200, int(sim.warmup_cycles * factor)),
            measure_cycles=max(500, int(sim.measure_cycles * factor)),
            drain_cycles=max(1000, int(sim.drain_cycles * factor)),
        )
    )


# ----------------------------------------------------------------------
# sweep entries (seeded and run by repro.campaign)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepEntry:
    """One sweep point: a stable result key, the seed-derivation label
    (must match the historical per-experiment label format exactly —
    seeds, and therefore results, depend on it), and the scenario."""

    key: Any
    label: str
    spec: ScenarioSpec


def scenario_point(
    spec: ScenarioSpec, engine: str = "cycle", seed: int | None = None
) -> Timed:
    """Run one scenario on the named engine (module-level, so sweep
    specs pickle by reference into pool workers)."""
    result = get_engine(engine).run(spec.with_seed(seed))
    return Timed(result, result.cycles)


def check_axes(
    sweep: str,
    axes: Mapping[str, Any],
    known: Iterable[str],
    scalars: Iterable[str] = (),
) -> None:
    """Reject axis names the ``sweep`` family does not take — a typo in
    a campaign file or a caller must never silently shrink a grid — and
    grid axes (every known axis not in ``scalars``) that are not lists:
    a string would otherwise be swept character by character."""
    accepted = sorted(known)
    unknown = sorted(set(axes) - set(accepted))
    if unknown:
        raise ValueError(
            f"{sweep} campaigns accept axes {accepted}; unknown {unknown}"
        )
    for name in sorted(set(axes) - set(scalars)):
        if not isinstance(axes[name], (list, tuple)):
            raise ValueError(
                f"{sweep} axis {name!r} must be an array, not {axes[name]!r}"
            )

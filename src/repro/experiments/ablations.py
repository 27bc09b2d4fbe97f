"""Ablations of the stashing switch's design choices (DESIGN.md AB1/AB2)
plus the Little's-law cross-check of Section VI-A (A1).

* **speedup** — the paper adds a 1.3x internal overclock to cover the
  retrieval path's extra row-bus demand (Section III-A).  Sweep the
  speedup under reliability stashing at high load to show how much the
  margin buys.
* **placement** — join-shortest-queue stash placement vs uniform random
  (Section III-A's choice vs the naive alternative), measured by stash
  stall counts and latency at high load.
* **littles_law** — predicted vs simulated saturation for the
  capacity-restricted network.

The speedup and placement sweeps express their stash overrides directly
in the config and run as plain-variant scenarios; they probe the switch
microarchitecture, so they are cycle-only.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.littles_law import (
    stash_limited_injection_rate,
    stash_per_endpoint_flits,
)
from repro.campaign.service import run_points
from repro.campaign.spec import seed_points
from repro.engine.config import NetworkConfig, ReliabilityParams
from repro.experiments.common import SweepEntry, preset_by_name
from repro.scenario import ScenarioSpec, UniformTraffic, reliability_scenario

__all__ = [
    "format_ablations",
    "run_littles_law_check",
    "run_placement_ablation",
    "run_speedup_ablation",
]


def _reliability_config(
    base: NetworkConfig, **stash_overrides
) -> NetworkConfig:
    """Reliability stashing with explicit stash parameter overrides,
    baked into the config (a plain-variant scenario carries it as-is)."""
    return base.with_(
        stash=replace(base.stash, enabled=True, **stash_overrides),
        reliability=ReliabilityParams(enabled=True),
    )


def _run_cycle(entries: list[SweepEntry], seed: int, jobs: int, progress):
    """Seed and run ablation entries on the cycle engine — the same
    entries → points → ``run_points`` route the figure sweeps take."""
    return run_points(
        seed_points(entries, (seed,), "cycle"), jobs=jobs, progress=progress
    )


def run_speedup_ablation(
    base: NetworkConfig | None = None,
    speedups: tuple[float, ...] = (1.0, 1.15, 1.3, 1.5),
    load: float = 0.7,
    seed: int = 1,
    jobs: int = 1,
    progress=None,
) -> list[tuple[float, float, float]]:
    """Returns [(speedup, accepted load, avg latency)] with reliability
    stashing at full capacity."""
    if base is None:
        base = preset_by_name("tiny")
    entries = [
        SweepEntry(
            key=("speedup", s),
            label=f"ablation:speedup:{s!r}",
            spec=ScenarioSpec(
                config=_reliability_config(
                    base.with_(switch=replace(base.switch, speedup=s))
                ),
                traffic=(UniformTraffic(rate=load),),
            ),
        )
        for s in speedups
    ]
    return [
        (point.key[2], r.accepted_load, r.avg_latency)
        for point, r in _run_cycle(entries, seed, jobs, progress)
    ]


def run_placement_ablation(
    base: NetworkConfig | None = None,
    load: float = 0.7,
    capacity_scale: float = 0.5,
    seed: int = 1,
    jobs: int = 1,
    progress=None,
) -> dict[str, dict[str, float]]:
    """JSQ vs random stash placement under reliability at reduced
    capacity (where placement balance matters most)."""
    if base is None:
        base = preset_by_name("tiny")
    entries = [
        SweepEntry(
            key=("placement", placement),
            label=f"ablation:placement:{placement}",
            spec=ScenarioSpec(
                config=_reliability_config(
                    base, capacity_scale=capacity_scale, placement=placement
                ),
                traffic=(UniformTraffic(rate=load),),
            ),
        )
        for placement in ("jsq", "random")
    ]
    return {
        point.key[2]: {
            "accepted": r.accepted_load,
            "avg_latency": r.avg_latency,
            "stash_stalls": r.extra("stash_stalls"),
        }
        for point, r in _run_cycle(entries, seed, jobs, progress)
    }


def run_littles_law_check(
    base: NetworkConfig | None = None,
    capacity_scale: float = 0.25,
    loads: tuple[float, ...] = (0.2, 0.7),
    seed: int = 1,
    jobs: int = 1,
    progress=None,
) -> dict:
    """A1: compare the Little's-law saturation bound against the simulated
    accepted throughput of the capacity-restricted network.

    Following the paper's method (Section VI-A), the round trip is
    estimated as twice the average latency *before* saturation — at the
    highest load where the network still delivers what is offered — and
    the bound is stash flits per endpoint over that round trip.
    """
    if base is None:
        base = preset_by_name("tiny")
    cfg = base.with_(stash=replace(base.stash, enabled=True,
                                   capacity_scale=capacity_scale))
    per_ep = stash_per_endpoint_flits(cfg)
    variant = "stash25" if capacity_scale == 0.25 else "stash50"

    entries = [
        SweepEntry(
            key=("littles", load),
            label=f"ablation:littles:{load!r}",
            spec=reliability_scenario(
                base, variant, traffic=(UniformTraffic(rate=load),)
            ),
        )
        for load in sorted(loads)
    ]

    best_accepted = 0.0
    rtt_estimate = None
    for _point, r in _run_cycle(entries, seed, jobs, progress):
        best_accepted = max(best_accepted, r.accepted_load)
        if r.accepted_load >= 0.9 * r.offered_load:
            rtt_estimate = 2.0 * r.avg_latency  # pre-saturation sample
    if rtt_estimate is None:
        raise RuntimeError(
            "no pre-saturation load point; add a lower load to the sweep"
        )
    predicted = stash_limited_injection_rate(per_ep, rtt_estimate)
    return {
        "stash_flits_per_endpoint": per_ep,
        "rtt_estimate_cycles": rtt_estimate,
        "predicted_saturation": predicted,
        "simulated_saturation": best_accepted,
    }


def format_ablations(
    speedup_rows: list[tuple[float, float, float]],
    placement: dict[str, dict[str, float]],
    littles: dict,
) -> str:
    lines = ["Ablations", "", "AB1 — internal speedup (reliability, high load):"]
    lines.append(f"{'speedup':>8} {'accepted':>9} {'avg lat':>8}")
    for s, acc, lat in speedup_rows:
        lines.append(f"{s:>8.2f} {acc:>9.3f} {lat:>8.1f}")
    lines.append("")
    lines.append("AB2 — stash placement policy (reduced capacity):")
    for policy, row in placement.items():
        lines.append(
            f"  {policy:<7} accepted={row['accepted']:.3f} "
            f"avg_lat={row['avg_latency']:.1f} stalls={row['stash_stalls']:.0f}"
        )
    lines.append("")
    lines.append(
        "A1 — Little's law: predicted saturation "
        f"{littles['predicted_saturation']:.2f} vs simulated "
        f"{littles['simulated_saturation']:.2f} "
        f"({littles['stash_flits_per_endpoint']:.0f} flits/endpoint, "
        f"RTT~{littles['rtt_estimate_cycles']:.0f} cyc)"
    )
    return "\n".join(lines)

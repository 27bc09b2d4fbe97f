"""Ablations of the stashing switch's design choices (DESIGN.md AB1/AB2)
plus the Little's-law cross-check of Section VI-A (A1) — one sweep,
three parts.

* **speedup** — the paper adds a 1.3x internal overclock to cover the
  retrieval path's extra row-bus demand (Section III-A).  Sweep the
  speedup under reliability stashing at high load to show how much the
  margin buys.
* **placement** — join-shortest-queue stash placement vs uniform random
  (Section III-A's choice vs the naive alternative) at half capacity,
  where placement balance matters most, measured by stash stall counts
  and latency at high load.
* **littles** — predicted vs simulated saturation for a
  capacity-restricted network.

The speedup and placement parts express their stash overrides directly
in the config and run as plain-variant scenarios; all three probe the
switch microarchitecture, so the sweep is cycle-only.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Mapping

from repro.analysis.campaign import Rows, rows_by_variant
from repro.analysis.littles_law import (
    stash_limited_injection_rate,
    stash_per_endpoint_flits,
)
from repro.engine.config import NetworkConfig, ReliabilityParams
from repro.experiments.common import (
    RELIABILITY_VARIANTS,
    SweepEntry,
    check_axes,
)
from repro.scenario import ScenarioSpec, UniformTraffic, reliability_scenario

__all__ = ["ablation_entries", "format_ablation", "littles_law_check"]


def _reliability_config(
    base: NetworkConfig, **stash_overrides
) -> NetworkConfig:
    """Reliability stashing with explicit stash parameter overrides,
    baked into the config (a plain-variant scenario carries it as-is)."""
    return base.with_(
        stash=replace(base.stash, enabled=True, **stash_overrides),
        reliability=ReliabilityParams(enabled=True),
    )


def ablation_entries(
    base: NetworkConfig, axes: Mapping[str, Any]
) -> list[SweepEntry]:
    """The three parts' points, keyed ``(part, x)`` (``sweep =
    "ablation"`` in a campaign file; docs/CAMPAIGNS.md).

    Accepted axes: ``speedups``; ``load`` (the speedup and placement
    parts' offered load); ``variant`` — the capacity-restricted
    reliability network the Little's-law part simulates *and* takes its
    flits-per-endpoint from — and its ``littles_loads`` (at least one
    must be below saturation).
    """
    check_axes(
        "ablation", axes, ("speedups", "load", "variant", "littles_loads"),
        scalars=("load", "variant"),
    )
    load = float(axes.get("load", 0.7))
    variant = axes.get("variant", "stash25")
    if RELIABILITY_VARIANTS.get(variant) is None:
        raise ValueError(
            f"ablation variant must be a stashing reliability variant, "
            f"not {variant!r}"
        )
    plain = (UniformTraffic(rate=load),)
    speedup = [
        SweepEntry(
            key=("speedup", s),
            label=f"ablation:speedup:{s!r}",
            spec=ScenarioSpec(
                config=_reliability_config(
                    base.with_(switch=replace(base.switch, speedup=s))
                ),
                traffic=plain,
            ),
        )
        for s in (float(x) for x in axes.get("speedups", (1.0, 1.15, 1.3, 1.5)))
    ]
    placement = [
        SweepEntry(
            key=("placement", policy),
            label=f"ablation:placement:{policy}",
            spec=ScenarioSpec(
                config=_reliability_config(
                    base, capacity_scale=0.5, placement=policy
                ),
                traffic=plain,
            ),
        )
        for policy in ("jsq", "random")
    ]
    littles = [
        SweepEntry(
            key=("littles", x),
            label=f"ablation:littles:{x!r}",
            spec=reliability_scenario(
                base, variant, traffic=(UniformTraffic(rate=x),)
            ),
        )
        for x in sorted(float(x) for x in axes.get("littles_loads", (0.2, 0.7)))
    ]
    return speedup + placement + littles


def littles_law_check(rows: Rows) -> dict[str, float]:
    """A1: the Little's-law saturation bound against the simulated
    accepted throughput of the ``littles`` rows' network.

    Following the paper's method (Section VI-A), the round trip is
    estimated as twice the average latency *before* saturation — at the
    highest load where the network still delivers what is offered — and
    the bound is stash flits per endpoint (read off the simulated spec,
    so the two cannot disagree) over that round trip.
    """
    best_accepted = 0.0
    rtt_estimate = None
    for _point, r in rows:
        best_accepted = max(best_accepted, r.accepted_load)
        if r.accepted_load >= 0.9 * r.offered_load:
            rtt_estimate = 2.0 * r.avg_latency  # pre-saturation sample
    if rtt_estimate is None:
        raise RuntimeError(
            "no pre-saturation load point; add a lower load to the sweep"
        )
    per_ep = stash_per_endpoint_flits(rows[0][0].spec.resolved_config())
    return {
        "stash_flits_per_endpoint": per_ep,
        "rtt_estimate_cycles": rtt_estimate,
        "predicted_saturation": stash_limited_injection_rate(
            per_ep, rtt_estimate
        ),
        "simulated_saturation": best_accepted,
    }


def format_ablation(rows: Rows) -> str:
    parts = rows_by_variant(rows)
    lines = ["Ablations", "", "AB1 — internal speedup (reliability, high load):"]
    lines.append(f"{'speedup':>8} {'accepted':>9} {'avg lat':>8}")
    for point, r in parts.get("speedup", ()):
        lines.append(
            f"{point.key[2]:>8.2f} {r.accepted_load:>9.3f} "
            f"{r.avg_latency:>8.1f}"
        )
    lines.append("")
    lines.append("AB2 — stash placement policy (reduced capacity):")
    for point, r in parts["placement"]:
        lines.append(
            f"  {point.key[2]:<7} accepted={r.accepted_load:.3f} "
            f"avg_lat={r.avg_latency:.1f} "
            f"stalls={r.extra('stash_stalls'):.0f}"
        )
    littles = littles_law_check(parts["littles"])
    lines.append("")
    lines.append(
        "A1 — Little's law: predicted saturation "
        f"{littles['predicted_saturation']:.2f} vs simulated "
        f"{littles['simulated_saturation']:.2f} "
        f"({littles['stash_flits_per_endpoint']:.0f} flits/endpoint, "
        f"RTT~{littles['rtt_estimate_cycles']:.0f} cyc)"
    )
    return "\n".join(lines)

"""Aggressor/victim scenario builders for the congestion experiments.

The paper's first congestion experiment (Fig. 7/8): a uniform-random
victim at 40 % load on most endpoints, plus 48 aggressor sources sending
at maximum rate to 12 destinations — a dozen 4:1 oversubscribed hotspots.
The second (Fig. 9): victim on half the endpoints, an aggressor running
uniform-random at maximum rate on the other half, with message size swept
to control burstiness.

These builders scale the counts to any network size while preserving the
oversubscription ratio and the victim/aggressor split.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network import Network
from repro.traffic.generators import BernoulliSource, BurstSource
from repro.traffic.patterns import hotspot, uniform_random

__all__ = ["AggressorScenario", "hotspot_scenario", "uniform_aggressor_scenario"]

VICTIM_TAG = 1
AGGRESSOR_TAG = 2


@dataclass(frozen=True)
class AggressorScenario:
    """Node partition of one congestion experiment."""

    victim_nodes: tuple[int, ...]
    aggressor_nodes: tuple[int, ...]
    hotspot_nodes: tuple[int, ...]


def hotspot_scenario(
    net: Network,
    victim_rate: float = 0.4,
    oversubscription: int = 4,
    num_hotspots: int | None = None,
    aggressor_start: int = 0,
    aggressor_stop: int | None = None,
    victim_msg_flits: int | None = None,
) -> AggressorScenario:
    """Fig. 7: hotspot aggressors over a uniform-random victim.

    ``oversubscription`` aggressor sources feed each hotspot destination
    at maximum rate.  Hotspot destinations and aggressor sources are
    taken from the tail of the node range; everyone else runs the victim.
    The paper's 3080-node run used 12 hotspots x 4 sources; the default
    here scales the hotspot count to ~0.4 % of nodes (>= 1).
    """
    total = net.topology.num_nodes
    if num_hotspots is None:
        num_hotspots = max(1, round(total * 12 / 3080))
    n_aggr = num_hotspots * oversubscription
    if n_aggr + num_hotspots >= total:
        raise ValueError("network too small for this hotspot configuration")

    hotspot_nodes = tuple(range(total - num_hotspots, total))
    aggressor_nodes = tuple(range(total - num_hotspots - n_aggr, total - num_hotspots))
    victim_nodes = tuple(range(total - num_hotspots - n_aggr))

    if victim_msg_flits is None:
        victim_msg_flits = net.config.switch.max_packet_flits
    msg = victim_msg_flits
    victim = BernoulliSource(
        rate=victim_rate,
        msg_flits=msg,
        pattern=uniform_random(total),
        tag=VICTIM_TAG,
    )
    aggressor = BernoulliSource(
        rate=1.0,
        msg_flits=msg,
        pattern=hotspot(hotspot_nodes),
        start=aggressor_start,
        stop=aggressor_stop,
        tag=AGGRESSOR_TAG,
    )
    net.add_source(victim, victim_nodes)
    net.add_source(aggressor, aggressor_nodes)
    net.track_group("victim", victim_nodes)
    net.track_group("aggressor", aggressor_nodes)
    return AggressorScenario(victim_nodes, aggressor_nodes, hotspot_nodes)


def uniform_aggressor_scenario(
    net: Network,
    burst_flits: int,
    victim_rate: float = 0.4,
    victim_msg_flits: int | None = None,
) -> AggressorScenario:
    """Fig. 9: half the endpoints run the victim (uniform random at 40 %,
    single-packet messages), the other half a maximum-rate uniform-random
    aggressor with ``burst_flits``-flit messages."""
    total = net.topology.num_nodes
    half = total // 2
    victim_nodes = tuple(range(half))
    aggressor_nodes = tuple(range(half, total))

    if victim_msg_flits is None:
        victim_msg_flits = net.config.switch.max_packet_flits
    msg = victim_msg_flits
    victim = BernoulliSource(
        rate=victim_rate,
        msg_flits=msg,
        pattern=uniform_random(total),
        tag=VICTIM_TAG,
    )
    aggressor = BurstSource(
        msg_flits=burst_flits,
        pattern=uniform_random(total),
        outstanding=2,
        tag=AGGRESSOR_TAG,
    )
    net.add_source(victim, victim_nodes)
    net.add_source(aggressor, aggressor_nodes)
    net.track_group("victim", victim_nodes)
    net.track_group("aggressor", aggressor_nodes)
    return AggressorScenario(victim_nodes, aggressor_nodes, ())

"""Differential oracle for the array-native flow engine.

``reference_maxmin`` is the object-per-flow, loop-per-link progressive
filling the engine used before it went array-native, kept here as the
reference with its stall fixed the dumb way: the unfrozen weight on each
link is recomputed from the active set every round, not decremented, so
no float residue outlives a link's last flow.  The vectorised allocator
must agree with it on random instances and, swapped into whole runs, on
the ``EngineResult``.

``reference_routes`` is, the same way, the per-pair walk the engine ran
before it walked every switch pair at once over a next-port table: the
route tables must equal it entry for entry on drawn dragonfly and
fat-tree shapes.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import fastpath
from repro.engine.base import EngineUnsupported
from repro.engine.config import DragonflyParams, tiny_preset
from repro.scenario import (
    FatTreeTopologySpec,
    HotspotTraffic,
    ScenarioSpec,
    UniformAggressorTraffic,
    UniformTraffic,
    congestion_scenario,
    reliability_scenario,
)
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.fattree import FatTreeTopology
from repro.topology.single_switch import SingleSwitchTopology
from tests.conftest import micro_config
from tests.test_fastpath_maxmin import incidence

_EPS = 1e-12


def reference_maxmin(entries, caps, demand_caps):
    """Per-unit max-min rates; ``entries[i]`` is flow ``i``'s
    ``(links, weights)`` and link ``l`` constrains
    ``sum(weight * rate) <= caps[l]``."""
    n = len(entries)
    alloc = [0.0] * n
    residual = list(caps)
    active = [demand_caps[i] > _EPS for i in range(n)]
    while any(active):
        link_weight = [0.0] * len(caps)
        for i, (links, weights) in enumerate(entries):
            if active[i]:
                for l, w in zip(links, weights):
                    link_weight[l] += w
        inc = min(
            [residual[l] / w for l, w in enumerate(link_weight) if w > 0.0]
            + [demand_caps[i] - alloc[i] for i in range(n) if active[i]]
        )
        inc = max(inc, 0.0)
        for i in range(n):
            if active[i]:
                alloc[i] += inc
        for l, w in enumerate(link_weight):
            residual[l] -= inc * w
        full = {
            l for l, w in enumerate(link_weight)
            if w > 0.0 and residual[l] / w <= _EPS
        }
        for i, (links, _weights) in enumerate(entries):
            if active[i] and (
                alloc[i] >= demand_caps[i] - _EPS or full.intersection(links)
            ):
                active[i] = False
    return alloc


def reference_adapter(inc, entry_weight, caps, demand_caps):
    """``reference_maxmin`` behind ``fastpath._maxmin``'s signature."""
    ptr = inc.flow_ptr.tolist()
    links, weights = inc.entry_link.tolist(), entry_weight.tolist()
    entries = [
        (links[a:b], weights[a:b]) for a, b in zip(ptr, ptr[1:])
    ]
    return np.array(
        reference_maxmin(entries, caps.tolist(), demand_caps.tolist())
    )


def random_instance(rng: random.Random):
    """Ragged link counts (a flow with none included), zero-demand
    flows, and demands/capacities drawn from short lists so that
    several flows and links reach their limits at the same level."""
    n_links = rng.randint(1, 8)
    n_flows = rng.randint(1, 20)
    flow_links = [
        rng.sample(range(n_links), rng.randint(0, n_links))
        for _ in range(n_flows)
    ]
    flow_links[rng.randrange(n_flows)] = []
    weights = [
        rng.choice([1.0, 2.0, 0.25]) * rng.choice([1.0, 1.0, 137.5, 480.0])
        for links in flow_links for _ in links
    ]
    demands = [rng.choice([0.0, 0.125, 0.25, 0.25, 1.0]) for _ in flow_links]
    caps = [rng.choice([0.5, 1.0, 1.0, 3.0, 250.0]) for _ in range(n_links)]
    return (
        incidence(flow_links, n_links), np.array(weights, dtype=float),
        np.array(caps), np.array(demands),
    )


def test_vectorised_allocator_matches_reference_on_random_instances():
    rng = random.Random(20260929)
    for _ in range(250):
        instance = random_instance(rng)
        got = fastpath._maxmin(*instance)
        want = reference_adapter(*instance)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-15)


def _specs():
    micro, tiny = micro_config(), tiny_preset()
    burst = (UniformAggressorTraffic(burst_flits=64),)
    hot = (HotspotTraffic(victim_rate=0.4, num_hotspots=2, oversubscription=4),)
    return {
        "micro-uniform": ScenarioSpec(
            config=micro, traffic=(UniformTraffic(rate=0.9),)
        ),
        "tiny-stash25": reliability_scenario(
            tiny, "stash25", traffic=(UniformTraffic(rate=0.8),)
        ),
        "tiny-hotspot": ScenarioSpec(config=tiny, traffic=hot),
        "micro-aggressor-ecn": congestion_scenario(
            micro, "baseline", traffic=burst
        ),
        "tiny-aggressor-ecn": congestion_scenario(
            tiny, "stash100", traffic=burst
        ),
        "micro-fattree-stash25": reliability_scenario(
            micro, "stash25", traffic=(UniformTraffic(rate=0.95),),
            topology=FatTreeTopologySpec(),
        ),
    }


def _numbers(result):
    """(floats, truncated packet counts) of a result, flattened."""
    floats = [
        result.offered_load, result.accepted_load, result.avg_latency,
        result.p90_latency, result.p99_latency, result.max_latency,
    ]
    counts = [result.packets_measured]
    for _name, g in result.groups:
        floats += [g.mean, g.p50, g.p90, g.p99, g.max]
        counts.append(g.count)
    return floats + [value for _key, value in result.extras], counts


@pytest.mark.parametrize("name", sorted(_specs()))
def test_whole_run_matches_reference_allocator(monkeypatch, name):
    spec = _specs()[name]
    got = fastpath.FlowEngine().run(spec)
    monkeypatch.setattr(fastpath, "_maxmin", reference_adapter)
    want = fastpath.FlowEngine().run(spec)
    assert [n for n, _g in got.groups] == [n for n, _g in want.groups]
    got_floats, got_counts = _numbers(got)
    want_floats, want_counts = _numbers(want)
    assert got_floats == pytest.approx(want_floats, rel=1e-6)
    # a count is a truncated product: rounding may move it by one packet
    assert got_counts == pytest.approx(want_counts, abs=1)


def reference_routes(builder, src_switch, dst_switch):
    """Minimal routes between two switches, one per fat-tree spine, as
    ``(hop link ids, summed hop latency, switch count)``."""
    topo, link = builder.topo, builder.links._ids
    if isinstance(topo, SingleSwitchTopology) or src_switch == dst_switch:
        return [((), 0.0, 1.0)]
    if isinstance(topo, FatTreeTopology):
        lat = float(topo.latency_up)
        routes = []
        for spine in range(topo.num_spines):
            spine_sw = topo.num_leaves + spine
            up = topo.uplink_port(src_switch, spine)
            down = topo.downlink_port(spine_sw, dst_switch)
            routes.append((
                (link[f"l:{src_switch}.{up}"], link[f"l:{spine_sw}.{down}"]),
                lat + lat, 3.0,
            ))
        return routes
    assert isinstance(topo, DragonflyTopology)
    hops = []
    latency = 0.0
    cur = src_switch
    while cur != dst_switch:
        if topo.group_of(cur) == topo.group_of(dst_switch):
            port = topo.local_port(cur, dst_switch)
        else:
            port = topo.route_to_group(cur, topo.group_of(dst_switch))
        spec = topo.port_spec(cur, port)
        assert spec.peer is not None and spec.peer[0] == "switch"
        hops.append(link[f"l:{cur}.{port}"])
        latency += float(spec.latency)
        cur = spec.peer[1]
        assert len(hops) <= 8
    return [(tuple(hops), latency, float(len(hops) + 1))]


def _assert_route_tables_match_reference(topo):
    """Every pair of switches with endpoints, in both directions."""
    builder = fastpath._FlowBuilder(topo, micro_config())
    hosts = sorted({topo.node_switch(u) for u in range(topo.num_nodes)})
    src, dst = (np.array(side, dtype=np.intp) for side in zip(
        *[(a, b) for a in hosts for b in hosts]
    ))
    ptr, hops, latency, switches, back_hops, back_share = (
        builder._route_tables(src, dst)
    )
    for i, (a, b) in enumerate(zip(src.tolist(), dst.tolist())):
        got = [
            (tuple(hops[r][hops[r] >= 0].tolist()), latency[r], switches[r])
            for r in range(ptr[i], ptr[i + 1])
        ]
        assert got == reference_routes(builder, a, b), (a, b)
        back = reference_routes(builder, b, a)
        assert back_hops[i][back_hops[i] >= 0].tolist() == [
            link for route in back for link in route[0]
        ], (b, a)
        assert back_share[i] == 1.0 / len(back)


@given(
    st.integers(1, 3), st.integers(1, 5), st.integers(1, 3), st.data()
)
@settings(max_examples=40, deadline=None)
def test_dragonfly_route_tables_match_reference(p, a, h, data):
    groups = data.draw(st.sampled_from([0, *range(2, a * h + 1)]))
    _assert_route_tables_match_reference(DragonflyTopology(DragonflyParams(
        p=p, a=a, h=h, num_groups=groups, latency_endpoint=1,
        latency_local=3, latency_global=17,
    )))


@given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_fattree_route_tables_match_reference(leaves, spines, p):
    _assert_route_tables_match_reference(FatTreeTopology(
        num_leaves=leaves, num_spines=spines, p=p, latency_up=13,
    ))


def test_single_switch_route_tables_match_reference():
    _assert_route_tables_match_reference(SingleSwitchTopology(4, 4))


def test_looping_next_ports_fail_to_converge(monkeypatch):
    """A dragonfly whose route toward another group is a local hop to
    the next switch of the same group circles forever."""

    def in_circles(self, switch, group):
        pos = self.pos_in_group(switch)
        return self.local_port(switch, switch - pos + (pos + 1) % self.a)

    monkeypatch.setattr(DragonflyTopology, "route_to_group", in_circles)
    spec = ScenarioSpec(
        config=micro_config(), traffic=(UniformTraffic(rate=0.5),)
    )
    with pytest.raises(EngineUnsupported, match="failed to converge"):
        fastpath.FlowEngine().run(spec)

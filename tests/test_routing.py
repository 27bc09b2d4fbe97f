"""Routing algorithms: VC ladder, PAR and fat-tree correctness.

The route-walker tests simulate a packet's hop-by-hop traversal using
only the router and topology (no flit datapath), asserting the three
properties deadlock freedom rests on: routes terminate at the right
ejection port, VCs strictly increase along switch-to-switch hops, and
hop counts respect the PAR budget.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.config import DragonflyParams
from repro.routing.dragonfly_routing import DragonflyParRouter
from repro.routing.fattree_routing import FatTreeRouter
from repro.routing.routing import VcLadder
from repro.switch.flit import Packet
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.fattree import FatTreeTopology


class FakeCtx:
    """Routing context with controllable congestion."""

    def __init__(self, switch_id, congestion=None):
        self.switch_id = switch_id
        self._congestion = congestion or {}

    def output_congestion(self, port):
        return self._congestion.get(port, 0)


def _topo(p=2, a=3, h=2):
    return DragonflyTopology(
        DragonflyParams(p=p, a=a, h=h, latency_endpoint=1,
                        latency_local=2, latency_global=10)
    )


def walk(topo, router, src, dst, congestion=None, max_hops=8):
    """Follow routing decisions from src's switch to ejection; returns
    the list of (switch, out_port, vc) hops."""
    pkt = Packet(1, src, dst, 4)
    router.prepare_injection(pkt)
    switch = topo.node_switch(src)
    in_port = topo.node_port(src)
    hops = []
    for _ in range(max_hops):
        ctx = FakeCtx(switch, congestion)
        out_port, vc = router.route(ctx, in_port, pkt)
        hops.append((switch, out_port, vc))
        spec = topo.port_spec(switch, out_port)
        if spec.link_class == "endpoint":
            assert spec.peer == ("node", dst), (
                f"ejected at {spec.peer}, wanted node {dst}"
            )
            return hops
        _, switch, in_port = spec.peer
        pkt.vc = vc
    raise AssertionError(f"no ejection after {max_hops} hops: {hops}")


class TestVcLadder:
    def test_minimal_path_vcs(self):
        ladder = VcLadder("LLGLGL")
        vc0, ptr = ladder.next_vc(0, "L")
        vc1, ptr = ladder.next_vc(ptr, "G")
        vc2, _ = ladder.next_vc(ptr, "L")
        assert (vc0, vc1, vc2) == (0, 2, 3)

    def test_full_valiant_path(self):
        ladder = VcLadder("LLGLGL")
        ptr = 0
        vcs = []
        for hop in "LLGLGL":
            vc, ptr = ladder.next_vc(ptr, hop)
            vcs.append(vc)
        assert vcs == [0, 1, 2, 3, 4, 5]

    def test_budget_exceeded_raises(self):
        ladder = VcLadder("LLGLGL")
        with pytest.raises(RuntimeError):
            ladder.next_vc(5, "G")  # no G at or after position 5

    def test_invalid_sequence_rejected(self):
        with pytest.raises(ValueError):
            VcLadder("LXG")


def _par(topo, seed=5):
    return DragonflyParRouter(topo, random.Random(seed))


def _global_hops(topo, hops):
    return [topo.port_class(s, p) for s, p, _ in hops[:-1]].count("global")


class TestMinimalRouting:
    """With no congestion anywhere PAR never diverts, so these pin the
    minimal path's shape."""

    def test_same_switch_ejects_directly(self):
        topo = _topo()
        router = _par(topo)
        hops = walk(topo, router, src=0, dst=1)
        assert len(hops) == 1

    def test_intra_group_one_local_hop(self):
        topo = _topo()
        router = _par(topo)
        # nodes 0 and 2*p=4 are on switches 0 and 2, same group
        hops = walk(topo, router, src=0, dst=2 * topo.p)
        assert len(hops) == 2
        assert topo.port_class(hops[0][0], hops[0][1]) == "local"

    def test_inter_group_at_most_lgl(self):
        topo = _topo()
        router = _par(topo)
        for dst in range(topo.p * topo.a, topo.num_nodes, 7):
            hops = walk(topo, router, src=0, dst=dst)
            classes = [topo.port_class(s, p) for s, p, _ in hops[:-1]]
            assert classes.count("global") == 1
            assert classes.count("local") <= 2

    def test_all_pairs_reachable_with_increasing_vcs(self):
        topo = _topo()
        router = _par(topo)
        for src in range(0, topo.num_nodes, 5):
            for dst in range(topo.num_nodes):
                if src == dst:
                    continue
                hops = walk(topo, router, src, dst)
                vcs = [
                    vc for s, p, vc in hops
                    if topo.port_class(s, p) != "endpoint"
                ]
                assert vcs == sorted(vcs), f"{src}->{dst}: {vcs}"


class TestParRouting:
    def test_uncongested_stays_minimal(self):
        topo = _topo()
        router = DragonflyParRouter(topo, random.Random(5))
        for dst in range(topo.p * topo.a, topo.num_nodes, 5):
            hops = walk(topo, router, src=0, dst=dst)
            assert _global_hops(topo, hops) == 1  # minimal: one global hop

    def test_congestion_diverts(self):
        topo = _topo()
        router = _par(topo)
        detours = 0
        # congest every minimal port out of the source switch; over many
        # destinations the random mid-group pick must divert some routes
        for dst in range(topo.p * topo.a, topo.num_nodes, 3):
            min_port = topo.route_to_group(
                0, topo.group_of(topo.node_switch(dst))
            )
            congestion = {min_port: 1000}
            hops = walk(topo, router, src=0, dst=dst, congestion=congestion)
            if _global_hops(topo, hops) == 2:
                detours += 1
        assert detours >= 1

    def test_diversion_picks_a_third_group(self):
        topo = _topo()
        router = _par(topo)
        diverted = 0
        for dst in range(topo.p * topo.a, topo.num_nodes):
            dst_group = topo.group_of(topo.node_switch(dst))
            min_port = topo.route_to_group(0, dst_group)
            pkt = Packet(1, 0, dst, 4)
            router.prepare_injection(pkt)
            router.route(FakeCtx(0, {min_port: 1000}), 0, pkt)
            if pkt.nonminimal:
                assert pkt.mid_group not in (topo.group_of(0), dst_group)
                diverted += 1
        assert diverted

    def test_par_all_pairs_with_random_congestion(self):
        topo = _topo()
        rng = random.Random(11)
        router = _par(topo)
        detours = 0
        for src in range(0, topo.num_nodes, 4):
            for dst in range(0, topo.num_nodes, 3):
                if src == dst:
                    continue
                congestion = {
                    port: rng.randrange(50)
                    for port in range(topo.num_ports)
                }
                hops = walk(topo, router, src, dst, congestion=congestion)
                vcs = [
                    vc for s, p, vc in hops
                    if topo.port_class(s, p) != "endpoint"
                ]
                assert vcs == sorted(vcs)
                assert len(vcs) <= 6
                detours += _global_hops(topo, hops) == 2
        assert detours >= 1  # congestion up to 50 flits still diverts

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_par_random_pairs_property(self, a, b):
        topo = _topo(p=2, a=4, h=2)  # 9 groups, 72 nodes
        router = _par(topo, seed=7)
        src = a % topo.num_nodes
        dst = b % topo.num_nodes
        if src == dst:
            return
        congestion = {p: (a * 31 + p * 17) % 60 for p in range(topo.num_ports)}
        walk(topo, router, src, dst, congestion=congestion)


class TestFatTreeRouting:
    def test_local_leaf_ejects(self):
        topo = FatTreeTopology(num_leaves=3, num_spines=2, p=2)
        router = FatTreeRouter(topo, random.Random(1))
        pkt = Packet(1, 0, 1, 4)
        router.prepare_injection(pkt)
        out, _vc = router.route(FakeCtx(0), 0, pkt)
        assert out == 1  # node 1's port on leaf 0

    def test_up_down_path(self):
        topo = FatTreeTopology(num_leaves=3, num_spines=2, p=2)
        router = FatTreeRouter(topo, random.Random(1))
        pkt = Packet(1, 0, 5, 4)  # leaf 0 -> leaf 2
        router.prepare_injection(pkt)
        up, vc_up = router.route(FakeCtx(0), 0, pkt)
        assert topo.port_class(0, up) == "global"
        assert vc_up == 0
        _, spine, spine_in = topo.port_spec(0, up).peer
        down, vc_down = router.route(FakeCtx(spine), spine_in, pkt)
        assert vc_down == 1
        assert topo.port_spec(spine, down).peer[1] == 2  # to leaf 2

    def test_adaptive_uplink_prefers_less_congested(self):
        topo = FatTreeTopology(num_leaves=2, num_spines=3, p=2)
        router = FatTreeRouter(topo, random.Random(1))
        congestion = {topo.uplink_port(0, 0): 100, topo.uplink_port(0, 1): 100}
        pkt = Packet(1, 0, 3, 4)
        router.prepare_injection(pkt)
        out, _ = router.route(FakeCtx(0, congestion), 0, pkt)
        assert out == topo.uplink_port(0, 2)

"""Topologies: dragonfly wiring, fat-tree, single switch."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.config import DragonflyParams
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.fattree import FatTreeTopology
from repro.topology.single_switch import SingleSwitchTopology
from repro.topology.topology import PortSpec


class TestDragonflyCanonical:
    def _topo(self, p=2, a=3, h=2, groups=0, ports=None):
        return DragonflyTopology(
            DragonflyParams(p=p, a=a, h=h, num_groups=groups,
                            latency_endpoint=1, latency_local=2,
                            latency_global=10),
            num_ports=ports,
        )

    def test_counts(self):
        t = self._topo()
        assert t.g == 7
        assert t.num_switches == 21
        assert t.num_nodes == 42

    def test_wiring_verified_at_build(self):
        # verify_wiring runs in __init__; reaching here means symmetric
        self._topo(p=3, a=4, h=3)

    def test_every_group_pair_has_exactly_one_global_link(self):
        t = self._topo()
        pairs = set()
        for s in range(t.num_switches):
            for spec in t.switch_ports(s):
                if spec.link_class == "global":
                    _, peer, _ = spec.peer
                    pair = frozenset((t.group_of(s), t.group_of(peer)))
                    assert len(pair) == 2, "global link within a group"
                    pairs.add(pair)
        expected = t.g * (t.g - 1) // 2
        assert len(pairs) == expected

    def test_local_full_connectivity(self):
        t = self._topo()
        for g in range(t.g):
            switches = [g * t.a + i for i in range(t.a)]
            for s in switches:
                peers = {
                    spec.peer[1]
                    for spec in t.switch_ports(s)
                    if spec.link_class == "local"
                }
                assert peers == set(switches) - {s}

    def test_route_to_group_minimal(self):
        t = self._topo()
        for s in range(t.num_switches):
            grp = t.group_of(s)
            for target in range(t.g):
                if target == grp:
                    continue
                port = t.route_to_group(s, target)
                spec = t.port_spec(s, port)
                if spec.link_class == "global":
                    _, peer, _ = spec.peer
                    assert t.group_of(peer) == target
                else:
                    assert spec.link_class == "local"
                    _, gw, _ = spec.peer
                    assert t.gateway_switch(t.group_of(gw), target) == gw

    @given(st.integers(1, 3), st.integers(1, 5), st.integers(1, 3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_route_to_group_matches_a_search_of_the_wiring(self, p, a, h, data):
        """Canonical (``groups=0``) and sub-canonical group counts: the
        port toward each other group is the switch's own global link
        there, else the local link to the group's one switch that has
        it."""
        groups = data.draw(st.sampled_from([0, *range(2, a * h + 1)]))
        t = self._topo(p=p, a=a, h=h, groups=groups)

        def globals_to(switch, target):
            return [spec.port for spec in t.switch_ports(switch)
                    if spec.link_class == "global"
                    and t.group_of(spec.peer[1]) == target]

        for s in range(t.num_switches):
            members = [m for m in range(t.num_switches)
                       if t.group_of(m) == t.group_of(s)]
            for target in range(t.g):
                if target == t.group_of(s):
                    continue
                own = globals_to(s, target)
                if own:
                    (want,) = own
                else:
                    (gateway,) = [m for m in members if globals_to(m, target)]
                    (want,) = [spec.port for spec in t.switch_ports(s)
                               if spec.link_class == "local"
                               and spec.peer[1] == gateway]
                assert t.route_to_group(s, target) == want

    def test_node_attachment(self):
        t = self._topo()
        for node in range(t.num_nodes):
            s = t.node_switch(node)
            port = t.node_port(node)
            assert t.port_spec(s, port).peer == ("node", node)
            assert t.eject_port(s, node) == port

    def test_eject_port_wrong_switch_rejected(self):
        t = self._topo()
        with pytest.raises(ValueError):
            t.eject_port(0, t.num_nodes - 1)

    def test_subcanonical_groups(self):
        t = self._topo(groups=5)
        assert t.g == 5
        unused = sum(
            1
            for s in range(t.num_switches)
            for spec in t.switch_ports(s)
            if spec.link_class == "unused"
        )
        # each group wires g-1=4 of its a*h=6 global slots
        assert unused == 5 * 2

    def test_extra_switch_ports_marked_unused(self):
        t = self._topo(ports=10)
        spec = t.switch_ports(0)
        assert len(spec) == 10
        assert spec[-1].link_class == "unused"

    def test_insufficient_ports_rejected(self):
        with pytest.raises(ValueError):
            self._topo(ports=4)

    def test_paper_scale_builds(self):
        t = DragonflyTopology(DragonflyParams())  # 3080 nodes
        assert t.num_nodes == 3080
        assert t.g == 56

    @given(st.integers(1, 3), st.integers(2, 4), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_arbitrary_shapes_wire_symmetrically(self, p, a, h):
        # verify_wiring (called in the constructor) raises on asymmetry
        DragonflyTopology(
            DragonflyParams(p=p, a=a, h=h, latency_endpoint=1,
                            latency_local=2, latency_global=4)
        )


class TestFatTree:
    def test_wiring(self):
        t = FatTreeTopology(num_leaves=4, num_spines=2, p=3)
        assert t.num_nodes == 12
        assert t.num_switches == 6
        assert t.is_leaf(0) and not t.is_leaf(4)

    def test_uplink_downlink_consistency(self):
        t = FatTreeTopology(num_leaves=3, num_spines=2, p=2)
        for leaf in range(3):
            for spine in range(2):
                up = t.uplink_port(leaf, spine)
                spec = t.port_spec(leaf, up)
                assert spec.link_class == "global"
                _, peer, peer_port = spec.peer
                assert peer == 3 + spine
                assert peer_port == t.downlink_port(peer, leaf)

    def test_insufficient_ports_rejected(self):
        with pytest.raises(ValueError):
            FatTreeTopology(num_leaves=4, num_spines=4, p=4, num_ports=6)


class TestSingleSwitch:
    def test_basic(self):
        t = SingleSwitchTopology(num_nodes=4, num_ports=6)
        assert t.num_switches == 1
        assert t.node_switch(3) == 0
        assert t.node_port(3) == 3
        assert t.end_ports(0) == [0, 1, 2, 3]

    def test_class_override(self):
        t = SingleSwitchTopology(
            3, 4, link_classes=["endpoint", "local", "global"]
        )
        assert t.port_class(0, 1) == "local"
        assert t.port_class(0, 2) == "global"

    def test_too_many_nodes_rejected(self):
        with pytest.raises(ValueError):
            SingleSwitchTopology(num_nodes=8, num_ports=6)


class TestPortSpec:
    def test_connected_needs_peer(self):
        with pytest.raises(ValueError):
            PortSpec(0, "local", None, 4)

    def test_connected_needs_latency(self):
        with pytest.raises(ValueError):
            PortSpec(0, "endpoint", ("node", 0), 0)

"""Dragonfly routing: progressive adaptive routing (PAR6/2).

PAR (Garcia et al., the paper's choice) routes minimally by default but
may divert to a Valiant intermediate group while the packet is still in
its source group, re-evaluating at each source-group switch: the packet
diverts when the minimal output's queue looks worse than twice the
non-minimal candidate's (the factor 2 reflects the roughly doubled path
length).  Once a global channel is taken the decision is committed.
"""

from __future__ import annotations

import random

from repro.routing.routing import Router, RoutingContext, VcLadder
from repro.switch.flit import Packet
from repro.topology.dragonfly import DragonflyTopology

__all__ = ["DragonflyParRouter"]

#: path-length penalty applied to the non-minimal candidate's queue
BIAS = 2
#: flits of minimal-path queue a diversion must beat, so light load
#: stays minimal
THRESHOLD = 4


class DragonflyParRouter(Router):
    """PAR6/2: progressive adaptive routing with six VCs (paper Section V).

    A packet diverts when its minimal output's congestion exceeds
    ``BIAS`` times the non-minimal candidate's plus ``THRESHOLD``.
    """

    num_vcs_required = 6

    def __init__(self, topo: DragonflyTopology, rng: random.Random) -> None:
        self.topo = topo
        self.ladder = VcLadder("LLGLGL")
        self.rng = rng

    def _hop(self, packet: Packet, out_port: int, switch: int) -> tuple[int, int]:
        """Assign the ladder VC for a switch-to-switch hop and update the
        packet's ladder pointer."""
        cls = self.topo.port_class(switch, out_port)
        hop_type = "G" if cls == "global" else "L"
        vc, packet.route_ptr = self.ladder.next_vc(packet.route_ptr, hop_type)
        if cls == "global":
            packet.route_committed = True
        return out_port, vc

    def _minimal(self, ctx: RoutingContext, packet: Packet) -> tuple[int, int]:
        s = ctx.switch_id
        topo = self.topo
        dst_switch = topo.node_switch(packet.dst)
        if s == dst_switch:
            return topo.eject_port(s, packet.dst), packet.vc
        if topo.group_of(s) == topo.group_of(dst_switch):
            return self._hop(packet, topo.local_port(s, dst_switch), s)
        out = topo.route_to_group(s, topo.group_of(dst_switch))
        return self._hop(packet, out, s)

    def _pick_mid_group(self, src_group: int, dst_group: int) -> int:
        """A uniformly random group other than the source and the
        destination (``route`` asks only when there are at least three)."""
        g = self.topo.g
        pick = self.rng.randrange(g - 2)
        for grp in range(g):
            if grp in (src_group, dst_group):
                continue
            if pick == 0:
                return grp
            pick -= 1
        raise AssertionError("unreachable")

    def _toward_group(
        self, ctx: RoutingContext, packet: Packet, group: int
    ) -> tuple[int, int]:
        s = ctx.switch_id
        return self._hop(packet, self.topo.route_to_group(s, group), s)

    def route(self, ctx: RoutingContext, in_port: int, packet: Packet) -> tuple[int, int]:
        topo = self.topo
        s = ctx.switch_id
        dst_switch = topo.node_switch(packet.dst)
        dst_group = topo.group_of(dst_switch)
        here = topo.group_of(s)

        if packet.nonminimal and packet.mid_group >= 0 and here == packet.mid_group:
            packet.mid_group = -2  # reached the intermediate group

        if packet.route_committed or here == dst_group:
            if packet.nonminimal and packet.mid_group >= 0 and here != dst_group:
                return self._toward_group(ctx, packet, packet.mid_group)
            return self._minimal(ctx, packet)

        if packet.nonminimal:
            return self._toward_group(ctx, packet, packet.mid_group)

        # Uncommitted, minimal, still in the source group: evaluate the
        # adaptive decision, but only while the ladder still has a local
        # hop available before the first global (positions 0 and 1).
        if here == dst_group or packet.route_ptr > 1:
            return self._minimal(ctx, packet)
        if topo.g < 3:
            return self._minimal(ctx, packet)

        min_port = topo.route_to_group(s, dst_group)
        mid_group = self._pick_mid_group(here, dst_group)
        nonmin_port = topo.route_to_group(s, mid_group)
        if nonmin_port == min_port:
            return self._minimal(ctx, packet)
        q_min = ctx.output_congestion(min_port)
        q_nonmin = ctx.output_congestion(nonmin_port)
        if q_min > BIAS * q_nonmin + THRESHOLD:
            packet.nonminimal = True
            packet.mid_group = mid_group
            return self._hop(packet, nonmin_port, s)
        return self._hop(packet, min_port, s)

"""Canonical dragonfly topology (paper Section V).

Groups of ``a`` fully connected switches; each switch serves ``p``
endpoints and ``h`` global channels.  With the canonical group count
``g = a*h + 1`` every pair of groups shares exactly one global channel.
Sub-canonical group counts are supported by using only the first ``g-1``
global slots of each group (each pair still gets exactly one channel;
surplus global ports become ``unused``).

Wiring rule (symmetric by construction): group ``G``'s global slot ``m``
(slot ``m`` lives on switch ``m // h``, local slot ``m % h``) connects to
group ``(G + m + 1) mod g``, where it occupies slot ``g - 2 - m``.

Port layout per switch: ``[0, p)`` endpoints, ``[p, p+a-1)`` locals in
peer order (skipping self), ``[p+a-1, p+a-1+h)`` globals, remainder
unused.  The paper assigns symmetric ports randomly; the assignment is
immaterial to behaviour, so we keep it deterministic.
"""

from __future__ import annotations

from repro.engine.config import DragonflyParams
from repro.topology.topology import PortSpec, Topology

__all__ = ["DragonflyTopology"]


class DragonflyTopology(Topology):
    def __init__(self, params: DragonflyParams, num_ports: int | None = None) -> None:
        super().__init__()
        self.params = params
        self.p = params.p
        self.a = params.a
        self.h = params.h
        self.g = params.groups
        self.num_switches = self.a * self.g
        self.num_nodes = self.p * self.num_switches
        radix = params.switch_radix
        self.num_ports = num_ports if num_ports is not None else radix
        if self.num_ports < radix:
            raise ValueError(f"need {radix} ports, switch offers {self.num_ports}")
        # routing tables filled by build()
        self._route_to_group: list[dict[int, int]] = []
        self._global_owner: list[dict[int, int]] = []  # group -> {target: switch}
        self.build()
        self.verify_wiring()

    # -- identity helpers -------------------------------------------------

    def group_of(self, switch: int) -> int:
        return switch // self.a

    def pos_in_group(self, switch: int) -> int:
        return switch % self.a

    def node_switch(self, node: int) -> int:
        return node // self.p

    def node_port(self, node: int) -> int:
        return node % self.p

    def eject_port(self, switch: int, node: int) -> int:
        if self.node_switch(node) != switch:
            raise ValueError(f"node {node} not attached to switch {switch}")
        return self.node_port(node)

    def local_port(self, switch: int, peer: int) -> int:
        """Port on ``switch`` leading to same-group ``peer``."""
        if self.group_of(switch) != self.group_of(peer) or switch == peer:
            raise ValueError(f"{switch} and {peer} are not distinct group peers")
        i, j = self.pos_in_group(switch), self.pos_in_group(peer)
        return self.p + (j if j < i else j - 1)

    def global_port(self, switch: int, slot: int) -> int:
        return self.p + self.a - 1 + slot

    # -- wiring -----------------------------------------------------------

    def build(self) -> None:
        p, a, h, g = self.p, self.a, self.h, self.g
        lat_e = self.params.latency_endpoint
        lat_l = self.params.latency_local
        lat_g = self.params.latency_global
        used_slots = g - 1  # global slots wired per group (canonical: a*h)

        self._ports = []
        for s in range(self.num_switches):
            grp, pos = divmod(s, a)
            specs: list[PortSpec] = []
            for k in range(p):
                specs.append(PortSpec(k, "endpoint", ("node", s * p + k), lat_e))
            for j in range(a):
                if j == pos:
                    continue
                peer = grp * a + j
                port = self.local_port(s, peer)
                peer_port = self.local_port(peer, s)
                specs.append(PortSpec(port, "local", ("switch", peer, peer_port), lat_l))
            specs.sort(key=lambda spec: spec.port)
            for k in range(h):
                m = pos * h + k
                port = self.global_port(s, k)
                if m >= used_slots:
                    specs.append(PortSpec(port, "unused", None, 0))
                    continue
                target_group = (grp + m + 1) % g
                m_back = g - 2 - m
                peer = target_group * a + m_back // h
                peer_port = self.global_port(peer, m_back % h)
                specs.append(
                    PortSpec(port, "global", ("switch", peer, peer_port), lat_g)
                )
            for extra in range(p + a - 1 + h, self.num_ports):
                specs.append(PortSpec(extra, "unused", None, 0))
            self._ports.append(specs)

        self._build_routing_tables()

    def _build_routing_tables(self) -> None:
        """Per-switch map: destination group -> output port (minimal)."""
        a, h, g = self.a, self.h, self.g
        # which switch in each group owns the global link to each target
        self._global_owner = []
        for grp in range(g):
            owner: dict[int, int] = {}
            for m in range(g - 1):
                target = (grp + m + 1) % g
                owner[target] = grp * a + m // h
            self._global_owner.append(owner)

        self._route_to_group = []
        for s in range(self.num_switches):
            grp = self.group_of(s)
            table: dict[int, int] = {}
            for target in range(g):
                if target == grp:
                    continue
                gateway = self._global_owner[grp][target]
                if gateway == s:
                    # the one slot m with (grp + m + 1) % g == target
                    m = (target - grp - 1) % g
                    table[target] = self.global_port(s, m % h)
                else:
                    table[target] = self.local_port(s, gateway)
            self._route_to_group.append(table)

    # -- routing queries ----------------------------------------------------

    def route_to_group(self, switch: int, group: int) -> int:
        """Minimal next output port from ``switch`` toward ``group``."""
        return self._route_to_group[switch][group]

    def gateway_switch(self, group: int, target_group: int) -> int:
        """The switch in ``group`` owning the global link to ``target_group``."""
        return self._global_owner[group][target_group]

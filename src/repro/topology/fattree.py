"""Two-level fat-tree (leaf/spine) topology.

The paper motivates stashing with dragonfly numbers but notes that
"similar analyses can be conducted for ... the leaf switches in a
multi-level fat-tree" (Section I).  This topology provides that second
substrate: leaf switches carry short endpoint links (heavily
underutilized buffers -> large stash partitions) and long uplinks to the
spine (no stash), mirroring the dragonfly's endpoint/global split.

Leaves have ``p`` endpoint ports and one uplink per spine; spines have
one downlink per leaf.  Uplinks/downlinks are classed ``global``.
"""

from __future__ import annotations

from repro.topology.topology import PortSpec, Topology

__all__ = ["FatTreeTopology"]


class FatTreeTopology(Topology):
    def __init__(
        self,
        num_leaves: int,
        num_spines: int,
        p: int,
        num_ports: int | None = None,
        latency_endpoint: int = 2,
        latency_up: int = 30,
    ) -> None:
        super().__init__()
        if min(num_leaves, num_spines, p) < 1:
            raise ValueError("leaves, spines and p must be positive")
        self.num_leaves = num_leaves
        self.num_spines = num_spines
        self.p = p
        self.latency_endpoint = latency_endpoint
        self.latency_up = latency_up
        leaf_radix = p + num_spines
        spine_radix = num_leaves
        radix = max(leaf_radix, spine_radix)
        self.num_ports = num_ports if num_ports is not None else radix
        if self.num_ports < radix:
            raise ValueError(f"need {radix} ports, switch offers {self.num_ports}")
        # switches: leaves first [0, L), then spines [L, L+S)
        self.num_switches = num_leaves + num_spines
        self.num_nodes = num_leaves * p
        self.build()
        self.verify_wiring()

    def is_leaf(self, switch: int) -> bool:
        return switch < self.num_leaves

    def node_switch(self, node: int) -> int:
        return node // self.p

    def node_port(self, node: int) -> int:
        return node % self.p

    def uplink_port(self, leaf: int, spine: int) -> int:
        """Leaf port leading up to ``spine`` (spine index, not switch id)."""
        return self.p + spine

    def downlink_port(self, spine_switch: int, leaf: int) -> int:
        return leaf

    def build(self) -> None:
        ports: list[list[PortSpec]] = []
        for leaf in range(self.num_leaves):
            specs: list[PortSpec] = []
            for k in range(self.p):
                specs.append(
                    PortSpec(k, "endpoint", ("node", leaf * self.p + k),
                             self.latency_endpoint)
                )
            for spine in range(self.num_spines):
                peer = self.num_leaves + spine
                specs.append(
                    PortSpec(
                        self.uplink_port(leaf, spine),
                        "global",
                        ("switch", peer, self.downlink_port(peer, leaf)),
                        self.latency_up,
                    )
                )
            for extra in range(self.p + self.num_spines, self.num_ports):
                specs.append(PortSpec(extra, "unused", None, 0))
            ports.append(specs)
        for spine in range(self.num_spines):
            specs = []
            me = self.num_leaves + spine
            for leaf in range(self.num_leaves):
                specs.append(
                    PortSpec(
                        leaf,
                        "global",
                        ("switch", leaf, self.uplink_port(leaf, spine)),
                        self.latency_up,
                    )
                )
            for extra in range(self.num_leaves, self.num_ports):
                specs.append(PortSpec(extra, "unused", None, 0))
            ports.append(specs)
        self._ports = ports

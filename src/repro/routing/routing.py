"""Router interface and the hop-type VC ladder.

Deadlock avoidance follows the standard dragonfly discipline: the VC
index assigned to each hop strictly increases along any legal path, so
the channel-dependency graph is acyclic and every chain terminates at an
always-sinking ejection port.  The maximal PAR path is

    L  L  G  L  G  L          (VCs 0 1 2 3 4 5)

— a minimal-attempt local hop, a diversion local hop to the Valiant
gateway, the global to the intermediate group, a local hop there, the
global to the destination group, and a final local hop.  Any realizable
minimal / Valiant / PAR path is a subsequence of this, and
:class:`VcLadder` assigns each actual hop the next matching position.
Six VCs therefore suffice, matching the paper's "PAR6/2 ... using six
VCs".
"""

from __future__ import annotations

from typing import Protocol

from repro.switch.flit import Packet

__all__ = ["Router", "RoutingContext", "VcLadder"]


class RoutingContext(Protocol):
    """What a router may ask of the switch evaluating the route."""

    switch_id: int

    def output_congestion(self, port: int) -> int:
        """Flits committed on the path out of ``port`` (queue-depth proxy
        used by adaptive decisions)."""
        ...


class VcLadder:
    """Assigns hop VCs along a fixed hop-type sequence."""

    def __init__(self, sequence: str = "LLGLGL") -> None:
        if not sequence or any(c not in "LG" for c in sequence):
            raise ValueError("ladder sequence must be non-empty over {L, G}")
        self.sequence = sequence

    @property
    def num_vcs(self) -> int:
        return len(self.sequence)

    def next_vc(self, ptr: int, hop_type: str) -> tuple[int, int]:
        """VC for a hop of ``hop_type`` given ladder position ``ptr``;
        returns (vc, new_ptr).  Raises if the path exceeds its budget,
        which would indicate a routing bug."""
        for pos in range(ptr, len(self.sequence)):
            if self.sequence[pos] == hop_type:
                return pos, pos + 1
        raise RuntimeError(
            f"no {hop_type} hop available at ladder position {ptr} "
            f"(sequence {self.sequence}); illegal path"
        )


class Router:
    """Base router: subclasses implement :meth:`route`.

    ``route`` is invoked exactly once per packet per switch, when the
    packet's head flit reaches the front of its input VC queue.  It
    returns ``(out_port, next_vc)``; for ejection ports ``next_vc`` is
    ignored by the datapath.
    """

    #: VCs this algorithm requires of the switch datapath.
    num_vcs_required: int = 1

    def route(
        self, ctx: RoutingContext, in_port: int, packet: Packet
    ) -> tuple[int, int]:
        raise NotImplementedError

    def prepare_injection(self, packet: Packet) -> None:
        """Initialize per-packet routing state at the source NIC."""
        packet.vc = 0
        packet.route_ptr = 0
        packet.nonminimal = False
        packet.mid_group = -1
        packet.route_committed = False

"""Flits, packets, and messages.

The simulator models the network at flit granularity (one flit = one
channel-clock transfer, 10 bytes in the paper's configuration).  A
:class:`Packet` does not own its flits.  A sender (endpoint injection,
stash retrieval) mints ``Flit(pkt, idx)`` as the flit goes on the wire,
as BookSim does: a flit points at its packet and nothing points back,
so a delivered packet is freed by reference counting.  Flit objects are
immutable; the multi-drop row bus duplicates a flit by latching the
*same* object into two buffers (paper Section III-A).

Routing decisions are recomputed per hop and read only at head-flit time;
body and tail flits follow arbiter locks, so mutable per-hop routing state
lives on the packet without racing the tail in upstream switches.
"""

from __future__ import annotations

from enum import IntEnum

__all__ = ["Flit", "Message", "Packet", "PacketKind"]


class PacketKind(IntEnum):
    """Wire-level packet type: payload DATA or single-flit ACK."""

    DATA = 0
    ACK = 1


class Flit:
    """One flit of one packet.  Immutable; identity is (packet, index)."""

    __slots__ = ("pkt", "idx", "head", "tail")

    def __init__(self, pkt: "Packet", idx: int) -> None:
        self.pkt = pkt
        self.idx = idx
        self.head = idx == 0
        self.tail = idx == pkt.size - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        marks = ("H" if self.head else "") + ("T" if self.tail else "")
        return f"Flit(p{self.pkt.pid}[{self.idx}]{marks})"


class Packet:
    """A network packet plus its per-hop routing and protocol state."""

    __slots__ = (
        "pid",
        "src",
        "dst",
        "size",
        "kind",
        "msg_id",
        "seq",
        "birth_cycle",
        # --- routing state (written at head-flit route compute only) ---
        "vc",
        "out_port",
        "next_vc",
        "route_ptr",
        "nonminimal",
        "mid_group",
        "route_committed",
        # --- protocol state ---
        "ecn",
        "ack_positive",
        "ack_ecn",
        "ack_for",
        # --- stashing state ---
        "stash_origin_port",
        "stash_port",
        "final_vc",
        "intended_out_port",
    )

    def __init__(
        self,
        pid: int,
        src: int,
        dst: int,
        size: int,
        kind: PacketKind = PacketKind.DATA,
        birth_cycle: int = 0,
        msg_id: int = -1,
        seq: int = 0,
    ) -> None:
        if size < 1:
            raise ValueError("packet must contain at least one flit")
        self.pid = pid
        self.src = src
        self.dst = dst
        self.size = size
        self.kind = kind
        self.msg_id = msg_id
        self.seq = seq
        self.birth_cycle = birth_cycle

        self.vc = 0
        self.out_port = -1
        self.next_vc = 0
        self.route_ptr = 0
        self.nonminimal = False
        self.mid_group = -1
        self.route_committed = False

        self.ecn = False
        self.ack_positive = True
        self.ack_ecn = False
        self.ack_for = -1

        self.stash_origin_port = -1
        self.stash_port = -1
        self.final_vc = -1
        self.intended_out_port = -1

    def stash_clone(self, pid: int) -> "Packet":
        """A retransmission clone carrying the same payload identity.

        Used when a stashed copy must be re-sent after a negative ACK:
        the clone gets fresh routing/protocol state but keeps src/dst/
        size/message coordinates so the destination sees the same data.
        """
        return Packet(
            pid,
            self.src,
            self.dst,
            self.size,
            self.kind,
            birth_cycle=self.birth_cycle,
            msg_id=self.msg_id,
            seq=self.seq,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "ACK" if self.kind == PacketKind.ACK else "DATA"
        return f"Packet({kind} p{self.pid} {self.src}->{self.dst} x{self.size})"


class Message:
    """An application-level message, segmented into packets by the NIC.

    Endpoints transmit messages through InfiniBand-style queue pairs
    (paper Section V): one send queue per destination, per-packet
    round-robin across active queues.
    """

    __slots__ = (
        "msg_id",
        "src",
        "dst",
        "size_flits",
        "create_cycle",
        "complete_cycle",
        "packets_total",
        "packets_delivered",
        "tag",
        "on_complete",
    )

    def __init__(
        self,
        msg_id: int,
        src: int,
        dst: int,
        size_flits: int,
        create_cycle: int,
        tag: int = 0,
    ) -> None:
        if size_flits < 1:
            raise ValueError("message must contain at least one flit")
        self.msg_id = msg_id
        self.src = src
        self.dst = dst
        self.size_flits = size_flits
        self.create_cycle = create_cycle
        self.complete_cycle = -1
        self.packets_total = 0  # set by the NIC at segmentation time
        self.packets_delivered = 0
        self.tag = tag
        self.on_complete = None  # callback(msg, cycle), used by trace replay

    @property
    def delivered(self) -> bool:
        """True once every segmented packet has been delivered."""
        return self.packets_total > 0 and self.packets_delivered >= self.packets_total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(m{self.msg_id} {self.src}->{self.dst} "
            f"{self.size_flits}f {self.packets_delivered}/{self.packets_total})"
        )

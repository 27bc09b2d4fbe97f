"""Packet order enforcement backed by end-to-end retransmission
(paper Section IV-C, "Other Use Cases").

Dragonfly networks with adaptive routing deliver packets of one message
out of order.  The paper notes that hardware reorder buffers at the
destinations can accelerate ordered transfers, but "such buffers are a
limited resource and may result in dropped packets when they are
exhausted.  End-to-end retransmission provides recovery, dramatically
simplifying the implementation and allowing for eager solutions."

:class:`ReorderBuffer` implements that destination-side resource: a
bounded flit pool holding early (out-of-sequence) packets per message.
In-sequence packets deliver immediately and drain any unblocked
successors; an early packet that does not fit is **dropped** and
negatively acknowledged, which triggers a retransmission from the
sender's first-hop stash copy (Section IV-A machinery) — no endpoint
retransmission hardware needed.
"""

from __future__ import annotations

from repro.switch.flit import Packet

__all__ = ["ReorderBuffer"]


class ReorderBuffer:
    """Per-endpoint reorder pool, shared by all inbound ordered flows."""

    __slots__ = (
        "capacity",
        "_used",
        "_pending",
        "_next_seq",
        "delivered_in_order",
        "held_total",
        "dropped_total",
        "peak_used",
    )

    def __init__(self, capacity_flits: int) -> None:
        if capacity_flits < 1:
            raise ValueError("reorder buffer needs at least one flit")
        self.capacity = capacity_flits
        self._used = 0
        # msg_id -> {seq: packet} packets waiting for their predecessors
        self._pending: dict[int, dict[int, Packet]] = {}
        # msg_id -> next sequence number the application expects
        self._next_seq: dict[int, int] = {}
        self.delivered_in_order = 0
        self.held_total = 0
        self.dropped_total = 0
        self.peak_used = 0

    @property
    def used_flits(self) -> int:
        return self._used

    def accept(self, pkt: Packet) -> tuple[bool, list[Packet]]:
        """Offer an arriving ordered packet.

        Returns ``(accepted, deliverable)``: ``accepted`` is False when
        the packet was out-of-sequence and did not fit (the caller must
        NACK it so the stash retransmits); ``deliverable`` lists the
        packets now releasable to the application, in sequence order
        (includes ``pkt`` itself when it was in sequence).
        """
        expected = self._next_seq.get(pkt.msg_id, 0)
        if pkt.seq < expected:
            # duplicate of an already-delivered packet (a retransmission
            # racing its ACK); swallow it without redelivery
            return True, []
        if pkt.seq > expected:
            waiting = self._pending.setdefault(pkt.msg_id, {})
            if pkt.seq in waiting:
                return True, []  # duplicate of a held packet
            if self._used + pkt.size > self.capacity:
                self.dropped_total += 1
                return False, []
            waiting[pkt.seq] = pkt
            self._used += pkt.size
            self.held_total += 1
            self.peak_used = max(self.peak_used, self._used)
            return True, []

        # in sequence: deliver it and everything it unblocks
        out = [pkt]
        expected += 1
        waiting = self._pending.get(pkt.msg_id)
        if waiting:
            while expected in waiting:
                nxt = waiting.pop(expected)
                self._used -= nxt.size
                out.append(nxt)
                expected += 1
            if not waiting:
                del self._pending[pkt.msg_id]
        self._next_seq[pkt.msg_id] = expected
        self.delivered_in_order += len(out)
        return True, out

    def finish_message(self, msg_id: int) -> None:
        """Forget per-message state once the message completed."""
        self._next_seq.pop(msg_id, None)
        leftovers = self._pending.pop(msg_id, None)
        if leftovers:
            raise RuntimeError(
                f"message {msg_id} finished with {len(leftovers)} packets "
                "still held — ordering accounting bug"
            )

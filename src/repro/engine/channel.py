"""Fixed-latency channels connecting switches and endpoints.

A :class:`Channel` models a unidirectional network link (or internal
side-band wire) with constant latency measured in cycles: items ``send()``-ed
at cycle *t* become visible to ``recv_ready()`` at cycle ``t + latency``.
Bandwidth is enforced by the senders (one flit per cycle per link); the
channel itself is a pure delay line.

A channel may be bound to the simulator's wake list
(:meth:`Channel.bind_wake`): every send then wakes the consuming
component at the delivery cycle, which is what lets the event kernel put
idle consumers to sleep without missing arrivals.

Credits travel opposite to flits on a paired reverse channel, as
``(vc, flits)`` tuples the sending output port applies to its mirror of
the downstream input buffer.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Generic, TypeVar

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.simulator import Simulator

T = TypeVar("T")

__all__ = ["Channel"]


class Channel(Generic[T]):
    """Constant-latency FIFO delay line."""

    __slots__ = ("latency", "name", "_queue", "_wake_sim", "_wake_idx")

    def __init__(self, latency: int, name: str = "") -> None:
        if latency < 1:
            raise ValueError("channel latency must be at least one cycle")
        self.latency = latency
        self.name = name
        self._queue: deque[tuple[int, T]] = deque()
        self._wake_sim: "Simulator | None" = None
        self._wake_idx = -1

    def bind_wake(self, sim: "Simulator", idx: int) -> None:
        """Wake simulator component ``idx`` whenever a send arrives."""
        self._wake_sim = sim
        self._wake_idx = idx

    def send(self, item: T, cycle: int) -> None:
        """Enqueue ``item`` for delivery at ``cycle + latency``.

        Sends must be issued with non-decreasing cycles (the simulator's
        cycle loop guarantees this); FIFO order then equals delivery
        order.  An out-of-order send raises: it would silently corrupt
        delivery order and the event kernel's next-arrival deadline.
        """
        q = self._queue
        deliver = cycle + self.latency
        if q and deliver < q[-1][0]:
            raise ValueError(
                f"out-of-order send on {self.name or 'channel'}: cycle "
                f"{cycle} is below the queue tail's {q[-1][0] - self.latency}"
            )
        q.append((deliver, item))
        sim = self._wake_sim
        # wake() no-ops unless the consumer sleeps past the delivery
        # cycle; checking its status here skips the call on the hot path
        # (deliver > sim.cycle always holds, so no clamping is needed)
        if sim is not None and sim._status[self._wake_idx] > deliver:
            sim.wake(self._wake_idx, deliver)

    def recv_ready(self, cycle: int) -> list[T]:
        """Every item whose delivery time has arrived, drained eagerly.

        Returns a list rather than a lazy generator: a caller that stops
        iterating early must not leave already-due items queued for a
        later cycle, which would silently reorder delivery relative to
        the credits accompanying them.
        """
        q = self._queue
        if not q or q[0][0] > cycle:
            return []
        out: list[T] = []
        while q and q[0][0] <= cycle:
            out.append(q.popleft()[1])
        return out

    @property
    def next_deadline(self) -> int | None:
        """Delivery cycle of the oldest in-flight item, or None."""
        q = self._queue
        return q[0][0] if q else None

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def empty(self) -> bool:
        """True when nothing is in flight on this channel."""
        return not self._queue

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Channel({self.name or '?'}, lat={self.latency}, n={len(self)})"

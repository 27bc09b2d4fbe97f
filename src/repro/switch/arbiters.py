"""Round-robin arbiters and per-VC packet stream locks.

Arbitration discipline (matching BookSim's tiled-switch model):

* flits of *different* VCs may interleave cycle-by-cycle on any shared
  resource (row bus, tile output, output mux, link);
* flits of the *same* VC on a shared resource must not interleave between
  packets, so resources fed by multiple sources per VC hold a
  :class:`VcStreamLock` from head to tail.
"""

from __future__ import annotations

from typing import Hashable, Sequence

__all__ = ["RoundRobinArbiter", "VcStreamLock"]


class RoundRobinArbiter:
    """Rotating-priority pick among integer requester indices in [0, n)."""

    __slots__ = ("n", "_next")

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("arbiter needs at least one requester slot")
        self.n = n
        self._next = 0

    def pick(self, eligible: Sequence[int]) -> int:
        """Return the winner among ``eligible`` (non-empty) and rotate."""
        if len(eligible) == 1:
            winner = eligible[0]
        elif not eligible:
            raise ValueError("pick() with no eligible requesters")
        else:
            base = self._next
            n = self.n
            winner = eligible[0]
            best = (winner - base) % n
            for i in eligible[1:]:
                d = (i - base) % n
                if d < best:
                    best = d
                    winner = i
        self._next = (winner + 1) % self.n
        return winner


class VcStreamLock:
    """Per-VC source lock: while a packet streams from one source into a
    shared per-VC queue, no other source may interleave on that VC.

    ``acquire`` is called when a head flit wins, ``release`` when the
    tail flit passes.
    """

    __slots__ = ("_holders",)

    def __init__(self, num_vcs: int) -> None:
        self._holders: list[Hashable | None] = [None] * num_vcs

    def available_to(self, vc: int, source: Hashable) -> bool:
        """True if ``source`` may send on ``vc`` (free or held by it)."""
        holder = self._holders[vc]
        return holder is None or holder == source

    def acquire(self, vc: int, source: Hashable) -> None:
        """Lock ``vc`` to ``source`` (its packet's head flit won)."""
        holder = self._holders[vc]
        if holder is not None and holder != source:
            raise RuntimeError(f"VC {vc} already locked by {holder!r}")
        self._holders[vc] = source

    def release(self, vc: int, source: Hashable) -> None:
        """Free ``vc`` (the holder's tail flit passed)."""
        if self._holders[vc] != source:
            raise RuntimeError(
                f"VC {vc} released by {source!r} but held by "
                f"{self._holders[vc]!r}"
            )
        self._holders[vc] = None

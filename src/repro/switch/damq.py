"""Dynamically Allocated Multi-Queue (DAMQ) buffers and their space accounting.

The paper's ports share one physical memory among six network VCs using a
DAMQ (Tamir & Frazier), and the stashing switch carves a stash partition
out of the same memory (Section III-B/C).  This module implements the
*normal* partition: per-VC FIFOs drawing on a shared flit pool, with a
per-VC private reserve that guarantees every VC can always land one full
packet (forward progress / deadlock safety).

Flow-control discipline
-----------------------
Credits are **flit-granular**, as in BookSim: a flit (head or body) may
advance into a downstream buffer whenever at least one slot is available
to its VC; credits return one per flit as flits *leave* the downstream
buffer.  The sender tracks that space in a :class:`VcSpaceAccounting`
mirror of the downstream buffer (``admit`` per flit sent, ``release``
per credit returned); both sides apply the same rules, so the mirror is
a conservative image of the downstream buffer (it leads arrivals and
lags pops by one link latency each way).  Wormhole packets therefore
trickle through minimal free space, and the per-VC private reserves
needed for deadlock freedom are one or two flits rather than whole
packets, keeping the shared pool — and thus the queueing depth
available before head-of-line blocking — large.
"""

from __future__ import annotations

from repro.switch.flit import Flit

__all__ = ["Damq", "VcSpaceAccounting"]


class VcSpaceAccounting:
    """Shared-pool space accounting with per-VC private reserves.

    ``capacity`` flits total; VC ``v`` owns ``reserves[v]`` private
    flits; the remainder is shared.  A VC's occupancy consumes its
    private reserve first, then shared space.

    The per-VC reserves are not an optimization — they are the deadlock
    guarantee.  With a fully shared pool, packets of one VC can consume
    all buffering and starve the higher (escape) VCs whose progress
    would eventually free them, closing a cycle; a private reserve of
    one maximum packet per *usable* VC restores the strictly-increasing
    VC ladder argument (each VC's packets can always land downstream
    once the current occupant of the private slot advances, by induction
    from the always-sinking ejection ports).  Real DAMQ designs reserve
    per-VC minimums for exactly this reason.
    """

    __slots__ = (
        "num_vcs",
        "capacity",
        "reserves",
        "committed",
        "_shared_used",
        "shared_capacity",
        "_total",
        "peak_committed",
    )

    def __init__(
        self, num_vcs: int, capacity: int, reserve: "int | list[int]"
    ) -> None:
        if num_vcs < 1:
            raise ValueError("need at least one VC")
        if isinstance(reserve, int):
            reserves = [reserve] * num_vcs
        else:
            reserves = list(reserve)
            if len(reserves) != num_vcs:
                raise ValueError("one reserve entry required per VC")
        if any(r < 0 for r in reserves):
            raise ValueError("reserves must be non-negative")
        if capacity < sum(reserves):
            raise ValueError(
                f"capacity {capacity} cannot cover VC reserves {reserves}"
            )
        self.num_vcs = num_vcs
        self.capacity = capacity
        self.reserves = reserves
        self.committed = [0] * num_vcs
        self._shared_used = 0
        self.shared_capacity = capacity - sum(reserves)
        self._total = 0
        self.peak_committed = 0

    @property
    def total_committed(self) -> int:
        """Flits committed across all VCs (running total, O(1))."""
        return self._total

    def can_admit(self, vc: int, flits: int) -> bool:
        """True if VC ``vc`` could commit ``flits`` more flits right now."""
        private_free = self.reserves[vc] - self.committed[vc]
        if private_free >= flits:
            return True
        if private_free > 0:
            flits -= private_free
        return flits <= self.shared_capacity - self._shared_used

    def admit(self, vc: int, flits: int) -> None:
        """Commit ``flits`` flits to VC ``vc`` (reserve first, then pool)."""
        occ = self.committed[vc]
        reserve = self.reserves[vc]
        new_occ = occ + flits
        over_new = new_occ - reserve
        over_old = occ - reserve
        # the shared-pool delta doubles as the admission check (it is
        # exactly what can_admit() would have required of the pool)
        shared_need = (over_new if over_new > 0 else 0) - (
            over_old if over_old > 0 else 0
        )
        if shared_need > self.shared_capacity - self._shared_used:
            raise RuntimeError(
                f"admit({vc}, {flits}) without space: occ={occ}, "
                f"shared={self._shared_used}/{self.shared_capacity}"
            )
        self.committed[vc] = new_occ
        self._shared_used += shared_need
        total = self._total + flits
        self._total = total
        if total > self.peak_committed:
            self.peak_committed = total

    def release(self, vc: int, flits: int = 1) -> None:
        """Return ``flits`` flits of VC ``vc``'s space to reserve/pool."""
        occ = self.committed[vc]
        if flits > occ:
            raise RuntimeError(f"release({vc}, {flits}) exceeds occupancy {occ}")
        over = occ - self.reserves[vc]
        if over > 0:
            self._shared_used -= over if over < flits else flits
        self.committed[vc] = occ - flits
        self._total -= flits

    def occupancy_fraction(self) -> float:
        """Committed occupancy as a fraction of total capacity."""
        return self.total_committed / self.capacity if self.capacity else 0.0


class Damq:
    """A real DAMQ buffer: per-VC flit FIFOs over shared-pool accounting.

    ``admit_flit`` + ``push`` file one arriving flit (space is guaranteed
    by the sender's mirror).  Input ports pop and release a flit in one
    step (inlined in ``InputPort._advance_vc``, which then owes the
    upstream sender one credit); output ports ``pop_no_release`` and
    release when the link-level retention expires.
    """

    __slots__ = ("space", "queues", "flit_count", "occ_mask")

    def __init__(
        self, num_vcs: int, capacity: int, reserve: "int | list[int]"
    ) -> None:
        self.space = VcSpaceAccounting(num_vcs, capacity, reserve)
        self.queues: list[list[Flit]] = [[] for _ in range(num_vcs)]
        self.flit_count = 0  # fast emptiness check for the cycle loop
        # bit ``v`` set iff ``queues[v]`` is non-empty: the datapath scan
        # loops iterate set bits instead of every VC FIFO
        self.occ_mask = 0

    @property
    def capacity(self) -> int:
        """Total flit capacity of the shared physical memory."""
        return self.space.capacity

    def admit_flit(self, vc: int) -> None:
        """Account one arriving flit of VC ``vc`` (space must be free)."""
        self.space.admit(vc, 1)

    def push(self, vc: int, flit: Flit) -> None:
        """File an admitted flit at the tail of its VC FIFO."""
        self.queues[vc].append(flit)
        self.flit_count += 1
        self.occ_mask |= 1 << vc

    def pop_no_release(self, vc: int) -> Flit:
        """Pop a flit but keep its space committed.  Used by output
        buffers, which retain transmitted flits until the link-level
        acknowledgment round trip completes (Section II); the caller
        releases via ``space.release`` when the retention expires."""
        q = self.queues[vc]
        flit = q.pop(0)
        if not q:
            self.occ_mask &= ~(1 << vc)
        self.flit_count -= 1
        return flit

    @property
    def total_flits(self) -> int:
        """Flits physically queued (excludes popped-but-retained space)."""
        return self.flit_count

    @property
    def total_committed(self) -> int:
        """Flits of space committed, including post-pop retention."""
        return self.space.total_committed

    @property
    def peak_committed(self) -> int:
        """High-water mark of committed occupancy over the buffer's life."""
        return self.space.peak_committed

    def occupancy_fraction(self) -> float:
        """Committed occupancy over capacity (drives ECN detection)."""
        return self.space.occupancy_fraction()

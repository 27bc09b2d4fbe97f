"""Per-port stash partitions and the switch-wide stash directory.

Each stashing-switch port virtually partitions its input + output buffer
memory into a small normal portion and a large stash portion managed as a
single pool (paper Figure 3).  The pool supports the three management
operations of Section III-C — store, retrieve, delete — plus FIFO order
for the congestion use case (Section IV-B).

Unlike the flit-granular normal partitions, stash space is committed at
head-flit time for the *whole* packet (a stored packet must fit — the
partition is storage, not a through-buffer) and released page-aligned
per the two-bank memory model, so a partition can never admit a packet
it cannot finish storing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.switch.flit import Packet

__all__ = ["StashDirectory", "StashJob", "StashPartition"]

# The paper's two-bank port memory (Figure 4, Section III-B) interleaves
# even and odd flit offsets, so a partition moves in pages of one even +
# one odd slot.
PAGE_FLITS = 2


@dataclass(frozen=True)
class StashJob:
    """Transit metadata for flits on the storage (S) VC.

    Carried alongside each S-path flit instead of being written onto the
    packet, because a reliability *copy* shares its Packet object with
    the original that keeps traveling the network: the copy's purpose
    and origin must not race the original's per-hop routing state.

    ``purpose`` is "copy" (end-to-end reliability duplicate, Section
    IV-A) or "divert" (congestion-stashed packet, Section IV-B);
    ``origin_port`` is the end port whose tracker expects the location
    message (copies only).
    """

    purpose: str
    packet: Packet
    origin_port: int = -1

    def __post_init__(self) -> None:
        if self.purpose not in ("copy", "divert"):
            raise ValueError(f"unknown stash purpose {self.purpose!r}")
        if self.purpose == "copy" and self.origin_port < 0:
            raise ValueError("reliability copies must carry their origin port")


def _pages(flits: int) -> int:
    """Flits rounded up to the two-flit page granularity."""
    return -(-flits // PAGE_FLITS) * PAGE_FLITS


class StashPartition:
    """The stash pool of one port.

    ``capacity_flits`` is the pooled stash storage carved from the port's
    input and output buffers (e.g. 7/8 of both for an endpoint port).
    A capacity of zero models ports statically excluded from stashing
    (global ports in the paper's dragonfly).
    """

    __slots__ = (
        "port",
        "capacity",
        "_committed",
        "_stored_pages",
        "_entries",
        "_fifo",
        "_next_location",
        "_dir",
        "_dir_col",
        "stored_total",
        "deleted_total",
        "retrieved_total",
        "peak_committed",
    )

    def __init__(self, port: int, capacity_flits: int) -> None:
        if capacity_flits < 0:
            raise ValueError("stash capacity must be non-negative")
        self.port = port
        self.capacity = (capacity_flits // PAGE_FLITS) * PAGE_FLITS
        self._committed = 0
        # pages of committed space actually holding stored packets; the
        # gap to _committed is space reserved for packets still in flight
        self._stored_pages = 0
        self._entries: dict[int, Packet] = {}
        self._fifo: deque[Packet] = deque()
        self._next_location = 0
        # owning directory and column (set by StashDirectory) so commits
        # and releases maintain the per-column free-space totals in O(1)
        self._dir: "StashDirectory | None" = None
        self._dir_col = -1
        self.stored_total = 0
        self.deleted_total = 0
        self.retrieved_total = 0
        self.peak_committed = 0

    # -- capacity ------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    @property
    def committed_flits(self) -> int:
        return self._committed

    def free_flits(self) -> int:
        return self.capacity - self._committed

    def can_admit(self, flits: int) -> bool:
        return self.enabled and _pages(flits) <= self.free_flits()

    def commit(self, flits: int) -> None:
        """Reserve space for an inbound packet (head-flit time)."""
        pages = _pages(flits)
        if pages > self.free_flits():
            raise RuntimeError(
                f"stash partition of port {self.port} overflow: "
                f"{pages} > {self.free_flits()}"
            )
        self._committed += pages
        if self._dir is not None:
            self._dir.col_free[self._dir_col] -= pages
        self.peak_committed = max(self.peak_committed, self._committed)

    def _release(self, flits: int) -> None:
        pages = _pages(flits)
        if pages > self._committed:
            raise RuntimeError("stash release exceeds committed space")
        self._committed -= pages
        if self._dir is not None:
            self._dir.col_free[self._dir_col] += pages

    def _check_store(self, flits: int) -> int:
        """Validate that a packet landing in the partition fits inside
        space previously reserved via :meth:`commit` (a store without a
        matching commit would let stored packets exceed the two-bank
        memory's real capacity).  Returns the packet's page footprint."""
        pages = _pages(flits)
        if self._stored_pages + pages > self._committed:
            raise RuntimeError(
                f"store of {pages} pages on port {self.port} without a "
                f"matching commit: {self._stored_pages} stored of "
                f"{self._committed} committed"
            )
        return pages

    def occupancy_fraction(self) -> float:
        return self._committed / self.capacity if self.capacity else 0.0

    # -- store / retrieve / delete (Section III-C) ---------------------

    def store(self, packet: Packet) -> int:
        """Record a fully arrived packet; space must already be committed.
        Returns the location index reported in the location message."""
        self._stored_pages += self._check_store(packet.size)
        location = self._next_location
        self._next_location += 1
        self._entries[location] = packet
        self.stored_total += 1
        return location

    def delete(self, location: int) -> None:
        packet = self._entries.pop(location)
        self._stored_pages -= _pages(packet.size)
        self._release(packet.size)
        self.deleted_total += 1

    def retrieve(self, location: int) -> Packet:
        """Remove and return a stored packet for retransmission.  Space is
        released when the packet has been read out (caller's duty via the
        R-VC datapath); we release immediately since the read-out buffer
        space is accounted by the R VC buffers downstream."""
        packet = self._entries.pop(location)
        self._stored_pages -= _pages(packet.size)
        self._release(packet.size)
        self.retrieved_total += 1
        return packet

    def get(self, location: int) -> Packet | None:
        return self._entries.get(location)

    # -- FIFO order for congestion stashing (Section IV-B) -------------

    def push_fifo(self, packet: Packet) -> None:
        """Queue a fully arrived congestion-stashed packet for retrieval;
        space must already be committed."""
        self._stored_pages += self._check_store(packet.size)
        self._fifo.append(packet)
        self.stored_total += 1

    def front_fifo(self) -> Packet | None:
        return self._fifo[0] if self._fifo else None

    def pop_fifo(self) -> Packet:
        packet = self._fifo.popleft()
        self._stored_pages -= _pages(packet.size)
        self._release(packet.size)
        self.retrieved_total += 1
        return packet

    @property
    def fifo_depth(self) -> int:
        return len(self._fifo)


class StashDirectory:
    """Switch-level view of all port partitions.

    Supports the join-shortest-queue placement of Section III-A: ports
    with no stash capacity are statically omitted, and rankings use free
    stash space (the on-chip proxy for "storage VC credits available").
    """

    def __init__(self, partitions: list[StashPartition], cols: int, tile_outputs: int):
        self.partitions = partitions
        self.cols = cols
        self.tile_outputs = tile_outputs
        self._ports_by_col: list[list[int]] = [
            [
                p
                for p in range(len(partitions))
                if p // tile_outputs == c and partitions[p].enabled
            ]
            for c in range(cols)
        ]
        # running free-flit total per column, maintained by the member
        # partitions on commit/release (the JSQ column choice reads this
        # every head flit, so it must not be a sum over partitions)
        self.col_free: list[int] = [
            sum(partitions[p].free_flits() for p in ports)
            for ports in self._ports_by_col
        ]
        for c, ports in enumerate(self._ports_by_col):
            for p in ports:
                partitions[p]._dir = self
                partitions[p]._dir_col = c

    def ports_in_column(self, col: int) -> list[int]:
        """Stash-capable ports reachable through column ``col``."""
        return self._ports_by_col[col]

    def column_free_flits(self, col: int) -> int:
        return self.col_free[col]

    def total_capacity(self) -> int:
        return sum(p.capacity for p in self.partitions)

    def total_committed(self) -> int:
        return sum(p.committed_flits for p in self.partitions)

    def utilization(self) -> float:
        cap = self.total_capacity()
        return self.total_committed() / cap if cap else 0.0

    def stash_columns(self) -> list[int]:
        """Columns containing at least one stash-capable port."""
        return [c for c in range(self.cols) if self._ports_by_col[c]]

"""One tile of the tiled switch: row buffers + I x O crossbar (Figure 2).

Each tile at (row r, column c) receives flits from the I switch inputs of
row r over their multi-drop row buses, buffers them per (input slot, VC),
and arbitrates them through its crossbar onto the O column channels of
column c using a separable output-first allocator with equal priority
across all VCs, including the stashing S and R VCs (paper Section V).

Per-VC packet streams lock a tile output from head to tail (flits of one
VC must not interleave between packets on a column channel), while
different VCs interleave freely cycle by cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.stash import StashJob
from repro.switch.allocators import SeparableOutputFirstAllocator
from repro.switch.arbiters import VcStreamLock
from repro.switch.flit import Flit

if TYPE_CHECKING:  # pragma: no cover
    from repro.switch.tiled_switch import TiledSwitch

__all__ = ["Tile"]


class Tile:
    """One crossbar tile of the R x C array: per-slot row buffers, a
    separable output-first allocator, and credited column channels down
    to the output ports (paper Section II)."""

    __slots__ = (
        "sw",
        "row",
        "col",
        "num_slots",
        "num_outputs",
        "num_vcs",
        "queues",
        "jobs",
        "streams",
        "locks",
        "col_credits",
        "allocator",
        "flits_switched",
        "flit_count",
        "occ",
        "blocked",
    )

    def __init__(self, sw: "TiledSwitch", row: int, col: int) -> None:
        cfg = sw.cfg
        self.sw = sw
        self.row = row
        self.col = col
        self.num_slots = cfg.tile_inputs
        self.num_outputs = cfg.tile_outputs
        self.num_vcs = sw.total_vcs
        # row buffers: per (input slot, vc); capacity is enforced by the
        # feeding input port's credit counters
        self.queues: list[list[list[Flit]]] = [
            [[] for _ in range(self.num_vcs)] for _ in range(self.num_slots)
        ]
        # per-slot VC occupancy bitmask (bit vc set iff queues[slot][vc]
        # non-empty); the crossbar request scan iterates set bits only
        self.occ = [0] * self.num_slots
        # S-path transit metadata parallel to the S queues (one per slot)
        self.jobs: list[list[StashJob]] = [[] for _ in range(self.num_slots)]
        # active packet stream per (slot, vc): target tile output
        self.streams: list[list[int | None]] = [
            [None] * self.num_vcs for _ in range(self.num_slots)
        ]
        self.locks = [VcStreamLock(self.num_vcs) for _ in range(self.num_outputs)]
        # credits into the column buffers of this tile's row at each of
        # the column's output ports, per VC
        self.col_credits = [
            [cfg.col_buffer_flits] * self.num_vcs for _ in range(self.num_outputs)
        ]
        self.allocator = SeparableOutputFirstAllocator(
            self.num_slots, self.num_vcs, self.num_outputs
        )
        self.flits_switched = 0
        self.flit_count = 0
        # quiescence latch (docs/PERFORMANCE.md): True after a crossbar
        # scan proved no buffered flit can advance; cleared by new
        # flits and column-credit returns, so a skipped pass is a
        # provable no-op
        self.blocked = False

    # ------------------------------------------------------------------

    def receive(self, slot: int, vc: int, flit: Flit, job: StashJob | None) -> None:
        """Latch a flit off the row bus into the (slot, vc) row buffer."""
        self.queues[slot][vc].append(flit)
        self.occ[slot] |= 1 << vc
        self.flit_count += 1
        self.blocked = False
        if vc == self.sw.S_VC:
            assert job is not None
            self.jobs[slot].append(job)

    def occupancy(self) -> int:
        """Flits buffered in this tile's row buffers."""
        return self.flit_count

    # ------------------------------------------------------------------

    def crossbar_pass(self) -> None:
        """One internal cycle of crossbar allocation: at most one flit per
        tile input and per tile output advances onto a column channel."""
        if not self.flit_count:
            return
        sw = self.sw
        S_VC, R_VC = sw.S_VC, sw.R_VC
        requests: list[tuple[int, int, int]] = []
        head_targets: dict[tuple[int, int], int] = {}
        s_deferred = False

        occ = self.occ
        all_queues = self.queues
        all_streams = self.streams
        col_credits = self.col_credits
        locks = self.locks
        num_outputs = self.num_outputs
        for slot in range(self.num_slots):
            mask = occ[slot]
            if not mask:
                continue
            slot_queues = all_queues[slot]
            slot_streams = all_streams[slot]
            while mask:  # occupied VCs in ascending order
                vc = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                target = slot_streams[vc]
                if target is not None:
                    if col_credits[target][vc] >= 1:
                        requests.append((slot, vc, target))
                    continue
                flit = slot_queues[vc][0]
                if not flit.head:
                    raise AssertionError(
                        f"non-head flit {flit!r} at stream start in tile "
                        f"({self.row},{self.col}) slot {slot} vc {vc}"
                    )
                pkt = flit.pkt
                if vc == S_VC:
                    out = self._pick_stash_output(slot, pkt.size)
                    if out is None:
                        # stash picks depend on partition free space,
                        # which has no unblock hook here: never latch
                        # blocked while an S head is waiting
                        s_deferred = True
                else:
                    if vc == R_VC:
                        out = pkt.intended_out_port % num_outputs
                    else:
                        out = pkt.out_port % num_outputs
                    # a head starts only with a column-buffer credit and
                    # the output's VC stream lock free to this slot
                    if col_credits[out][vc] < 1 or not locks[
                        out
                    ].available_to(vc, slot):
                        out = None
                if out is not None:
                    requests.append((slot, vc, out))
                    head_targets[(slot, vc)] = out

        if not requests:
            if not s_deferred:
                self.blocked = True
            return
        # winners advance: pop the row buffer, manage the stream locks,
        # and latch directly into the output port's column buffer
        out_ports = sw.out_ports
        in_ports = sw.in_ports
        jobs = self.jobs
        row = self.row
        col = self.col
        in_base = row * self.num_slots
        col_base = col * num_outputs
        n_adv = 0
        allocator = self.allocator
        if len(requests) == 1:
            # lone request: both allocator stages grant it unopposed;
            # advance the two arbiters exactly as allocate() would have
            inp_r, vc_r, out_r = requests[0]
            arb = allocator._out_arbiters[out_r]
            arb._next = (inp_r * self.num_vcs + vc_r + 1) % arb.n
            arb = allocator._in_arbiters[inp_r]
            arb._next = (out_r + 1) % arb.n
            accepted = requests
        else:
            accepted = allocator.allocate(requests)
        for slot, vc, out in accepted:
            q = all_queues[slot][vc]
            flit = q.pop(0)
            if not q:
                occ[slot] &= ~(1 << vc)
            job = jobs[slot].pop(0) if vc == S_VC else None
            op = out_ports[col_base + out]
            if (slot, vc) in head_targets:
                locks[out].acquire(vc, slot)
                all_streams[slot][vc] = out
                if vc == S_VC:
                    # reserve partition space now so the S column buffer
                    # can always drain into the partition (feed-forward
                    # S path)
                    op.partition.commit(flit.pkt.size)
            col_credits[out][vc] -= 1
            if flit.tail:
                locks[out].release(vc, slot)
                all_streams[slot][vc] = None
            op.col_buffers[row][vc].append(flit)
            op.col_occ[row] |= 1 << vc
            op._mux_blocked = False
            if vc == S_VC:
                op.col_jobs[row].append(job)
                op.col_flits_s += 1
            else:
                op.col_flits += 1
            # row-buffer space freed: credit the feeding input port
            in_ports[in_base + slot].row_credits[col][vc] += 1
            n_adv += 1
        self.flit_count -= n_adv
        self.flits_switched += n_adv

    def _pick_stash_output(self, slot: int, size: int) -> int | None:
        """Join-shortest-queue within the column: the output port whose
        stash partition has the most free space, among ports whose S
        column buffer can take the whole packet (Section III-A)."""
        sw = self.sw
        directory = sw.stash_dir
        assert directory is not None
        S_VC = sw.S_VC
        random_pick = sw.stash_placement == "random"
        eligible: list[int] = []
        best: int | None = None
        best_free = -1
        for port in directory.ports_in_column(self.col):
            out = port % self.num_outputs
            if self.col_credits[out][S_VC] < 1:
                continue
            if not self.locks[out].available_to(S_VC, slot):
                continue
            partition = sw.out_ports[port].partition
            if not partition.can_admit(size):
                continue
            if random_pick:
                eligible.append(out)
            else:
                free = partition.free_flits()
                if free > best_free:
                    best, best_free = out, free
        if random_pick:
            return sw.rng.choice(eligible) if eligible else None
        return best


"""Switch input and output ports.

InputPort: the per-port DAMQ, route computation at head-of-VC, row-bus
arbitration (including the multi-drop duplication used by reliability
stashing, the congestion-stash diversion, and R-VC retrieval from the
port's stash partition), and credit return to the upstream sender.

OutputPort: the per-(row, VC) column buffers, the R-to-1 output
multiplexer (which re-files R-VC flits into their original output VC and
terminates S-VC flits in the stash partition), the output DAMQ with
link-level-retransmission retention, and link egress with credit-based
flow control toward the downstream input buffer.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.core.stash import StashJob, StashPartition
from repro.engine.channel import Channel
from repro.obs.events import EventTrace
from repro.switch.arbiters import RoundRobinArbiter, VcStreamLock
from repro.switch.damq import Damq, VcSpaceAccounting
from repro.switch.flit import Flit, PacketKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocol.link import LinkReceiver, LinkSender
    from repro.switch.tiled_switch import TiledSwitch

__all__ = ["InputPort", "OutputPort"]

#: plan tags used by the row-bus stage (retrieval has its own path)
_NORMAL, _DUP, _DIVERT = 0, 1, 2


class InputPort:
    """One switch input port: link ingress, the normal DAMQ partition,
    ECN marking / stash diversion decisions at the route stage, and the
    row bus feeding this port's tile row (paper Sections II-III)."""

    __slots__ = (
        "sw",
        "idx",
        "row",
        "slot",
        "is_end_port",
        "damq",
        "flit_in",
        "credit_out",
        "link_rx",
        "row_credits",
        "head_route",
        "streams",
        "s_owner",
        "rb_arbiter",
        "_plans",
        "partition",
        "retrieval_queue",
        "retrieval",
        "obs",
        "flits_received",
        "flits_sent",
        "packets_marked",
        "packets_diverted",
        "copies_dispatched",
        "stall_no_stash",
    )

    def __init__(
        self,
        sw: "TiledSwitch",
        idx: int,
        normal_capacity: int,
        reserves: "int | list[int]" = 0,
    ) -> None:
        cfg = sw.cfg
        self.sw = sw
        self.idx = idx
        self.row = idx // cfg.tile_inputs
        self.slot = idx % cfg.tile_inputs
        self.is_end_port = idx in sw.end_port_set
        self.damq = Damq(sw.total_vcs, normal_capacity, reserve=reserves)
        self.flit_in: Channel | None = None
        self.credit_out: Channel | None = None
        # link-level retransmission receiver (switch-to-switch links
        # only, when LinkParams.enabled); see repro.protocol.link
        self.link_rx: LinkReceiver | None = None
        self.row_credits = [
            [cfg.row_buffer_flits] * sw.total_vcs for _ in range(cfg.cols)
        ]
        # route decision for the packet currently at the front of each VC
        self.head_route: list[tuple[int, int] | None] = [None] * sw.total_vcs
        # active stream per VC: (plan, normal_col, stash_col, job)
        self.streams: list[tuple[int, int, int, StashJob | None] | None] = [
            None
        ] * sw.total_vcs
        # the storage VC is one wormhole stream per input: at most one
        # packet (copy, diversion, or retrieval re-copy) may occupy the
        # S path from this slot at a time (owner: vc index, or -2 for
        # the retrieval path)
        self.s_owner: int | None = None
        # one arbitration slot per VC plus one for the retrieval path
        self.rb_arbiter = RoundRobinArbiter(sw.total_vcs + 1)
        # scratch plan-per-VC buffer reused across rowbus passes (only
        # entries written in the current pass are ever read back)
        self._plans: list = [None] * sw.total_vcs
        # the port's stash partition (shared object with the output side)
        self.partition: StashPartition | None = None
        # retransmission clones waiting to re-enter the network
        self.retrieval_queue: deque = deque()
        # in-progress retrieval: [packet, next_flit_index, col, dup_col]
        self.retrieval: list | None = None
        # event trace when obs tracing is enabled, else None (zero cost)
        self.obs: EventTrace | None = None
        self.flits_received = 0
        self.flits_sent = 0
        self.packets_marked = 0
        self.packets_diverted = 0
        self.copies_dispatched = 0
        self.stall_no_stash = 0

    # ------------------------------------------------------------------

    @property
    def congested(self) -> bool:
        """ECN congestion state (paper Section IV-B): occupancy of the
        normal input buffer above the configured threshold."""
        return (
            self.damq.occupancy_fraction() > self.sw.ecn_threshold
        )

    def ingress(self, cycle: int) -> None:
        """Drain the link: file arriving flits into the DAMQ."""
        ch = self.flit_in
        if ch is None:
            return
        if self.link_rx is not None:
            self._ingress_link_protocol(cycle)
            return
        q = ch._queue
        if not q or q[0][0] > cycle:
            return
        damq = self.damq
        space = damq.space
        committed = space.committed
        reserves = space.reserves
        queues = damq.queues
        mask = damq.occ_mask
        n = 0
        while q and q[0][0] <= cycle:
            vc, flit = q.popleft()[1]
            if flit.head:
                flit.pkt.vc = vc
            # inline space.admit(vc, 1), keeping its overflow guard (a
            # violation here means a credit-accounting bug upstream)
            occ = committed[vc]
            if occ >= reserves[vc]:
                if space._shared_used >= space.shared_capacity:
                    raise RuntimeError(
                        f"admit({vc}, 1) without space: occ={occ}, "
                        f"shared={space._shared_used}/"
                        f"{space.shared_capacity}"
                    )
                space._shared_used += 1
            committed[vc] = occ + 1
            total = space._total + 1
            space._total = total
            if total > space.peak_committed:
                space.peak_committed = total
            queues[vc].append(flit)
            mask |= 1 << vc
            n += 1
        damq.occ_mask = mask
        damq.flit_count += n
        self.sw.inflight += n
        self.flits_received += n

    def _ingress_link_protocol(self, cycle: int) -> None:
        """Go-back-N receive path: only clean, in-sequence flits enter
        the buffer; control messages ride the credit wire (vc -1)."""
        assert self.flit_in is not None and self.credit_out is not None
        for seq, vc, flit, corrupted in self.flit_in.recv_ready(cycle):
            accept, control = self.link_rx.receive(seq, corrupted, flit.tail)
            for msg in control:
                self.credit_out.send((-1, msg), cycle)
            if not accept:
                continue
            if flit.head:
                flit.pkt.vc = vc
            self.damq.admit_flit(vc)
            self.damq.push(vc, flit)
            self.sw.inflight += 1
            self.flits_received += 1

    # ------------------------------------------------------------------
    # row-bus stage
    # ------------------------------------------------------------------

    def rowbus_pass(self, cycle: int) -> None:
        """One row-bus arbitration: at most one flit (from a VC stream or
        the retrieval path) advances onto this input's row bus.

        Callers gate on work being present (buffered flits or retrieval
        state) — see TiledSwitch.step; an ungated call is still safe,
        merely a slower no-op."""
        sw = self.sw
        total_vcs = sw.total_vcs
        eligible: list[int] = []
        plans = self._plans

        congested = False
        if sw.congestion_stash_on:
            congested = self.congested

        queues = self.damq.queues
        streams = self.streams
        row_credits = self.row_credits
        S_VC = sw.S_VC
        mask = self.damq.occ_mask
        while mask:  # occupied VCs in ascending order
            vc = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            stream = streams[vc]
            if stream is not None:
                # flit-granular flow control: a continuing stream's flit
                # needs a free slot in each row buffer its plan writes
                kind, col, stash_col, _job = stream
                if kind == _NORMAL:
                    ok = row_credits[col][vc] >= 1
                elif kind == _DUP:
                    ok = (
                        row_credits[col][vc] >= 1
                        and row_credits[stash_col][S_VC] >= 1
                    )
                else:  # _DIVERT
                    ok = row_credits[stash_col][S_VC] >= 1
                if ok:
                    eligible.append(vc)
                    plans[vc] = stream
                continue
            plan = self._plan_head(vc, queues[vc][0], congested)
            if plan is not None:
                eligible.append(vc)
                plans[vc] = plan

        if (
            self.retrieval is not None
            or self.retrieval_queue
            or (self.partition is not None and self.partition._fifo)
        ):
            if self._plan_retrieval() is not None:
                eligible.append(total_vcs)

        if not eligible:
            return
        winner = self.rb_arbiter.pick(eligible)
        if winner == total_vcs:
            self._advance_retrieval(cycle)
        else:
            self._advance_vc(winner, plans[winner], cycle)

    def _plan_head(
        self, vc: int, flit: Flit, congested: bool
    ) -> tuple[int, int, int, StashJob | None] | None:
        """Decide what the head packet of this VC queue would do if it won
        the row bus; None means it stalls this cycle."""
        if not flit.head:
            raise AssertionError(f"stream-less non-head flit {flit!r}")
        sw = self.sw
        pkt = flit.pkt
        if self.head_route[vc] is None:
            out_port, next_vc = sw.router.route(sw, self.idx, pkt)
            pkt.out_port = out_port
            pkt.next_vc = next_vc
            self.head_route[vc] = (out_port, next_vc)
        out_port, _ = self.head_route[vc]
        col = out_port // sw.t_outputs
        size = pkt.size

        needs_copy = (
            sw.reliability_on
            and self.is_end_port
            and pkt.kind == PacketKind.DATA
        )
        normal_ok = self.row_credits[col][vc] >= 1

        if needs_copy:
            # paper Section IV-A: forward progress requires BOTH the
            # normal path and a stash path; otherwise the input stalls.
            stash_col = self._jsq_column(size) if self.s_owner is None else None
            if normal_ok and stash_col is not None:
                job = StashJob("copy", pkt, origin_port=self.idx)
                return (_DUP, col, stash_col, job)
            self.stall_no_stash += 1
            return None

        if normal_ok:
            return (_NORMAL, col, -1, None)

        # paper Section IV-B: stash-on-congestion requires (1) head of a
        # congested input, (2) destination is an end port of this switch,
        # (3) the normal VC is blocked, (4) the storage VC can advance.
        if (
            congested
            and pkt.kind == PacketKind.DATA
            and out_port in sw.end_port_set
            and self.s_owner is None
        ):
            stash_col = self._jsq_column(size)
            if stash_col is not None:
                pkt.intended_out_port = out_port
                pkt.final_vc = vc
                job = StashJob("divert", pkt)
                return (_DIVERT, -1, stash_col, job)
        return None

    def _jsq_column(self, size: int) -> int | None:
        """Storage-VC column choice: among columns with stash-capable
        ports, a free S row-buffer slot, and partition room for the
        whole packet, pick the one with the most free stash space
        (join-shortest-queue, Section III-A) or uniformly at random
        (ablation baseline)."""
        sw = self.sw
        directory = sw.stash_dir
        if directory is None:
            return None
        S_VC = sw.S_VC
        if sw.stash_placement == "random":
            eligible = [
                col
                for col in directory.stash_columns()
                if self.row_credits[col][S_VC] >= 1
                and directory.column_free_flits(col) >= size
            ]
            return sw.rng.choice(eligible) if eligible else None
        best: int | None = None
        best_free = -1
        for col in directory.stash_columns():
            if self.row_credits[col][S_VC] < 1:
                continue
            free = directory.column_free_flits(col)
            if free >= size and free > best_free:
                best, best_free = col, free
        return best

    def _advance_vc(
        self, vc: int, plan: tuple[int, int, int, StashJob | None], cycle: int
    ) -> None:
        sw = self.sw
        kind, col, stash_col, job = plan
        # inline queue pop + space.release(vc, 1)
        damq = self.damq
        q = damq.queues[vc]
        flit = q.pop(0)
        if not q:
            damq.occ_mask &= ~(1 << vc)
        damq.flit_count -= 1
        space = damq.space
        occ = space.committed[vc]
        if occ > space.reserves[vc]:
            space._shared_used -= 1
        space.committed[vc] = occ - 1
        space._total -= 1
        pkt = flit.pkt
        credit_out = self.credit_out
        if credit_out is not None:  # the freed slot's credit goes upstream
            credit_out.send((vc, 1), cycle)
        self.flits_sent += 1

        if flit.head:
            self.head_route[vc] = None
            self.streams[vc] = plan
            # ECN marking: congested inputs mark every data packet they
            # forward toward a destination (Section IV-B)
            if (
                sw.ecn_on
                and pkt.kind == PacketKind.DATA
                and self.congested
            ):
                pkt.ecn = True
                self.packets_marked += 1
                if self.obs is not None:
                    self.obs.emit(cycle, "ecn.mark", sw.switch_id, self.idx,
                                  vc, pkt.pid, pkt.size)
            if kind == _DUP:
                self.s_owner = vc
                assert job is not None
                sw.on_copy_dispatched(self.idx, pkt)
                self.copies_dispatched += 1
            elif kind == _DIVERT:
                self.s_owner = vc
                self.packets_diverted += 1
        # flit-granular credit consumption on every row buffer written
        if kind in (_NORMAL, _DUP):
            self.row_credits[col][vc] -= 1
        if kind in (_DUP, _DIVERT):
            self.row_credits[stash_col][sw.S_VC] -= 1
        if flit.tail:
            self.streams[vc] = None
            if kind in (_DUP, _DIVERT) and self.s_owner == vc:
                self.s_owner = None

        row_tiles = sw.tiles[self.row]
        if kind == _NORMAL:
            row_tiles[col].receive(self.slot, vc, flit, None)
        elif kind == _DUP:
            # multi-drop broadcast: the same wire value is latched by the
            # normal VC buffer and the storage VC buffer simultaneously,
            # consuming one row-bus slot (Section III-A)
            row_tiles[col].receive(self.slot, vc, flit, None)
            row_tiles[stash_col].receive(self.slot, sw.S_VC, flit, job)
            sw.inflight += 1  # the duplicate is a second buffered instance
        else:  # _DIVERT
            row_tiles[stash_col].receive(self.slot, sw.S_VC, flit, job)

    # ------------------------------------------------------------------
    # retrieval (R VC) from this port's stash partition
    # ------------------------------------------------------------------

    def _plan_retrieval(self) -> bool | None:
        sw = self.sw
        R_VC = sw.R_VC
        if self.retrieval is not None:
            pkt, _idx, col, dup_col = self.retrieval
            if self.row_credits[col][R_VC] < 1:
                return None
            if dup_col >= 0 and self.row_credits[dup_col][sw.S_VC] < 1:
                return None
            return True
        # retransmission clones first, then the congestion FIFO
        if self.retrieval_queue:
            pkt = self.retrieval_queue[0]
            # a retransmission wants a fresh stash copy, which needs the
            # (single-stream) S path of this input to be free
            if (
                sw.reliability_on
                and pkt.kind == PacketKind.DATA
                and self.s_owner is not None
            ):
                return None
        elif self.partition is not None and self.partition._fifo:
            pkt = self.partition.front_fifo()
        else:
            return None
        col = pkt.intended_out_port // sw.t_outputs
        if self.row_credits[col][R_VC] < 1:
            return None
        return True

    def _advance_retrieval(self, cycle: int) -> None:
        sw = self.sw
        R_VC = sw.R_VC
        if self.retrieval is None:
            if self.retrieval_queue:
                pkt = self.retrieval_queue.popleft()
                dup_needed = sw.reliability_on and pkt.kind == PacketKind.DATA
            else:
                assert self.partition is not None
                pkt = self.partition.pop_fifo()
                dup_needed = False
                if self.obs is not None:
                    self.obs.emit(cycle, "stash.retrieve", sw.switch_id,
                                  self.idx, -1, pkt.pid, pkt.size)
            col = pkt.intended_out_port // sw.t_outputs
            dup_col = -1
            if dup_needed and self.s_owner is None:
                # a retransmitted packet is a fresh injection and gets a
                # fresh stash copy so it remains covered end-to-end
                jsq = self._jsq_column(pkt.size)
                if jsq is not None:
                    dup_col = jsq
                    self.s_owner = -2  # retrieval path owns the S stream
            self.retrieval = [pkt, 0, col, dup_col]
            sw.inflight += pkt.size
            if dup_col >= 0:
                sw.inflight += pkt.size

        pkt, idx, col, dup_col = self.retrieval
        flit = Flit(pkt, idx)
        row_tiles = sw.tiles[self.row]
        self.row_credits[col][R_VC] -= 1
        row_tiles[col].receive(self.slot, R_VC, flit, None)
        if dup_col >= 0:
            self.row_credits[dup_col][sw.S_VC] -= 1
            job = StashJob("copy", pkt, origin_port=pkt.stash_origin_port)
            row_tiles[dup_col].receive(self.slot, sw.S_VC, flit, job)
            if flit.head:
                sw.on_copy_dispatched(pkt.stash_origin_port, pkt)
        self.retrieval[1] = idx + 1
        if flit.tail:
            if dup_col >= 0 and self.s_owner == -2:
                self.s_owner = None
            self.retrieval = None


class OutputPort:
    """One switch output port: column buffers from every tile row, the
    output mux, the normal output DAMQ with link-level retention, stash
    store/drain plumbing, and link egress (paper Sections II-III)."""

    __slots__ = (
        "sw",
        "idx",
        "is_end_port",
        "col_buffers",
        "col_jobs",
        "col_streams",
        "mux_lock",
        "mux_arbiter",
        "sdrain_arbiter",
        "sdrain_stream",
        "out_damq",
        "mirror",
        "flit_out",
        "credit_in",
        "retention",
        "pending_release",
        "link_streams",
        "link_lock",
        "link_arbiter",
        "link_tx",
        "partition",
        "stash_staging",
        "obs",
        "flits_sent",
        "credit_stalls",
        "col_flits",
        "col_flits_s",
        "col_occ",
        "_non_s_mask",
        "_col",
        "_o_local",
        "_rows",
        "_mux_blocked",
        "_egress_blocked",
    )

    def __init__(
        self,
        sw: "TiledSwitch",
        idx: int,
        normal_capacity: int,
        reserves: "int | list[int]" = 0,
    ) -> None:
        cfg = sw.cfg
        self.sw = sw
        self.idx = idx
        self.is_end_port = idx in sw.end_port_set
        rows = cfg.rows
        self.col_flits = 0  # non-S flits buffered in the column buffers
        self.col_flits_s = 0  # S flits awaiting the partition write port
        self.col_buffers: list[list[list[Flit]]] = [
            [[] for _ in range(sw.total_vcs)] for _ in range(rows)
        ]
        # per-row VC occupancy bitmasks over col_buffers (bit vc set iff
        # col_buffers[row][vc] non-empty); the mux scans set bits only
        self.col_occ = [0] * rows
        self._non_s_mask = ~(1 << sw.S_VC)
        # static geometry, cached for the mux/drain hot paths
        self._col = idx // cfg.tile_outputs
        self._o_local = idx % cfg.tile_outputs
        self._rows = rows
        self.col_jobs: list[list[StashJob]] = [[] for _ in range(rows)]
        # active stream per (row, vc): destination VC in the output buffer
        self.col_streams: list[list[int | None]] = [
            [None] * sw.total_vcs for _ in range(rows)
        ]
        self.mux_lock = VcStreamLock(sw.total_vcs)
        self.mux_arbiter = RoundRobinArbiter(rows * sw.total_vcs)
        self.sdrain_arbiter = RoundRobinArbiter(rows)
        # the partition write port serves one packet stream at a time
        self.sdrain_stream: int | None = None
        self.out_damq = Damq(sw.total_vcs, normal_capacity, reserve=reserves)
        # downstream input buffer space, as seen from this end of the link
        self.mirror: VcSpaceAccounting | None = None
        self.flit_out: Channel | None = None
        self.credit_in: Channel | None = None
        # link-level retransmission: output-buffer space is held for one
        # link round trip after transmission (Section II)
        self.retention = 4
        self.pending_release: deque[tuple[int, int]] = deque()
        self.link_streams: list[int | None] = [None] * sw.total_vcs
        # several output VC queues can map onto the same downstream VC
        # (the deadlock ladder is many-to-one), so the downstream VC is a
        # shared per-VC resource that must be locked from head to tail
        self.link_lock = VcStreamLock(sw.total_vcs)
        self.link_arbiter = RoundRobinArbiter(sw.total_vcs)
        # link-level retransmission sender (see repro.protocol.link);
        # when set, output space is released by cumulative ACKs instead
        # of the fixed retention timer
        self.link_tx: LinkSender | None = None
        self.partition: StashPartition | None = None
        # S flits accumulated until the tail completes the stored packet
        self.stash_staging: list[tuple[Flit, StashJob]] = []
        # event trace when obs tracing is enabled, else None (zero cost)
        self.obs: EventTrace | None = None
        self.flits_sent = 0
        self.credit_stalls = 0
        # quiescence latches (docs/PERFORMANCE.md): True after a scan
        # proved no flit can advance; cleared by every event that could
        # unblock the stage, so a skipped pass is a provable no-op
        self._mux_blocked = False
        self._egress_blocked = False

    # ------------------------------------------------------------------

    def apply_credits(self, cycle: int) -> None:
        """Drain the credit channel into the downstream mirror (and the
        link-protocol sender, which rides the same wire)."""
        ch = self.credit_in
        mirror = self.mirror
        if ch is None or mirror is None:
            return
        credits = ch.recv_ready(cycle)
        if not credits:
            return
        release = mirror.release
        for vc, n in credits:
            if vc == -1:
                self._apply_link_control(n)
            else:
                release(vc, n)
        # downstream space (or a link ACK/NACK) arrived: egress may
        # proceed, and an ACK freeing output space may unblock the mux
        self._egress_blocked = False
        self._mux_blocked = False

    def _apply_link_control(self, msg: tuple) -> None:
        """ACK/NACK from the downstream link receiver."""
        assert self.link_tx is not None
        kind, seq = msg
        if kind == "ack":
            for damq_vc, flits in self.link_tx.on_ack(seq):
                self.out_damq.space.release(damq_vc, flits)
        else:
            self.link_tx.on_nack(seq)

    def release_retained(self, cycle: int) -> None:
        """Free output-buffer space whose implicit-ack retention expired."""
        pending = self.pending_release
        release = self.out_damq.space.release
        while pending and pending[0][0] <= cycle:
            release(pending.popleft()[1])
        self._mux_blocked = False  # output-buffer space freed

    # ------------------------------------------------------------------
    # output multiplexer: R column buffers -> output buffer (1 flit/pass)
    # ------------------------------------------------------------------

    def mux_pass(self) -> None:
        """One output-mux arbitration: move at most one flit from the
        column buffers into the output DAMQ (R flits re-file to their
        original VC; S flits drain via :meth:`stash_drain_pass`)."""
        if not self.col_flits:
            return
        sw = self.sw
        total_vcs = sw.total_vcs
        R_VC = sw.R_VC
        eligible: list[int] = []
        dests: dict[int, int] = {}

        non_s = self._non_s_mask
        col_occ = self.col_occ
        col_buffers = self.col_buffers
        col_streams = self.col_streams
        # single-flit admission check, inlined from VcSpaceAccounting:
        # a VC can take one more flit iff its private reserve has room
        # or the shared pool does
        space = self.out_damq.space
        committed = space.committed
        reserves = space.reserves
        shared_free = space._shared_used < space.shared_capacity
        mux_holders = self.mux_lock._holders
        for row in range(self._rows):
            # S flits drain into the partition instead, so mask them out
            mask = col_occ[row] & non_s
            if not mask:
                continue
            buffers = col_buffers[row]
            streams = col_streams[row]
            base = row * total_vcs
            while mask:  # occupied VCs in ascending order
                vc = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                dest = streams[vc]
                if dest is not None:
                    if shared_free or committed[dest] < reserves[dest]:
                        key = base + vc
                        eligible.append(key)
                        dests[key] = dest
                    continue
                flit = buffers[vc][0]
                assert flit.head, "stream-less non-head flit at output mux"
                pkt = flit.pkt
                # retrieved packets return to their original output VC
                dest = pkt.final_vc if vc == R_VC else vc
                holder = mux_holders[dest]
                if holder is not None and holder != (row, vc):
                    continue
                if not (shared_free or committed[dest] < reserves[dest]):
                    continue
                key = base + vc
                eligible.append(key)
                dests[key] = dest

        if not eligible:
            # nothing can advance until a new flit, output space, or a
            # holder release arrives; all three clear the latch
            self._mux_blocked = True
            return
        key = self.mux_arbiter.pick(eligible)
        row, vc = divmod(key, total_vcs)
        dest = dests[key]
        q = col_buffers[row][vc]
        flit = q.pop(0)
        if not q:
            col_occ[row] &= ~(1 << vc)
        self.col_flits -= 1
        if flit.head:
            self.mux_lock.acquire(dest, (row, vc))
            col_streams[row][vc] = dest
        if flit.tail:
            self.mux_lock.release(dest, (row, vc))
            col_streams[row][vc] = None
        out_damq = self.out_damq
        # inline admit(dest, 1) + push: eligibility was checked above and
        # nothing has admitted in between (one winner per pass)
        occ = committed[dest]
        committed[dest] = occ + 1
        if occ >= reserves[dest]:
            space._shared_used += 1
        total = space._total + 1
        space._total = total
        if total > space.peak_committed:
            space.peak_committed = total
        out_damq.queues[dest].append(flit)
        out_damq.flit_count += 1
        out_damq.occ_mask |= 1 << dest
        self._egress_blocked = False  # new flit for the link
        # column-buffer space freed: credit the tile
        tile = sw.tiles[row][self._col]
        tile.col_credits[self._o_local][vc] += 1
        tile.blocked = False

    # ------------------------------------------------------------------
    # S-VC drain: column buffers -> stash partition (1 flit/pass)
    # ------------------------------------------------------------------

    def stash_drain_pass(self, cycle: int) -> None:
        """One partition-write-port arbitration: move at most one S-VC
        flit from the column buffers into the stash partition."""
        if not self.col_flits_s:
            return
        sw = self.sw
        S_VC = sw.S_VC
        # the partition write port locks to one packet stream (one row)
        # from head to tail so stored packets never interleave
        if self.sdrain_stream is not None:
            row = self.sdrain_stream
            if not self.col_buffers[row][S_VC]:
                return
        else:
            rows = [r for r in range(self._rows) if self.col_buffers[r][S_VC]]
            if not rows:
                return
            row = self.sdrain_arbiter.pick(rows)
            self.sdrain_stream = row
        q = self.col_buffers[row][S_VC]
        flit = q.pop(0)
        if not q:
            self.col_occ[row] &= ~(1 << S_VC)
        self.col_flits_s -= 1
        job = self.col_jobs[row].pop(0)
        tile = sw.tiles[row][self._col]
        tile.col_credits[self._o_local][S_VC] += 1
        tile.blocked = False  # S column-buffer credit returned
        sw.inflight -= 1
        self.stash_staging.append((flit, job))
        if flit.tail:
            self.sdrain_stream = None
            self._complete_store(cycle)

    def _complete_store(self, cycle: int) -> None:
        """The tail flit of a stashed packet reached the partition."""
        sw = self.sw
        assert self.partition is not None
        job = self.stash_staging[-1][1]
        if len(self.stash_staging) != job.packet.size:
            raise AssertionError(
                f"interleaved stash store at port {self.idx}: staged "
                f"{len(self.stash_staging)} flits for a {job.packet.size}-flit packet"
            )
        self.stash_staging.clear()
        if job.purpose == "copy":
            location = self.partition.store(job.packet)
            sw.send_location(self.idx, job, location, cycle)
        else:
            self.partition.push_fifo(job.packet)
        if self.obs is not None:
            self.obs.emit(cycle, "stash.store", sw.switch_id, self.idx, -1,
                          job.packet.pid, job.packet.size)

    # ------------------------------------------------------------------
    # link egress (channel clock: one flit per cycle)
    # ------------------------------------------------------------------

    def egress(self, cycle: int) -> None:
        """Transmit at most one flit onto the link, credit permitting."""
        if self.flit_out is None:
            return
        if self.link_tx is not None:
            # go-back-N replay takes the link cycle ahead of new flits
            wire = self.link_tx.pop_replay()
            if wire is not None:
                self.flit_out.send(wire, cycle)
                self.flits_sent += 1
                return
        damq = self.out_damq
        if not damq.flit_count:
            return
        sw = self.sw
        eligible: list[int] = []
        link_vcs: dict[int, int] = {}
        queues = damq.queues
        link_streams = self.link_streams
        mirror = self.mirror
        # single-flit downstream-credit check, inlined from
        # VcSpaceAccounting.can_admit (see mux_pass); the scan admits
        # nothing, so the shared-pool headroom is loop-invariant
        if mirror is None:
            m_committed = m_reserves = None
            m_shared_free = True
        else:
            m_committed = mirror.committed
            m_reserves = mirror.reserves
            m_shared_free = mirror._shared_used < mirror.shared_capacity
        link_holders = self.link_lock._holders
        is_end_port = self.is_end_port
        mask = damq.occ_mask
        while mask:  # occupied VCs in ascending order
            vc = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            stream = link_streams[vc]
            if stream is not None:
                if (
                    m_committed is None
                    or m_shared_free
                    or m_committed[stream] < m_reserves[stream]
                ):
                    eligible.append(vc)
                    link_vcs[vc] = stream
                continue
            flit = queues[vc][0]
            assert flit.head, "stream-less non-head flit at link egress"
            pkt = flit.pkt
            # ejection links carry the current VC; network links carry the
            # VC assigned by this switch's route computation
            link_vc = vc if is_end_port else pkt.next_vc
            holder = link_holders[link_vc]
            if holder is not None and holder != vc:
                continue
            if m_committed is not None and not (
                m_shared_free or m_committed[link_vc] < m_reserves[link_vc]
            ):
                continue
            eligible.append(vc)
            link_vcs[vc] = link_vc
        if not eligible:
            # flits are queued but none may advance: out of downstream
            # credit (or the shared link VC is stream-locked); latch
            # until a credit, link ACK/NACK, or new flit arrives.  The
            # stall counter counts *scanned* stall passes only.
            self._egress_blocked = True
            self.credit_stalls += 1
            if self.obs is not None:
                self.obs.emit(cycle, "credit.stall", sw.switch_id, self.idx,
                              -1, -1, damq.flit_count)
            return
        vc = self.link_arbiter.pick(eligible)
        link_vc = link_vcs[vc]
        # space stays committed until the link-level acknowledgment
        # round trip completes
        flit = damq.pop_no_release(vc)
        pkt = flit.pkt
        if mirror is not None:
            # inline mirror.admit(link_vc, 1): eligibility checked above
            occ = m_committed[link_vc]
            m_committed[link_vc] = occ + 1
            if occ >= m_reserves[link_vc]:
                mirror._shared_used += 1
            total = mirror._total + 1
            mirror._total = total
            if total > mirror.peak_committed:
                mirror.peak_committed = total
        if flit.head:
            self.link_lock.acquire(link_vc, vc)
            link_streams[vc] = link_vc
            if (
                is_end_port
                and pkt.kind == PacketKind.ACK
                and sw.trackers is not None
            ):
                sw.observe_ack_egress(self.idx, pkt, cycle)
        if flit.tail:
            self.link_lock.release(link_vc, vc)
            link_streams[vc] = None
        ch = self.flit_out
        if self.link_tx is not None:
            # retained until the cumulative link-level ACK
            ch.send(self.link_tx.stage_new(vc, link_vc, flit), cycle)
        else:
            # implicit-ack model: space frees one link round trip later
            self.pending_release.append((cycle + self.retention, vc))
            ch.send((link_vc, flit), cycle)
        sw.inflight -= 1
        self.flits_sent += 1

    # ------------------------------------------------------------------

    def occupancy(self) -> int:
        """Flits buffered on the output side: DAMQ + column buffers."""
        return self.out_damq.total_flits + self.col_flits + self.col_flits_s

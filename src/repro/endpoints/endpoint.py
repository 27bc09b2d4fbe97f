"""The endpoint / NIC model (paper Section V).

Endpoints transmit messages through InfiniBand-style queue pairs: a
separate send queue per destination, with active queues arbitrating for
the injection channel per-packet round-robin.  Messages are segmented
into packets of at most ``max_packet_flits``; every delivered data packet
is acknowledged by a hardware-generated single-flit ACK carrying the
ECN bit copied from the data packet.

Injection-buffer VC plan: data packets enter the first-hop switch on
VC 0, ACKs on VC 1.  Separating them means a reliability-stashing stall
on the data queue (stash buffers exhausted, Section IV-A) can never
head-of-line-block the ACKs whose return is what frees the stash —
matching the paper's assumption that ACKs flow unconditionally.
"""

from __future__ import annotations

import random
from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.engine.channel import Channel
from repro.obs.events import EventTrace
from repro.protocol.ecn import EcnWindows
from repro.protocol.ordering import ReorderBuffer
from repro.switch.damq import VcSpaceAccounting
from repro.switch.flit import Flit, Message, Packet, PacketKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.network import Network
    from repro.traffic.generators import TrafficSource

__all__ = ["Endpoint"]

DATA_INJECT_VC = 0
ACK_INJECT_VC = 1


class Endpoint:
    __slots__ = (
        "node",
        "net",
        "rng",
        "flit_out",
        "credit_in",
        "flit_in",
        "mirror",
        "obs",
        "send_queues",
        "_rr_dsts",
        "_rr_members",
        "ack_queue",
        "_streams",
        "_inject_rr",
        "ecn",
        "reorder",
        "_pending_acks",
        "sources",
        "_source_nacs",
        "backlog_flits",
        "flits_generated",
        "flits_injected",
        "flits_ejected",
        "packets_delivered",
        "packets_corrupted",
        "packets_reorder_dropped",
        "messages_posted",
    )

    def __init__(
        self,
        node: int,
        network: "Network",
        rng: random.Random,
    ) -> None:
        self.node = node
        self.net = network
        self.rng = rng

        # wiring (assigned by the network builder)
        self.flit_out: Channel | None = None
        self.credit_in: Channel | None = None
        self.flit_in: Channel | None = None
        # the first-hop switch input buffer, as seen from the NIC
        self.mirror: VcSpaceAccounting | None = None
        # event trace when obs tracing is enabled, else None (zero cost)
        self.obs: EventTrace | None = None

        self.send_queues: dict[int, deque[Packet]] = {}  # non-empty only
        self._rr_dsts: deque[int] = deque()  # round-robin order of active queues
        self._rr_members: set[int] = set()
        self.ack_queue: deque[Packet] = deque()
        # one in-progress packet per injection VC: flits of the data and
        # ACK streams interleave on the channel (per-VC wormhole), so a
        # credit-stalled data packet can never block ACK injection
        self._streams: dict[int, list] = {}  # vc -> [pkt, next_idx]
        self._inject_rr = 0
        self.ecn = EcnWindows(network.config.ecn)
        ordering = network.config.ordering
        self.reorder: ReorderBuffer | None = (
            ReorderBuffer(ordering.buffer_flits) if ordering.enabled else None
        )
        self._pending_acks: dict[int, tuple[int, int]] = {}  # pid -> (dst, size)
        self.sources: list[TrafficSource] = []
        # each source's next_active_cycle (None: it has none to report)
        self._source_nacs: list[Callable[..., int | None] | None] = []
        self.backlog_flits = 0  # flits waiting in send_queues

        self.flits_generated = 0
        self.flits_injected = 0
        self.flits_ejected = 0
        self.packets_delivered = 0
        self.packets_corrupted = 0
        self.packets_reorder_dropped = 0
        self.messages_posted = 0

    # ------------------------------------------------------------------
    # message posting (traffic generators and trace replay call this)
    # ------------------------------------------------------------------

    def post_message(
        self,
        dst: int,
        size_flits: int,
        cycle: int,
        tag: int = 0,
        on_complete: Callable[[Message, int], None] | None = None,
    ) -> Message:
        """Segment a message into packets and queue them on the
        destination's send queue (queue pair)."""
        net = self.net
        msg = net.alloc_message(self.node, dst, size_flits, cycle, tag)
        msg.on_complete = on_complete
        self.messages_posted += 1
        if dst == self.node:
            # self-sends bypass the network (loopback in the NIC)
            msg.packets_total = 1
            msg.packets_delivered = 1
            msg.complete_cycle = cycle
            if on_complete is not None:
                on_complete(msg, cycle)
            return msg

        max_pkt = net.config.switch.max_packet_flits
        queue = self.send_queues.get(dst)
        if queue is None:
            queue = deque()
            self.send_queues[dst] = queue
        remaining = size_flits
        seq = 0
        while remaining > 0:
            pkt_size = min(max_pkt, remaining)
            pkt = Packet(
                net.alloc_pid(),
                self.node,
                dst,
                pkt_size,
                PacketKind.DATA,
                birth_cycle=cycle,
                msg_id=msg.msg_id,
                seq=seq,
            )
            if dst not in self._rr_members:
                self._rr_members.add(dst)
                self._rr_dsts.append(dst)
            queue.append(pkt)
            seq += 1
            remaining -= pkt_size
        msg.packets_total = seq
        self.backlog_flits += size_flits
        self.flits_generated += size_flits
        net.on_generated(size_flits, seq, cycle)
        # external posters (trace replay, tests) may target a sleeping
        # endpoint; self-posts during our own step no-op in the wake list
        net.sim.wake_component(self, cycle)
        return msg

    def add_source(self, source: "TrafficSource") -> None:
        """Attach a source; ``Network.add_source`` owns the wake."""
        self.sources.append(source)
        self._source_nacs.append(getattr(source, "next_active_cycle", None))

    @property
    def rng_shared(self) -> bool:
        """True when a source is not the sole consumer of ``rng`` (a
        second source, ``_deliver``'s corruption draws)."""
        return len(self.sources) > 1 or self.net.error_rate > 0.0

    @property
    def idle(self) -> bool:
        return not (self._streams or self.ack_queue or self.send_queues)

    # ------------------------------------------------------------------

    def step(self, cycle: int) -> None:
        self._receive(cycle)
        for source in self.sources:
            source.generate(self, cycle)
        self.ecn.tick(cycle)
        self._inject(cycle)

    def next_active_cycle(self, cycle: int) -> int | None:
        """Wake-list contract (docs/PERFORMANCE.md): the next cycle our
        ``step`` could do anything, or None to sleep until an external
        wake.  Any queued work, a non-empty round-robin ring (its lazy
        stale-entry cleanup mutates arbitration order), or an ECN window
        in recovery (its tick is clocked on absolute cycles) keeps the
        endpoint stepping every cycle; otherwise the earliest of the
        sources' own schedules and the ejection channel's next delivery
        bounds the sleep.  Credit returns do not: they only refill the
        injection mirror, which nothing reads but ``_inject`` — after
        the same step's ``_receive`` has applied every credit due."""
        if (
            self._streams
            or self.ack_queue
            or self._rr_dsts
            or self.ecn.recovering
        ):
            return cycle + 1
        wake: int | None = None
        for nac in self._source_nacs:
            if nac is None:
                return cycle + 1  # unknown source: never skip it
            when = nac(self, cycle)
            if when is not None:
                if when <= cycle + 1:
                    return cycle + 1
                if wake is None or when < wake:
                    wake = when
        ch = self.flit_in
        due = ch.next_deadline if ch is not None else None
        if due is not None:
            if due <= cycle + 1:
                return cycle + 1
            if wake is None or due < wake:
                wake = due
        return wake

    # -- receive side ----------------------------------------------------

    def _receive(self, cycle: int) -> None:
        ch = self.credit_in
        if ch is not None and self.mirror is not None:
            for vc, n in ch.recv_ready(cycle):
                self.mirror.release(vc, n)
        ch = self.flit_in
        if ch is None:
            return
        flits = ch.recv_ready(cycle)
        for _vc, flit in flits:
            if flit.tail:
                self._deliver(flit.pkt, cycle)
        self.flits_ejected += len(flits)

    def _deliver(self, pkt: Packet, cycle: int) -> None:
        net = self.net
        if pkt.kind == PacketKind.ACK:
            pending = self._pending_acks.pop(pkt.ack_for, None)
            if pending is not None:
                # positive or negative, the original packet has left the
                # network, so the window debit is released; switch-side
                # retransmissions are not window-accounted (the stash is
                # their pacing mechanism)
                dst, size = pending
                new_window = self.ecn.on_ack(dst, size, pkt.ack_ecn)
                if new_window is not None and self.obs is not None:
                    self.obs.emit(
                        cycle, "ecn.window_cut", -1, self.node, -1, -1,
                        new_window,
                    )
            return

        corrupted = (
            net.error_rate > 0.0 and self.rng.random() < net.error_rate
        )
        deliverable = [pkt]
        accepted = True
        if not corrupted and self.reorder is not None:
            # order enforcement (Section IV-C): in-sequence packets (and
            # whatever they unblock) deliver; early arrivals are held in
            # the reorder buffer or, if it is full, dropped and NACKed so
            # the first-hop stash retransmits them
            accepted, deliverable = self.reorder.accept(pkt)
        ack = Packet(
            net.alloc_pid(),
            self.node,
            pkt.src,
            1,
            PacketKind.ACK,
            birth_cycle=cycle,
        )
        ack.ack_for = pkt.pid
        ack.ack_ecn = pkt.ecn
        ack.ack_positive = not corrupted and accepted
        self.ack_queue.append(ack)
        if corrupted:
            self.packets_corrupted += 1
            return
        if not accepted:
            self.packets_reorder_dropped += 1
            return
        for ready in deliverable:
            self.packets_delivered += 1
            net.on_delivered(ready, cycle)
            # a completed message has left the table
            if self.reorder is not None and ready.msg_id not in net.messages:
                self.reorder.finish_message(ready.msg_id)

    # -- inject side -------------------------------------------------------

    def _inject(self, cycle: int) -> None:
        if self.flit_out is None:
            return
        streams = self._streams
        if ACK_INJECT_VC not in streams:
            self._start_next_ack()
        if DATA_INJECT_VC not in streams:
            self._start_next_data()
        if not streams:
            return
        mirror = self.mirror
        assert mirror is not None
        eligible = [vc for vc in streams if mirror.can_admit(vc, 1)]
        if not eligible:
            return
        # round-robin the channel between the active VC streams
        if len(eligible) == 1:
            vc = eligible[0]
        else:
            rr = self._inject_rr
            vc = min(eligible, key=lambda v: (v - rr) % 8)
        self._inject_rr = (vc + 1) % 8
        stream = streams[vc]
        pkt, idx = stream
        mirror.admit(vc, 1)
        flit = Flit(pkt, idx)
        self.flit_out.send((vc, flit), cycle)
        self.flits_injected += 1
        if flit.head and self.obs is not None:
            self.obs.emit(cycle, "flit.inject", -1, self.node, vc,
                          pkt.pid, pkt.size)
        if flit.tail:
            del streams[vc]
        else:
            stream[1] = idx + 1

    def _start_next_ack(self) -> None:
        """Hardware-generated ACKs (paper Section IV-A) ride their own
        injection VC, independent of the data queues."""
        if not self.ack_queue:
            return
        ack = self.ack_queue.popleft()
        self.net.router.prepare_injection(ack)
        ack.vc = ACK_INJECT_VC
        self._streams[ACK_INJECT_VC] = [ack, 0]

    def _start_next_data(self) -> None:
        # per-packet round-robin over active queue pairs
        for _ in range(len(self._rr_dsts)):
            dst = self._rr_dsts[0]
            queue = self.send_queues.get(dst)
            if not queue:
                self._rr_dsts.popleft()
                self._rr_members.discard(dst)
                continue
            pkt = queue[0]
            if not self.ecn.can_send(dst, pkt.size):
                self._rr_dsts.rotate(-1)
                continue
            queue.popleft()
            if not queue:  # post_message re-creates it
                del self.send_queues[dst]
            self.backlog_flits -= pkt.size
            self._rr_dsts.rotate(-1)
            self.ecn.on_inject(dst, pkt.size)
            self._pending_acks[pkt.pid] = (dst, pkt.size)
            self.net.router.prepare_injection(pkt)
            pkt.vc = DATA_INJECT_VC
            self._streams[DATA_INJECT_VC] = [pkt, 0]
            return

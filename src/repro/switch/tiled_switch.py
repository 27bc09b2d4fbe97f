"""The baseline tiled switch (paper Section II).

One switch = P input ports, P output ports, and an R x C array of tiles.
Stage order within a cycle is downstream-first so every flit advances at
most one pipeline stage per internal cycle:

1. link egress (channel clock: one flit per output per cycle);
2. ``speedup`` internal passes (bandwidth-token accumulator models the
   paper's 1.3x core overclock): output mux, S-VC drain, tile crossbars,
   row buses;
3. link ingress and credit application.

The stashing extension (Section III) is hosted here behind ``stash_dir``
/ ``trackers`` hooks that are inert on the baseline;
:class:`repro.switch.stashing_switch.StashingSwitch` activates them.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable

from repro.engine.config import EcnParams, SwitchParams
from repro.obs.events import EventTrace
from repro.routing.routing import Router
from repro.switch.flit import Packet
from repro.switch.port import InputPort, OutputPort
from repro.switch.tile import Tile
from repro.topology.topology import PortSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.reliability import EndToEndTracker
    from repro.core.sideband import SidebandNetwork
    from repro.core.stash import StashDirectory

__all__ = ["TiledSwitch"]

#: ``_sideband_due`` with nothing in flight on the side band
_NEVER = 1 << 62


class TiledSwitch:
    """Baseline tiled switch; also the shared datapath for stashing."""

    __slots__ = (
        "switch_id",
        "cfg",
        "router",
        "port_specs",
        "alloc_pid",
        "rng",
        "stash_placement",
        "num_data_vcs",
        "S_VC",
        "R_VC",
        "total_vcs",
        "t_outputs",
        "end_port_set",
        "ecn_on",
        "ecn_threshold",
        "congestion_stash_on",
        "reliability_on",
        "stash_dir",
        "sideband",
        "trackers",
        "obs",
        "inflight",
        "_speedup_x10k",
        "in_ports",
        "out_ports",
        "tiles",
        "_active_in",
        "_active_out",
        "_flat_tiles",
        "_sideband_due",
    )

    def __init__(
        self,
        switch_id: int,
        cfg: SwitchParams,
        router: Router,
        port_specs: list[PortSpec],
        rng: random.Random,
        alloc_pid: Callable[[], int] | None = None,
        ecn: EcnParams | None = None,
    ) -> None:
        if len(port_specs) != cfg.num_ports:
            raise ValueError(
                f"switch {switch_id}: {len(port_specs)} port specs for "
                f"{cfg.num_ports} ports"
            )
        if rng is None:
            # required keyword: every switch must be handed a stream
            # derived from the experiment seed (DeterministicRng.stream),
            # never a self-invented one — see docs/LINTING.md SIM004
            raise TypeError(
                f"switch {switch_id}: rng is required; pass a stream "
                "derived from the experiment seed"
            )
        self.switch_id = switch_id
        self.cfg = cfg
        self.router = router
        self.port_specs = port_specs
        if alloc_pid is None:
            alloc_pid = _default_pid_counter()
        self.alloc_pid = alloc_pid
        self.rng = rng
        self.stash_placement = "jsq"

        # VC plan: data VCs [0, V), storage VC V, retrieval VC V+1
        self.num_data_vcs = cfg.num_vcs
        self.S_VC = cfg.num_vcs
        self.R_VC = cfg.num_vcs + 1
        self.total_vcs = cfg.num_vcs + 2
        self.t_outputs = cfg.tile_outputs

        self.end_port_set = {
            s.port for s in port_specs if s.link_class == "endpoint"
        }
        if ecn is None:
            ecn = EcnParams()
        self.ecn_on = ecn.enabled
        self.ecn_threshold = ecn.congestion_threshold
        self.congestion_stash_on = ecn.stash_on_congestion
        self.reliability_on = False

        # stashing hooks: inert on the baseline
        self.stash_dir: StashDirectory | None = None
        self.sideband: SidebandNetwork | None = None
        self.trackers: dict[int, EndToEndTracker] | None = None

        # event trace when obs tracing is enabled, else None (zero cost);
        # assigned by the network builder together with the port copies
        self.obs: EventTrace | None = None

        self.inflight = 0
        # earliest side-band delivery or paced retransmission
        self._sideband_due = _NEVER
        # bandwidth-token schedule for the internal speedup, derived from
        # the absolute cycle number (stateless, so both cycle kernels and
        # skipped idle cycles agree): passes(c) = floor((c+1)*s) - floor(c*s),
        # computed in fixed-point to keep the schedule platform-exact
        self._speedup_x10k = round(cfg.speedup * 10_000)

        self.in_ports = [
            InputPort(
                self, i, self._input_normal_capacity(i), self._input_reserves(i)
            )
            for i in range(cfg.num_ports)
        ]
        self.out_ports = [
            OutputPort(
                self, i, self._output_normal_capacity(i),
                self._output_reserves(i),
            )
            for i in range(cfg.num_ports)
        ]
        self.tiles = [
            [Tile(self, r, c) for c in range(cfg.cols)] for r in range(cfg.rows)
        ]
        self._active_in = [
            self.in_ports[s.port] for s in port_specs if s.link_class != "unused"
        ]
        self._active_out = [
            self.out_ports[s.port] for s in port_specs if s.link_class != "unused"
        ]
        self._flat_tiles = [t for row in self.tiles for t in row]

    # -- buffer partitioning (overridden by the stashing switch) --------

    def _input_normal_capacity(self, port: int) -> int:
        return self.cfg.input_buffer_flits

    def _output_normal_capacity(self, port: int) -> int:
        return self.cfg.output_buffer_flits

    # -- per-VC private reserves (deadlock avoidance; see damq.py) -------

    def _input_reserves(self, port: int) -> list[int]:
        """Private space for the VCs that need an escape guarantee.

        VC 0 is the bottom of the ladder: nothing below it ever waits on
        it, so once the reserved VCs drain (by induction from the
        always-sinking ejection ports) the shared pool frees and VC 0
        proceeds — it needs no reserve of its own, which keeps the
        shared pool (and thus queueing depth before HoL blocking) large.

        Endpoint ports carry only the two injection VCs: data on 0, ACKs
        on 1.  The ACK VC gets a one-flit reserve (ACKs are single-flit)
        so a stash-stalled data queue can never starve the ACKs whose
        return frees the remote stash.  Transit ports reserve two flits
        for each ladder VC above 0 — with flit-granular credits a single
        guaranteed slot is enough for escape progress (packets trickle
        through it); the second is slack.  The S and R VCs never arrive
        over a link."""
        reserves = [0] * self.total_vcs
        cls = self.port_specs[port].link_class
        if cls == "endpoint":
            reserves[1] = 1  # single-flit ACKs
        elif cls in ("local", "global"):
            for vc in range(1, self.num_data_vcs):
                reserves[vc] = 2
        capacity = self._input_normal_capacity(port)
        if cls != "unused" and sum(reserves) > capacity:
            raise ValueError(
                f"switch {self.switch_id} port {port} ({cls}): normal input "
                f"partition of {capacity} flits cannot hold the per-VC "
                f"deadlock reserves {sum(reserves)}; enlarge the buffer or "
                f"shrink the stash fraction"
            )
        return reserves

    def _output_reserves(self, port: int) -> list[int]:
        """Transit output buffers reserve for the same escape VCs as
        inputs; ejection output buffers drain unconditionally (endpoints
        always sink) and need none."""
        reserves = [0] * self.total_vcs
        cls = self.port_specs[port].link_class
        if cls in ("local", "global"):
            for vc in range(1, self.num_data_vcs):
                reserves[vc] = 2
        capacity = self._output_normal_capacity(port)
        if cls != "unused" and sum(reserves) > capacity:
            raise ValueError(
                f"switch {self.switch_id} port {port} ({cls}): normal output "
                f"partition of {capacity} flits cannot hold the per-VC "
                f"deadlock reserves {sum(reserves)}"
            )
        return reserves

    # -- cycle loop ------------------------------------------------------

    def step(self, cycle: int) -> None:
        """Advance the switch one cycle: egress, ``speedup`` internal
        passes (mux, stash drain, crossbars, row buses), ingress, credit
        application, and side-band processing — downstream-first so every
        flit moves at most one stage per cycle.

        Every stage call is gated on an O(1) emptiness check that proves
        the call would be a no-op; skipping it is therefore invisible to
        results (the basis of the event kernel's byte-identity)."""
        inflight = self.inflight
        if inflight or self._egress_pending():
            for op in self._active_out:
                if (op.out_damq.flit_count and not op._egress_blocked) or (
                    op.link_tx is not None and op.link_tx.replay
                ):
                    op.egress(cycle)
        if inflight or self._retrieval_pending():
            n = self._speedup_x10k
            passes = (cycle + 1) * n // 10_000 - cycle * n // 10_000
            stashing = self.stash_dir is not None
            for _ in range(passes):
                for op in self._active_out:
                    if op.col_flits and not op._mux_blocked:
                        op.mux_pass()
                    if stashing and op.col_flits_s:
                        op.stash_drain_pass(cycle)
                for tile in self._flat_tiles:
                    if tile.flit_count and not tile.blocked:
                        tile.crossbar_pass()
                for ip in self._active_in:
                    if ip.damq.flit_count or (
                        ip.retrieval is not None
                        or ip.retrieval_queue
                        or (ip.partition is not None and ip.partition._fifo)
                    ):
                        ip.rowbus_pass(cycle)
        for ip in self._active_in:
            ch = ip.flit_in
            if ch is not None:
                q = ch._queue
                if q and q[0][0] <= cycle:
                    ip.ingress(cycle)
        self.settle(cycle)
        if self._sideband_due <= cycle:
            self._process_sideband(cycle)

    def settle(self, cycle: int) -> None:
        """Apply the credit returns and retention releases due by
        ``cycle``: an idle switch defers them (:meth:`next_active_cycle`),
        so a reader of its output or mirror space outside ``step`` calls
        this first."""
        for op in self._active_out:
            ch = op.credit_in
            if ch is not None:
                q = ch._queue
                if q and q[0][0] <= cycle:
                    op.apply_credits(cycle)
            pending = op.pending_release
            if pending and pending[0][0] <= cycle:
                op.release_retained(cycle)

    def _egress_pending(self) -> bool:
        """Link-protocol replay that must transmit despite zero inflight
        (replayed flits live in the sender window, not the buffers)."""
        for op in self._active_out:
            tx = op.link_tx
            if tx is not None and tx.replay:
                return True
        return False

    def _retrieval_pending(self) -> bool:
        """Retrieval work that can start from zero inflight: queued
        retransmission clones or congestion-stashed packets (in-progress
        retrievals hold inflight flits already)."""
        for ip in self._active_in:
            if ip.retrieval_queue:
                return True
            partition = ip.partition
            if partition is not None and partition._fifo:
                return True
        return False

    def next_active_cycle(self, cycle: int) -> int | None:
        """Wake-list contract (docs/PERFORMANCE.md): the next cycle our
        ``step`` could do anything.  Buffered flits, retrieval work and
        link replay demand every cycle.  Otherwise the earliest input,
        side-band, paced-retransmission or link-protocol credit deadline
        bounds the sleep, and so does the *last* implicit-ack credit or
        retention release: those only refill space no one reads before a
        flit arrives, and its step applies them first.  A bound channel
        ``send`` wakes us independently."""
        if self.inflight:
            return cycle + 1
        wake = self._sideband_due
        for ip in self._active_in:
            if ip.retrieval_queue or ip.retrieval is not None:
                return cycle + 1
            partition = ip.partition
            if partition is not None and partition._fifo:
                return cycle + 1
            q = ip.flit_in._queue if ip.flit_in is not None else None
            if q and q[0][0] < wake:
                wake = q[0][0]
        late = -1
        for op in self._active_out:
            tx = op.link_tx
            if tx is not None and tx.replay:
                return cycle + 1
            q = op.credit_in._queue if op.credit_in is not None else None
            if q:
                if tx is not None:
                    wake = min(wake, q[0][0])
                else:
                    late = max(late, q[-1][0])
            if op.pending_release:
                late = max(late, op.pending_release[-1][0])
        if 0 <= late < wake:
            wake = late
        return None if wake == _NEVER else wake

    @property
    def quiescent(self) -> bool:
        """True when nothing is buffered, arriving, or pending here."""
        if self.inflight or self._sideband_due != _NEVER:
            return False
        for ip in self._active_in:
            ch = ip.flit_in
            if ch is not None and not ch.empty:
                return False
            if ip.retrieval_queue or ip.retrieval is not None:
                return False
            if ip.partition is not None and ip.partition._fifo:
                return False
        for op in self._active_out:
            if op.pending_release:
                return False
            ch = op.credit_in
            if ch is not None and not ch.empty:
                return False
            tx = op.link_tx
            if tx is not None and (tx.replay or tx.retained_flits):
                return False  # unacked link window: NACKs may still come
        return True

    # -- routing context ---------------------------------------------------

    def output_congestion(self, port: int) -> int:
        """Queue-depth proxy for adaptive routing: flits committed in the
        output buffer plus flits in flight toward the downstream input."""
        op = self.out_ports[port]
        depth = op.out_damq.total_committed
        if op.mirror is not None:
            depth += op.mirror.total_committed
        return depth

    # -- stashing hooks (no-ops on the baseline) ---------------------------

    def on_copy_dispatched(self, origin_port: int, packet: Packet) -> None:
        """Stashing hook: a reliability copy entered the S path."""
        raise RuntimeError("baseline switch cannot dispatch stash copies")

    def send_location(self, stash_port: int, job, location: int, cycle: int) -> None:
        """Stashing hook: report a completed store over the side band."""
        raise RuntimeError("baseline switch has no side-band network")

    def observe_ack_egress(self, port: int, packet: Packet, cycle: int) -> None:
        """Stashing hook: an end-to-end ACK egresses toward its source."""
        raise RuntimeError("baseline switch has no trackers")

    def _process_sideband(self, cycle: int) -> None:
        raise RuntimeError("baseline switch has no side-band network")

    # -- introspection ------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(id={self.switch_id}, inflight={self.inflight})"


def _default_pid_counter() -> Callable[[], int]:
    state = {"next": 1_000_000_000}

    def alloc() -> int:
        state["next"] += 1
        return state["next"]

    return alloc

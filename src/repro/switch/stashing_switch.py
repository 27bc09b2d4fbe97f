"""The stashing switch (paper Section III, Figure 3).

Extends the baseline tiled switch with:

* virtual partitioning of every port's input + output buffers into a
  small normal portion and a pooled stash partition, sized by link class
  (7/8 endpoint, 3/4 local, 0 global by default — Section V) and scaled
  by the capacity-sensitivity knob (100 % / 50 % / 25 %);
* the storage (S) and retrieval (R) internal VCs, wired through the
  shared datapath in :mod:`repro.switch.port` / :mod:`repro.switch.tile`;
* the side-band bookkeeping network and per-end-port end-to-end
  retransmission trackers (Section IV-A).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable

from repro.core.reliability import EndToEndTracker
from repro.core.sideband import SidebandKind, SidebandMessage, SidebandNetwork
from repro.core.stash import StashDirectory, StashJob, StashPartition
from repro.engine.config import EcnParams, ReliabilityParams, StashParams, SwitchParams
from repro.routing.routing import Router
from repro.switch.flit import Packet
from repro.switch.tiled_switch import _NEVER, TiledSwitch
from repro.topology.topology import PortSpec

__all__ = ["StashingSwitch"]


class StashingSwitch(TiledSwitch):
    """Tiled switch with buffer stashing enabled (paper Section III)."""

    def __init__(
        self,
        switch_id: int,
        cfg: SwitchParams,
        router: Router,
        port_specs: list[PortSpec],
        rng: random.Random,
        stash: StashParams,
        reliability: ReliabilityParams | None = None,
        ecn: EcnParams | None = None,
        alloc_pid: Callable[[], int] | None = None,
    ) -> None:
        if not stash.enabled:
            raise ValueError("StashingSwitch requires stash.enabled")
        self.stash_params = stash
        self._stash_capacity = [
            self._port_stash_flits(cfg, stash, spec) for spec in port_specs
        ]
        super().__init__(
            switch_id, cfg, router, port_specs, rng,
            alloc_pid=alloc_pid, ecn=ecn,
        )

        if reliability is None:
            reliability = ReliabilityParams()
        self.reliability_on = reliability.enabled
        self.retransmit_pace = reliability.retransmit_pace
        # (ready_cycle, msg): NACKed packets awaiting their paced
        # retransmission slot (Section IV-C, SRP-style throttling)
        self._paced_retransmits: "deque[tuple[int, SidebandMessage]]" = deque()
        self.stash_placement = stash.placement

        partitions = [
            StashPartition(i, self._stash_capacity[i]) for i in range(cfg.num_ports)
        ]
        for i in range(cfg.num_ports):
            self.in_ports[i].partition = partitions[i]
            self.out_ports[i].partition = partitions[i]
        self.stash_dir = StashDirectory(partitions, cfg.cols, cfg.tile_outputs)
        self.sideband = SidebandNetwork(cfg.num_ports, cfg.sideband_latency)
        self.trackers: dict[int, EndToEndTracker] = {
            p: EndToEndTracker(p) for p in sorted(self.end_port_set)
        }
        self.retransmits_issued = 0
        self.deletes_applied = 0

    # -- buffer partitioning -------------------------------------------

    @staticmethod
    def _normal_partition_flits(
        buffer_flits: int, max_packet_flits: int, normal_fraction: float
    ) -> int:
        """Normal-partition size of one buffer: the non-stash fraction,
        floored at two maximum packets so the port can always make
        forward progress."""
        return max(
            max_packet_flits * 2, int(buffer_flits * normal_fraction)
        )

    @classmethod
    def _port_stash_flits(
        cls, cfg: SwitchParams, stash: StashParams, spec: PortSpec
    ) -> int:
        """Pooled stash capacity of one port: the configured fraction of
        its input + output buffers, scaled by the sensitivity knob —
        clamped so normal + stash never exceeds the port's physical
        buffering.  The two-packet floor on the normal partitions can
        otherwise push small buffers past their configured capacity,
        silently simulating storage the switch does not have.
        """
        if spec.link_class == "unused":
            return 0
        frac = stash.fraction_for(spec.link_class)
        total = cfg.input_buffer_flits + cfg.output_buffer_flits
        pooled = int(frac * total * stash.capacity_scale)
        normal = cls._normal_partition_flits(
            cfg.input_buffer_flits, cfg.max_packet_flits, 1.0 - frac
        ) + cls._normal_partition_flits(
            cfg.output_buffer_flits, cfg.max_packet_flits, 1.0 - frac
        )
        return max(0, min(pooled, total - normal))

    def _normal_fraction(self, port: int) -> float:
        spec = self.port_specs[port]
        if spec.link_class == "unused":
            return 1.0
        return 1.0 - self.stash_params.fraction_for(spec.link_class)

    def _input_normal_capacity(self, port: int) -> int:
        return self._normal_partition_flits(
            self.cfg.input_buffer_flits,
            self.cfg.max_packet_flits,
            self._normal_fraction(port),
        )

    def _output_normal_capacity(self, port: int) -> int:
        return self._normal_partition_flits(
            self.cfg.output_buffer_flits,
            self.cfg.max_packet_flits,
            self._normal_fraction(port),
        )

    # -- stashing hooks ---------------------------------------------------

    def on_copy_dispatched(self, origin_port: int, packet: Packet) -> None:
        """A reliability copy's head won the row bus: start tracking."""
        self.trackers[origin_port].track(packet.pid, packet.size)

    def send_location(
        self, stash_port: int, job: StashJob, location: int, cycle: int
    ) -> None:
        """Report a completed store to the origin port's tracker over the
        side-band network (paper Section IV-A)."""
        self._send_sideband(
            SidebandMessage(
                kind=SidebandKind.LOCATION,
                dest_port=job.origin_port,
                pid=job.packet.pid,
                stash_port=stash_port,
                location=location,
            ),
            cycle,
        )

    def observe_ack_egress(self, port: int, packet: Packet, cycle: int) -> None:
        """An end-to-end ACK is egressing toward the source endpoint."""
        tracker = self.trackers.get(port)
        if tracker is None:
            return
        response = tracker.on_ack(packet.ack_for, packet.ack_positive)
        if response is not None:
            self._send_sideband(response, cycle)

    def _send_sideband(self, msg: SidebandMessage, cycle: int) -> None:
        assert self.sideband is not None
        self.sideband.send(msg, cycle)
        due = cycle + self.cfg.sideband_latency
        if due < self._sideband_due:
            self._sideband_due = due

    def _process_sideband(self, cycle: int) -> None:
        """Start the paced retransmissions and deliver the side-band
        messages due by ``cycle``; ``step`` calls it only when one is
        (``_sideband_due``), and it leaves the next due cycle there."""
        sideband = self.sideband
        assert sideband is not None
        paced = self._paced_retransmits
        while paced and paced[0][0] <= cycle:
            self._start_retransmission(paced.popleft()[1], cycle)
        for msg in sideband.deliver_ready(cycle):
            if msg.kind == SidebandKind.LOCATION:
                response = self.trackers[msg.dest_port].on_location(
                    msg.pid, msg.stash_port, msg.location
                )
                if response is not None:
                    sideband.send(response, cycle)
            elif msg.kind == SidebandKind.DELETE:
                partition = self.out_ports[msg.dest_port].partition
                assert partition is not None
                if self.obs is not None:
                    stored = partition.get(msg.location)
                    self.obs.emit(
                        cycle, "stash.evict", self.switch_id, msg.dest_port,
                        -1, msg.pid, stored.size if stored is not None else 0,
                    )
                partition.delete(msg.location)
                self.deletes_applied += 1
            elif msg.kind == SidebandKind.RETRANSMIT:
                if self.retransmit_pace > 0:
                    self._paced_retransmits.append(
                        (cycle + self.retransmit_pace, msg)
                    )
                else:
                    self._start_retransmission(msg, cycle)
        due = sideband.next_deadline
        self._sideband_due = min(
            paced[0][0] if paced else _NEVER, _NEVER if due is None else due
        )

    def _start_retransmission(self, msg: SidebandMessage, cycle: int) -> None:
        """Retrieve a stashed copy and queue it for re-injection through
        the stash port's retrieval (R) datapath."""
        partition = self.out_ports[msg.dest_port].partition
        assert partition is not None
        stored = partition.retrieve(msg.location)
        clone = stored.stash_clone(self.alloc_pid())
        clone.stash_origin_port = msg.origin_port
        self.router.prepare_injection(clone)
        out_port, next_vc = self.router.route(self, msg.dest_port, clone)
        clone.out_port = out_port
        clone.next_vc = next_vc
        clone.intended_out_port = out_port
        clone.final_vc = 0
        self.in_ports[msg.dest_port].retrieval_queue.append(clone)
        self.retransmits_issued += 1
        if self.obs is not None:
            self.obs.emit(cycle, "stash.retrieve", self.switch_id,
                          msg.dest_port, -1, clone.pid, clone.size)

    # -- introspection ------------------------------------------------------

    def stash_utilization(self) -> float:
        """Fraction of this switch's stash capacity currently committed."""
        assert self.stash_dir is not None
        return self.stash_dir.utilization()

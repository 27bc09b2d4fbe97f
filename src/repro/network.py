"""Network assembly: topology + switches + endpoints + channels + stats.

:class:`Network` is the top-level simulation object and the main public
entry point of the library:

>>> from repro import Network, tiny_preset
>>> net = Network(tiny_preset())
>>> source = net.add_uniform_traffic(rate=0.3)
>>> result = net.run_standard()
>>> result.avg_latency  # doctest: +SKIP

It builds the configured dragonfly (or any supplied topology/router),
instantiates baseline or stashing switches according to the config, wires
flit and credit channels with per-link-class latencies, drives the
measurement phases (warmup / measure / drain), and aggregates statistics.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.endpoints.endpoint import Endpoint
from repro.engine.base import EngineResult, GroupStats
from repro.engine.channel import Channel
from repro.engine.config import NetworkConfig
from repro.engine.rng import DeterministicRng
from repro.engine.simulator import Simulator
from repro.engine.stats import LatencyStats, RateMeter
from repro.obs.events import EventTrace
from repro.obs.observer import NetworkObserver, harvest
from repro.routing import DragonflyParRouter
from repro.routing.routing import Router
from repro.routing.single_switch_routing import SingleSwitchRouter
from repro.switch.damq import VcSpaceAccounting
from repro.switch.flit import Message, Packet
from repro.switch.stashing_switch import StashingSwitch
from repro.switch.tiled_switch import TiledSwitch
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.single_switch import SingleSwitchTopology
from repro.topology.topology import Topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.traffic.generators import BernoulliSource, TrafficSource

__all__ = ["Network"]


class Network:
    def __init__(
        self,
        config: NetworkConfig,
        topology: Topology | None = None,
        router: Router | None = None,
    ) -> None:
        self.config = config
        self.rng = DeterministicRng(config.sim.seed)
        self.error_rate = config.reliability.error_rate

        if topology is None:
            topology = DragonflyTopology(config.dragonfly, config.switch.num_ports)
        self.topology = topology

        if router is None:
            if isinstance(topology, DragonflyTopology):
                router = DragonflyParRouter(topology, self.rng.stream("routing"))
            elif isinstance(topology, SingleSwitchTopology):
                router = SingleSwitchRouter(topology)
            else:
                raise ValueError(
                    "a router must be supplied for this topology type"
                )
        self.router = router
        if router.num_vcs_required > config.switch.num_vcs:
            raise ValueError(
                f"router needs {router.num_vcs_required} VCs, switch has "
                f"{config.switch.num_vcs}"
            )

        self._next_pid = 0
        # undelivered messages only; the two counters are running totals
        self.messages: dict[int, Message] = {}
        self.messages_posted = 0
        self.messages_delivered = 0

        self.sim = Simulator(
            kernel=config.sim.kernel,
            verify_wake=config.sim.verify_wake,
        )
        self.switches = self._build_switches()
        self.endpoints = [
            Endpoint(n, self, self.rng.stream(f"endpoint:{n}"))
            for n in range(topology.num_nodes)
        ]
        self._wire()
        for ep in self.endpoints:
            self.sim.add(ep)
        for sw in self.switches:
            self.sim.add(sw)
        self._bind_wakes()

        # statistics
        self.latency = LatencyStats()
        self.group_latency: dict[str, LatencyStats] = {}
        self._group_nodes: dict[str, frozenset[int]] = {}
        self.accepted = RateMeter()
        self.offered = RateMeter()
        self._meas_start: int | None = None
        self._meas_end: int | None = None
        self._meas_born = 0
        self._meas_delivered = 0
        self.total_data_packets_delivered = 0
        self.on_packet_delivered_hooks: list[Callable[[Packet, int], None]] = []
        # scenario bookkeeping: aggressor/victim partitions attached by
        # repro.scenario.spec.apply_traffic (empty for plain traffic)
        self.built_scenarios: list[Any] = []

        # observability (repro.obs): both stay None unless enabled in the
        # config, so the emit guards in the hot paths cost one attribute
        # check and the counters cost nothing until captured
        self.obs: NetworkObserver | None = None
        self._trace: EventTrace | None = None
        if config.obs.enabled:
            self.obs = NetworkObserver(config.obs)
            self.obs.attach(self)
            trace = self.obs.trace
            if trace is not None:
                self._trace = trace
                for sw in self.switches:
                    sw.obs = trace
                    for ip in sw.in_ports:
                        ip.obs = trace
                    for op in sw.out_ports:
                        op.obs = trace
                for ep in self.endpoints:
                    ep.obs = trace

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build_switches(self) -> list[TiledSwitch]:
        cfg = self.config
        switches: list[TiledSwitch] = []
        for s in range(self.topology.num_switches):
            specs = self.topology.switch_ports(s)
            rng = self.rng.stream(f"switch:{s}")
            if cfg.stash.enabled:
                sw: TiledSwitch = StashingSwitch(
                    s,
                    cfg.switch,
                    self.router,
                    specs,
                    rng,
                    stash=cfg.stash,
                    reliability=cfg.reliability,
                    ecn=cfg.ecn,
                    alloc_pid=self.alloc_pid,
                )
            else:
                sw = TiledSwitch(
                    s, cfg.switch, self.router, specs, rng,
                    alloc_pid=self.alloc_pid, ecn=cfg.ecn,
                )
            switches.append(sw)
        return switches

    def _wire(self) -> None:
        total_vcs = self.switches[0].total_vcs
        for s, sw in enumerate(self.switches):
            for spec in self.topology.switch_ports(s):
                if spec.link_class == "unused":
                    continue
                if spec.link_class == "endpoint":
                    assert spec.peer is not None
                    _, node = spec.peer
                    ep = self.endpoints[node]
                    ip = sw.in_ports[spec.port]
                    op = sw.out_ports[spec.port]
                    inj = Channel(spec.latency, f"inj:{node}")
                    inj_credit = Channel(spec.latency, f"injcr:{node}")
                    ej = Channel(spec.latency, f"ej:{node}")
                    ep.flit_out = inj
                    ip.flit_in = inj
                    ip.credit_out = inj_credit
                    ep.credit_in = inj_credit
                    op.flit_out = ej
                    ep.flit_in = ej
                    ep.mirror = VcSpaceAccounting(
                        total_vcs, ip.damq.capacity, ip.damq.space.reserves
                    )
                    op.mirror = None  # endpoints always sink
                    op.retention = 2 * spec.latency + 4
                else:
                    assert spec.peer is not None
                    _, peer, peer_port = spec.peer
                    if (peer, peer_port) < (s, spec.port):
                        continue  # wire each link once, from the lower end
                    self._wire_switch_link(
                        s, spec.port, peer, peer_port, spec.latency, total_vcs
                    )

    def _wire_switch_link(
        self, a: int, pa: int, b: int, pb: int, latency: int, total_vcs: int
    ) -> None:
        link = self.config.link
        for (sx, px), (sy, py) in (((a, pa), (b, pb)), ((b, pb), (a, pa))):
            out = self.switches[sx].out_ports[px]
            inp = self.switches[sy].in_ports[py]
            flit_ch = Channel(latency, f"l:{sx}.{px}->{sy}.{py}")
            credit_ch = Channel(latency, f"c:{sy}.{py}->{sx}.{px}")
            out.flit_out = flit_ch
            inp.flit_in = flit_ch
            inp.credit_out = credit_ch
            out.credit_in = credit_ch
            out.mirror = VcSpaceAccounting(
                total_vcs, inp.damq.capacity, inp.damq.space.reserves
            )
            out.retention = 2 * latency + 4
            if link.enabled:
                from repro.protocol.link import LinkReceiver, LinkSender

                out.link_tx = LinkSender(
                    link, self.rng.stream(f"link:{sx}.{px}")
                )
                inp.link_rx = LinkReceiver(link)

    def _bind_wakes(self) -> None:
        """Register every channel's consumer with the simulator wake
        list: each send then schedules the consumer for the delivery
        cycle, which is what lets the event kernel put idle components
        to sleep without missing arrivals (docs/PERFORMANCE.md).  An
        endpoint's credit wire stays unbound: its credits wait for the
        endpoint's next step (``Endpoint.next_active_cycle``)."""
        sim = self.sim
        for ep in self.endpoints:
            idx = sim.index_of(ep)
            assert idx is not None
            if ep.flit_in is not None:
                ep.flit_in.bind_wake(sim, idx)
        for sw in self.switches:
            idx = sim.index_of(sw)
            assert idx is not None
            for ip in sw.in_ports:
                if ip.flit_in is not None:
                    ip.flit_in.bind_wake(sim, idx)
            for op in sw.out_ports:
                if op.credit_in is not None:
                    op.credit_in.bind_wake(sim, idx)

    # ------------------------------------------------------------------
    # allocation and delivery callbacks
    # ------------------------------------------------------------------

    def alloc_pid(self) -> int:
        self._next_pid += 1
        return self._next_pid

    def alloc_message(
        self, src: int, dst: int, size: int, cycle: int, tag: int
    ) -> Message:
        self.messages_posted += 1
        msg = Message(self.messages_posted, src, dst, size, cycle, tag)
        if src != dst:
            self.messages[msg.msg_id] = msg
        else:  # a self-send is delivered as it is posted
            self.messages_delivered += 1
        return msg

    def on_generated(self, flits: int, packets: int, cycle: int) -> None:
        self.offered.record(flits)
        if self._meas_start is not None and cycle >= self._meas_start:
            self._meas_born += packets

    def on_delivered(self, pkt: Packet, cycle: int) -> None:
        """A data packet's tail ejected uncorrupted at its destination."""
        self.total_data_packets_delivered += 1
        self.accepted.record(pkt.size)
        if self._meas_start is not None and pkt.birth_cycle >= self._meas_start:
            if self._meas_end is None or pkt.birth_cycle < self._meas_end:
                self._record_latency(pkt, cycle)
        msg = self.messages.get(pkt.msg_id)
        if msg is not None:
            msg.packets_delivered += 1
            if msg.delivered:
                msg.complete_cycle = cycle
                if msg.on_complete is not None:
                    msg.on_complete(msg, cycle)
            else:
                msg = None
        for hook in self.on_packet_delivered_hooks:
            hook(pkt, cycle)
        if self._trace is not None:
            self._trace.emit(cycle, "packet.deliver", -1, pkt.dst, -1,
                             pkt.pid, cycle - pkt.birth_cycle)
        if msg is not None:  # complete: the hooks saw it in the table last
            del self.messages[msg.msg_id]
            self.messages_delivered += 1

    def _record_latency(self, pkt: Packet, cycle: int) -> None:
        self._meas_delivered += 1
        latency = cycle - pkt.birth_cycle
        self.latency.record(latency)
        src = pkt.src
        for name, nodes in self._group_nodes.items():
            if src in nodes:
                self.group_latency[name].record(latency)

    # ------------------------------------------------------------------
    # traffic helpers
    # ------------------------------------------------------------------

    def add_source(
        self, source: "TrafficSource", nodes: Iterable[int] | None = None
    ) -> None:
        """Attach a traffic source to ``nodes`` (default: all)."""
        targets: Iterable[int] = (
            range(len(self.endpoints)) if nodes is None else nodes
        )
        for n in targets:
            ep = self.endpoints[n]
            ep.add_source(source)
            # a sleeping endpoint must re-evaluate next_active_cycle now
            # that it has a new source to poll
            self.sim.wake_component(ep, self.sim.cycle)

    def add_uniform_traffic(
        self, rate: float, msg_flits: int | None = None,
        nodes: Iterable[int] | None = None, start: int = 0,
        stop: int | None = None,
    ) -> "BernoulliSource":
        from repro.traffic.generators import BernoulliSource
        from repro.traffic.patterns import uniform_random

        if msg_flits is None:
            msg_flits = self.config.switch.max_packet_flits
        src = BernoulliSource(
            rate=rate,
            msg_flits=msg_flits,
            pattern=uniform_random(self.topology.num_nodes),
            start=start,
            stop=stop,
        )
        self.add_source(src, nodes)
        return src

    def track_group(self, name: str, nodes: Iterable[int]) -> None:
        """Collect a separate latency distribution for packets sourced by
        ``nodes`` (e.g. victim vs aggressor traffic)."""
        self._group_nodes[name] = frozenset(nodes)
        self.group_latency[name] = LatencyStats()

    # ------------------------------------------------------------------
    # run control
    # ------------------------------------------------------------------

    def open_measurement(self) -> None:
        cycle = self.sim.cycle
        self._meas_start = cycle
        self._meas_end = None
        # packets of messages posted ahead with a cycle in the window
        self._meas_born = sum(m.packets_total for m in self.messages.values()
                              if m.create_cycle >= cycle)
        self.accepted.open_window(cycle)
        self.offered.open_window(cycle)

    def close_measurement(self) -> None:
        cycle = self.sim.cycle
        self._meas_end = cycle
        self.accepted.close_window(cycle)
        self.offered.close_window(cycle)

    def run(self, cycles: int) -> None:
        self.sim.run(cycles)

    def run_standard(self, drain: bool = True) -> EngineResult:
        """Warmup, measure, then (optionally) drain measured packets."""
        sim_cfg = self.config.sim
        self.sim.run(sim_cfg.warmup_cycles)
        self.open_measurement()
        self.sim.run(sim_cfg.measure_cycles)
        born = self._meas_born
        self.close_measurement()
        if drain:
            self.sim.run_until(
                lambda: self._meas_delivered >= born or self.quiescent(),
                sim_cfg.drain_cycles,
            )
        return self.result()

    def quiescent(self) -> bool:
        return all(ep.idle for ep in self.endpoints) and all(
            sw.quiescent for sw in self.switches
        )

    def drain(self, max_cycles: int | None = None) -> bool:
        """Run until the whole network is empty (trace replay end)."""
        limit = max_cycles if max_cycles is not None else self.config.sim.drain_cycles
        return self.sim.run_until(self.quiescent, limit)

    def result(self) -> EngineResult:
        """The run so far in the stats schema every engine shares."""
        nodes = max(1, len(self.endpoints))
        stalls = harvest(self)["switch.input.stalls_no_stash"]
        return EngineResult(
            engine="cycle",
            offered_load=_per_node(self.offered.rate(), nodes),
            accepted_load=_per_node(self.accepted.rate(), nodes),
            avg_latency=self.latency.mean,
            p90_latency=self.latency.percentile(90),
            p99_latency=self.latency.percentile(99),
            max_latency=self.latency.max,
            packets_measured=self.latency.count,
            cycles=self.sim.cycle,
            groups=tuple(
                (name, GroupStats.from_latency(self.group_latency[name]))
                for name in sorted(self.group_latency)
            ),
            extras=(("stash_stalls", float(stalls)),),
        )

    # -- probes -------------------------------------------------------------

    def stash_utilization(self, switch: int | None = None) -> float:
        """Fraction of stash capacity in use (one switch or network-wide)."""
        targets = (
            [self.switches[switch]] if switch is not None else self.switches
        )
        cap = used = 0
        for sw in targets:
            if sw.stash_dir is None:
                continue
            cap += sw.stash_dir.total_capacity()
            used += sw.stash_dir.total_committed()
        return used / cap if cap else 0.0


def _per_node(rate: float, nodes: int) -> float:
    return rate / nodes if not math.isnan(rate) else math.nan

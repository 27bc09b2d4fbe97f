"""Configuration dataclasses and experiment presets.

The paper's evaluation (Section V) fixes one hardware configuration: a
20-port tiled switch (``R=C=4``, ``I=O=5``), six network VCs, 10 KB input
and output buffers per port (1000 ten-byte flits), 24-flit packets, a 1.3x
internal speedup, and a 3080-node dragonfly (``p=5, a=11, h=5, g=56``)
with 5/40/500 ns channel latencies.  :func:`paper_preset` reproduces those
constants exactly.

Because this reproduction simulates in pure Python, the default presets
(:func:`tiny_preset`, :func:`small_preset`) scale the topology, channel
latencies, buffer depths, and protocol constants *together* so that every
dimensionless ratio the paper's conclusions rest on is preserved:

* buffer depth = one link round-trip of flits (Section II);
* stash fractions 7/8 (endpoint), 3/4 (local), 0 (global) (Section V);
* ECN window ~ 4x the max-RTT buffer, 50 % occupancy threshold, x0.8
  multiplicative decrease, additive recovery of one flit per ~RTT/33
  cycles (Section IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = [
    "DragonflyParams",
    "EcnParams",
    "LinkParams",
    "NetworkConfig",
    "ObsParams",
    "OrderingParams",
    "ReliabilityParams",
    "SimParams",
    "StashParams",
    "SwitchParams",
    "paper_preset",
    "rtt_buffer_flits",
    "small_preset",
    "tiny_preset",
]


def rtt_buffer_flits(latency: int, slack: int = 16) -> int:
    """Buffer depth (flits) covering one credit round trip on a link.

    The paper sizes each port's input and output buffers for "roughly one
    link round-trip time's worth of data" (Section II).  ``slack`` covers
    the internal pipeline stages on both sides of the link.
    """
    return 2 * int(latency) + int(slack)


@dataclass(frozen=True)
class SwitchParams:
    """Microarchitecture of one tiled switch (paper Figures 1-3)."""

    num_ports: int = 20
    rows: int = 4
    cols: int = 4
    num_vcs: int = 6
    input_buffer_flits: int = 1000
    output_buffer_flits: int = 1000
    row_buffer_packets: int = 4
    col_buffer_packets: int = 4
    max_packet_flits: int = 24
    speedup: float = 1.3
    sideband_latency: int = 8

    def __post_init__(self) -> None:
        if self.num_ports % self.rows:
            raise ValueError(
                f"num_ports={self.num_ports} not divisible by rows={self.rows}"
            )
        if self.num_ports % self.cols:
            raise ValueError(
                f"num_ports={self.num_ports} not divisible by cols={self.cols}"
            )
        if self.num_vcs < 1:
            raise ValueError("need at least one network VC")
        if self.max_packet_flits < 1:
            raise ValueError("max_packet_flits must be positive")
        if self.speedup < 1.0:
            raise ValueError("internal speedup below 1.0 would starve the core")
        if self.input_buffer_flits < self.max_packet_flits:
            raise ValueError("input buffer smaller than one packet")
        if self.output_buffer_flits < self.max_packet_flits:
            raise ValueError("output buffer smaller than one packet")

    @property
    def tile_inputs(self) -> int:
        """I: switch inputs feeding each tile row (P = R * I)."""
        return self.num_ports // self.rows

    @property
    def tile_outputs(self) -> int:
        """O: tile outputs per column (P = C * O)."""
        return self.num_ports // self.cols

    @property
    def row_buffer_flits(self) -> int:
        """Row-bus buffer depth per tile, in flits."""
        return self.row_buffer_packets * self.max_packet_flits

    @property
    def col_buffer_flits(self) -> int:
        """Column-channel buffer depth per tile output, in flits."""
        return self.col_buffer_packets * self.max_packet_flits


@dataclass(frozen=True)
class StashParams:
    """Stash partitioning of the port buffers (paper Section III, V).

    ``capacity_scale`` implements the paper's 100 % / 50 % / 25 % capacity
    sensitivity sweeps: it scales every port's stash partition after the
    per-class fraction is applied.
    """

    enabled: bool = False
    frac_endpoint: float = 7 / 8
    frac_local: float = 3 / 4
    frac_global: float = 0.0
    capacity_scale: float = 1.0
    #: "jsq" (paper Section III-A) or "random" (ablation baseline)
    placement: str = "jsq"

    def __post_init__(self) -> None:
        for name in ("frac_endpoint", "frac_local", "frac_global"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name}={value} must be in [0, 1)")
        if not 0.0 <= self.capacity_scale <= 1.0:
            raise ValueError("capacity_scale must be in [0, 1]")
        if self.placement not in ("jsq", "random"):
            raise ValueError("placement must be 'jsq' or 'random'")

    def fraction_for(self, port_class: str) -> float:
        """Stash fraction of the port buffer for a link class."""
        if port_class == "endpoint":
            return self.frac_endpoint
        if port_class == "local":
            return self.frac_local
        if port_class == "global":
            return self.frac_global
        raise ValueError(f"unknown port class {port_class!r}")


@dataclass(frozen=True)
class ReliabilityParams:
    """End-to-end retransmission via first-hop stashing (Section IV-A)."""

    enabled: bool = False
    #: probability an injected packet is delivered corrupted, triggering a
    #: NACK and retransmission from the stash.  The paper runs error-free
    #: (it "did not simulate the retrieval or retransmission"); fault
    #: injection is our extension and exercised only by tests.
    error_rate: float = 0.0
    #: delay (cycles) before a NACKed packet is retrieved and re-sent.
    #: 0 retransmits immediately; a positive pace implements the
    #: SRP/LHRP-style throttling of Section IV-C ("dropped and then
    #: scheduled for retransmission at a reduced pace"), keeping
    #: retransmissions from re-feeding the congestion that dropped them.
    retransmit_pace: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_rate < 1.0:
            raise ValueError("error_rate must be in [0, 1)")
        if self.retransmit_pace < 0:
            raise ValueError("retransmit_pace must be non-negative")


@dataclass(frozen=True)
class EcnParams:
    """ECN congestion control (paper Section IV-B)."""

    enabled: bool = False
    window_max_flits: int = 4096
    window_min_flits: int = 24
    congestion_threshold: float = 0.5
    window_decrease: float = 0.8
    recovery_period: int = 30
    recovery_flits: int = 1
    #: stash HoL-blocked packets while congested (the paper's second use
    #: case); requires StashParams.enabled.
    stash_on_congestion: bool = False

    def __post_init__(self) -> None:
        if self.window_min_flits < 1 or self.window_max_flits < self.window_min_flits:
            raise ValueError("window bounds are inconsistent")
        if not 0.0 < self.congestion_threshold < 1.0:
            raise ValueError("congestion_threshold must be in (0, 1)")
        if not 0.0 < self.window_decrease < 1.0:
            raise ValueError("window_decrease must be in (0, 1)")
        if self.recovery_period < 1 or self.recovery_flits < 1:
            raise ValueError("recovery parameters must be positive")


@dataclass(frozen=True)
class LinkParams:
    """Link-level retransmission (paper Sections I-II).

    The paper's switches recover from link errors by retransmission from
    the RTT-sized output buffers — the buffering stashing repurposes.
    With ``enabled=False`` (default) only the capacity effect is
    modelled (output space retained one RTT after transmission); with
    the protocol enabled, flits carry link sequence numbers, the channel
    corrupts them with ``error_rate``, and a go-back-N sender/receiver
    pair (:mod:`repro.protocol.link`) replays from the retained window.
    """

    enabled: bool = False
    error_rate: float = 0.0
    #: cumulative ACK cadence in flits; 1 acknowledges every flit
    ack_interval: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_rate < 1.0:
            raise ValueError("link error_rate must be in [0, 1)")
        if self.ack_interval < 1:
            raise ValueError("ack_interval must be >= 1")
        if self.error_rate > 0.0 and not self.enabled:
            raise ValueError("link error injection requires enabled=True")


@dataclass(frozen=True)
class OrderingParams:
    """Destination-side packet order enforcement (paper Section IV-C).

    When enabled, every endpoint delivers each message's packets to the
    application strictly in sequence order, holding early arrivals in a
    bounded reorder buffer; an early packet that does not fit is dropped
    and negatively acknowledged, and the sender's first-hop stash copy
    retransmits it.  Requires end-to-end reliability.
    """

    enabled: bool = False
    buffer_flits: int = 256

    def __post_init__(self) -> None:
        if self.buffer_flits < 1:
            raise ValueError("reorder buffer needs at least one flit")


@dataclass(frozen=True)
class DragonflyParams:
    """Canonical dragonfly (paper Section V).

    ``p`` endpoints, ``a`` switches per fully connected group, ``h``
    global channels per switch; ``num_groups`` defaults to the canonical
    maximum ``a*h + 1`` where every group pair shares exactly one global
    channel.
    """

    p: int = 5
    a: int = 11
    h: int = 5
    num_groups: int = 0  # 0 -> canonical a*h + 1
    latency_endpoint: int = 5
    latency_local: int = 40
    latency_global: int = 500

    def __post_init__(self) -> None:
        if min(self.p, self.a, self.h) < 1:
            raise ValueError("p, a, h must all be positive")
        groups = self.groups
        if groups < 2:
            raise ValueError("a dragonfly needs at least two groups")
        if groups > self.a * self.h + 1:
            raise ValueError(
                f"{groups} groups exceed the {self.a * self.h} global "
                "channels available per group"
            )
        if not (
            0 < self.latency_endpoint
            and self.latency_endpoint <= self.latency_local
            and self.latency_local <= self.latency_global
        ):
            raise ValueError("latencies must satisfy endpoint <= local <= global")

    @property
    def groups(self) -> int:
        """Group count: explicit override or the maximal a*h + 1."""
        return self.num_groups if self.num_groups else self.a * self.h + 1

    @property
    def switch_radix(self) -> int:
        """Ports used per switch: p endpoints + (a-1) locals + h globals."""
        return self.p + (self.a - 1) + self.h

    @property
    def num_switches(self) -> int:
        """Total switches: a per group."""
        return self.a * self.groups

    @property
    def num_nodes(self) -> int:
        """Total endpoints: p per switch."""
        return self.p * self.num_switches


@dataclass(frozen=True)
class SimParams:
    """Run control: phases, sampling, seeding, and the cycle kernel.

    ``kernel`` selects the cycle loop: ``"event"`` (default) skips
    quiescent components and idle cycles via the simulator's wake list;
    ``"polling"`` steps everything every cycle.  The two are
    byte-identical (see docs/PERFORMANCE.md); polling is the escape
    hatch / reference.

    ``verify_wake`` enables the event kernel's wake-contract shadow
    check: sleeping components are re-probed every executed cycle and a
    missed wake raises :class:`repro.engine.simulator.WakeContractError`
    (docs/WAKE_CONTRACT.md).  Debug/fuzz only — it restores the polling
    kernel's per-cycle cost.
    """

    seed: int = 1
    warmup_cycles: int = 2000
    measure_cycles: int = 10000
    drain_cycles: int = 20000
    sample_period: int = 100
    kernel: str = "event"
    verify_wake: bool = False

    def __post_init__(self) -> None:
        if min(self.warmup_cycles, self.measure_cycles, self.sample_period) < 0:
            raise ValueError("cycle counts must be non-negative")
        if self.sample_period < 1:
            raise ValueError("sample_period must be >= 1")
        if self.kernel not in ("polling", "event"):
            raise ValueError("kernel must be 'polling' or 'event'")


@dataclass(frozen=True)
class ObsParams:
    """Observability (:mod:`repro.obs`): counters and event tracing.

    Disabled by default — the simulator then constructs no observer or
    trace at all, preserving the zero-overhead-when-off contract of
    docs/OBSERVABILITY.md.  ``trace`` records every event the datapath
    emits, up to :data:`repro.obs.events.MAX_RECORDS` per network.
    """

    enabled: bool = False
    trace: bool = False

    def __post_init__(self) -> None:
        if self.trace and not self.enabled:
            raise ValueError("tracing requires obs.enabled")


@dataclass(frozen=True)
class NetworkConfig:
    """Everything needed to build and run one simulated network."""

    switch: SwitchParams = field(default_factory=SwitchParams)
    dragonfly: DragonflyParams = field(default_factory=DragonflyParams)
    stash: StashParams = field(default_factory=StashParams)
    reliability: ReliabilityParams = field(default_factory=ReliabilityParams)
    ecn: EcnParams = field(default_factory=EcnParams)
    ordering: OrderingParams = field(default_factory=OrderingParams)
    link: LinkParams = field(default_factory=LinkParams)
    sim: SimParams = field(default_factory=SimParams)
    obs: ObsParams = field(default_factory=ObsParams)

    def __post_init__(self) -> None:
        if self.dragonfly.switch_radix > self.switch.num_ports:
            raise ValueError(
                f"dragonfly needs {self.dragonfly.switch_radix} ports but the "
                f"switch has {self.switch.num_ports}"
            )
        if self.reliability.enabled and not self.stash.enabled:
            raise ValueError("end-to-end reliability requires stashing")
        if self.ecn.stash_on_congestion and not self.stash.enabled:
            raise ValueError("stash_on_congestion requires stashing")
        if self.ecn.stash_on_congestion and not self.ecn.enabled:
            raise ValueError("stash_on_congestion requires ECN")
        if self.ordering.enabled and not self.reliability.enabled:
            raise ValueError(
                "packet order enforcement drops packets and relies on "
                "end-to-end retransmission; enable reliability"
            )

    def with_(self, **kwargs: object) -> "NetworkConfig":
        """A copy with top-level sections replaced (dataclass replace)."""
        return replace(self, **kwargs)  # type: ignore[arg-type]


def paper_preset() -> NetworkConfig:
    """The exact published configuration (Section V).

    3080 nodes, 616 switches; only use this if you can afford hours of
    pure-Python simulation per data point.
    """
    return NetworkConfig(
        switch=SwitchParams(
            num_ports=20,
            rows=4,
            cols=4,
            num_vcs=6,
            input_buffer_flits=1000,
            output_buffer_flits=1000,
            max_packet_flits=24,
            speedup=1.3,
        ),
        dragonfly=DragonflyParams(
            p=5,
            a=11,
            h=5,
            latency_endpoint=5,
            latency_local=40,
            latency_global=500,
        ),
        ecn=EcnParams(
            window_max_flits=4096,
            recovery_period=30,
        ),
        sim=SimParams(
            warmup_cycles=20_000,
            measure_cycles=80_000,
            drain_cycles=200_000,
        ),
    )


def tiny_preset() -> NetworkConfig:
    """42-node dragonfly for fast experiments (default for benchmarks).

    p=2, a=3, h=2 -> 7 groups, 21 switches, 6-port switches tiled 2x2
    (I=O=3).  The scaled constants preserve the ratios the paper's
    results rest on:

    * 192-flit port buffers cover the global-link credit round trip
      (~128 flits) with margin, and the endpoint-port *normal* partition
      after 7/8 stashing (24 flits) still holds three 8-flit packets —
      proportionally what the paper's 125-flit normal partition holds
      in 24-flit packets;
    * the local-port stash fraction is 1/2 rather than the paper's 3/4:
      the paper's 3/4 leaves local ports ~3x their credit round trip of
      normal buffering (250 flits vs an ~88-flit RTT), and preserving
      that *ratio* at compressed latencies requires the smaller
      fraction — with 3/4 here, transit through local ports throttles
      injection to ~0.48 and every variant's curve collapses (the
      :func:`paper_preset` keeps 3/4);
    * at 25 % stash capacity an endpoint may keep ~130 flits
      outstanding against a ~350-cycle copy round trip, a Little's-law
      saturation near 0.4-0.5 — clearly below the baseline's
      saturation, reproducing Fig. 5's early-saturation shape;
    * the ECN window is ~4x the port buffer, as 4096 is to 1000.
    """
    return NetworkConfig(
        switch=SwitchParams(
            num_ports=6,
            rows=2,
            cols=2,
            num_vcs=6,
            input_buffer_flits=192,
            output_buffer_flits=192,
            row_buffer_packets=4,
            col_buffer_packets=4,
            max_packet_flits=8,
            speedup=1.3,
            sideband_latency=4,
        ),
        stash=StashParams(frac_local=0.5),
        dragonfly=DragonflyParams(
            p=2,
            a=3,
            h=2,
            latency_endpoint=2,
            latency_local=8,
            latency_global=60,
        ),
        ecn=EcnParams(
            window_max_flits=768,
            window_min_flits=8,
            recovery_period=4,
        ),
        sim=SimParams(
            warmup_cycles=2000,
            measure_cycles=8000,
            drain_cycles=20000,
            sample_period=50,
        ),
    )


def small_preset() -> NetworkConfig:
    """108-node dragonfly: p=3, a=4, h=2 -> 9 groups, 8-port switches.

    Same ratio policy as :func:`tiny_preset`, one size up."""
    return NetworkConfig(
        switch=SwitchParams(
            num_ports=8,
            rows=2,
            cols=2,
            num_vcs=6,
            input_buffer_flits=288,
            output_buffer_flits=288,
            max_packet_flits=12,
            speedup=1.3,
            sideband_latency=4,
        ),
        stash=StashParams(frac_local=0.5),
        dragonfly=DragonflyParams(
            p=3,
            a=4,
            h=2,
            latency_endpoint=2,
            latency_local=10,
            latency_global=80,
        ),
        ecn=EcnParams(
            window_max_flits=1152,
            window_min_flits=12,
            recovery_period=5,
        ),
        sim=SimParams(
            warmup_cycles=3000,
            measure_cycles=12000,
            drain_cycles=30000,
            sample_period=100,
        ),
    )

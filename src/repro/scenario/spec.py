"""Engine-agnostic scenario declarations.

A :class:`ScenarioSpec` is everything an experiment point needs — the
network configuration, the stash/reliability/ECN variant, the topology,
the traffic, and the measurement phases — expressed as plain frozen
dataclasses with no reference to any simulation engine.  Both engines
consume it:

* the cycle-accurate engine (:class:`repro.engine.base.CycleEngine`)
  materialises it into a :class:`repro.network.Network` via
  :func:`build_network`;
* the flow-level fastpath (:class:`repro.engine.fastpath.FlowEngine`)
  reads the same spec and solves a fluid model over the same topology.

Because the spec is pure data it is picklable (so sweeps fan out over
the process pool unchanged) and content-hashable (:meth:`ScenarioSpec.
spec_hash`), which is what lets cross-validation assert that both
engines ran *the same* scenario.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Any, Union

from repro.engine.config import NetworkConfig, ReliabilityParams, StashParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.network import Network
    from repro.topology.topology import Topology

__all__ = [
    "CONGESTION_VARIANTS",
    "RELIABILITY_VARIANTS",
    "DragonflyTopologySpec",
    "FatTreeTopologySpec",
    "HotspotTraffic",
    "ScenarioSpec",
    "SingleSwitchTopologySpec",
    "TopologySpec",
    "TraceTraffic",
    "TrafficSpec",
    "UniformAggressorTraffic",
    "UniformTraffic",
    "build_network",
    "build_topology",
    "congestion_scenario",
    "reliability_scenario",
]

#: variant name -> stash capacity scale (None = no stashing).  Section
#: VI-A compares baseline and stashing at 100 % / 50 % / 25 % capacity.
RELIABILITY_VARIANTS: dict[str, float | None] = {
    "baseline": None,
    "stash100": 1.0,
    "stash50": 0.5,
    "stash25": 0.25,
}

#: Section VI-B compares the ECN baseline against ECN + stashing.
CONGESTION_VARIANTS: dict[str, float | None] = {
    "baseline": None,
    "stash100": 1.0,
    "stash50": 0.5,
}


# ----------------------------------------------------------------------
# topology specs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DragonflyTopologySpec:
    """The config's dragonfly section; no extra parameters needed."""

    kind: str = "dragonfly"


@dataclass(frozen=True)
class SingleSwitchTopologySpec:
    """All endpoints on one switch (the testbench workhorse)."""

    num_nodes: int
    latency: int = 2
    kind: str = "single_switch"


@dataclass(frozen=True)
class FatTreeTopologySpec:
    """Two-level leaf/spine fat-tree (Section IV-A's second substrate).

    ``min_ports``/``rows``/``cols`` describe how the switch section is
    widened when the configured radix is too small for the tree.
    """

    num_leaves: int = 7
    num_spines: int = 2
    p: int = 3
    min_ports: int = 9
    rows: int = 3
    cols: int = 3
    kind: str = "fattree"


TopologySpec = Union[
    DragonflyTopologySpec, SingleSwitchTopologySpec, FatTreeTopologySpec
]


# ----------------------------------------------------------------------
# traffic specs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class UniformTraffic:
    """Bernoulli uniform-random injection on every node.

    ``msg_flits=None`` uses the switch's max packet size (one packet per
    message), matching :meth:`Network.add_uniform_traffic`.
    """

    rate: float
    msg_flits: int | None = None
    start: int = 0
    stop: int | None = None
    kind: str = "uniform"


@dataclass(frozen=True)
class HotspotTraffic:
    """Fig. 7/8 scenario: hotspot aggressors over a uniform victim."""

    victim_rate: float = 0.4
    oversubscription: int = 4
    num_hotspots: int | None = None
    aggressor_start: int = 0
    aggressor_stop: int | None = None
    kind: str = "hotspot"


@dataclass(frozen=True)
class UniformAggressorTraffic:
    """Fig. 9 scenario: half victims, half max-rate burst aggressors."""

    burst_flits: int
    victim_rate: float = 0.4
    kind: str = "uniform_aggressor"


@dataclass(frozen=True)
class TraceTraffic:
    """Fig. 6 scenario: replay one synthetic MPI application trace
    (:data:`repro.trace.apps.APP_REGISTRY`), one rank per node, to
    completion — the scenario's only traffic; cycle engine only."""

    app: str
    size_scale: int = 4
    iterations: int = 1
    max_cycles: int = 2_000_000
    kind: str = "trace"


TrafficSpec = Union[
    UniformTraffic, HotspotTraffic, UniformAggressorTraffic, TraceTraffic
]


# ----------------------------------------------------------------------
# the scenario
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully specified experiment point, engine-agnostic.

    ``variant_kind`` selects how ``stash_scale`` is applied to the
    config: ``"reliability"`` (Section VI-A: ACK'd end-to-end
    retransmission from first-hop stash copies), ``"congestion"``
    (Section VI-B: ECN always on, stashing absorbs HoL blocking), or
    ``"plain"`` (config used as-is).  ``seed`` overrides the config's
    RNG seed when set — this is the slot the sweep executor's
    per-point derived seed lands in (:mod:`repro.engine.parallel`).
    ``probes`` names the recorders (:data:`repro.scenario.probes.PROBES`)
    whose series the cycle engine adds to the result's extras.
    """

    config: NetworkConfig
    variant_kind: str = "plain"
    variant: str = "baseline"
    topology: TopologySpec = DragonflyTopologySpec()
    traffic: tuple[TrafficSpec, ...] = ()
    drain: bool = True
    seed: int | None = None
    probes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.variant_kind not in ("plain", "reliability", "congestion"):
            raise ValueError(
                f"unknown variant_kind {self.variant_kind!r}; choose "
                "plain, reliability, or congestion"
            )
        if self.variant_kind == "reliability":
            if self.variant not in RELIABILITY_VARIANTS:
                raise ValueError(f"unknown reliability variant {self.variant!r}")
        if self.variant_kind == "congestion":
            if self.variant not in CONGESTION_VARIANTS:
                raise ValueError(f"unknown congestion variant {self.variant!r}")
        if len(self.traffic) > 1 and any(
            isinstance(t, TraceTraffic) for t in self.traffic
        ):
            raise ValueError("a trace replay must be the scenario's only traffic")

    # -- derivation helpers ------------------------------------------------

    def with_seed(self, seed: int | None) -> "ScenarioSpec":
        """A copy with the per-run seed slot filled (or cleared)."""
        return replace(self, seed=seed)

    @property
    def stash_scale(self) -> float | None:
        """The variant's stash capacity scale (None = no stashing)."""
        if self.variant_kind == "reliability":
            return RELIABILITY_VARIANTS[self.variant]
        if self.variant_kind == "congestion":
            return CONGESTION_VARIANTS[self.variant]
        return self.config.stash.capacity_scale if self.config.stash.enabled else None

    def resolved_config(self) -> NetworkConfig:
        """The concrete :class:`NetworkConfig` after applying the seed
        override and the stash/reliability/ECN variant."""
        from dataclasses import replace as drep

        cfg = self.config
        if self.seed is not None:
            cfg = cfg.with_(sim=drep(cfg.sim, seed=self.seed))
        if self.variant_kind == "plain":
            return cfg
        scale = self.stash_scale
        if self.variant_kind == "reliability":
            if scale is None:
                return cfg.with_(
                    stash=StashParams(enabled=False),
                    reliability=ReliabilityParams(enabled=False),
                )
            return cfg.with_(
                stash=drep(cfg.stash, enabled=True, capacity_scale=scale),
                reliability=ReliabilityParams(enabled=True),
            )
        # congestion: ECN always on; stashing variants also stash
        # HoL-blocked packets while notification converges
        ecn = drep(cfg.ecn, enabled=True, stash_on_congestion=scale is not None)
        if scale is None:
            return cfg.with_(stash=StashParams(enabled=False), ecn=ecn)
        return cfg.with_(
            stash=drep(cfg.stash, enabled=True, capacity_scale=scale),
            ecn=ecn,
        )

    def spec_hash(self) -> str:
        """Stable content hash of the scenario.

        Identical for identical specs across processes, hosts, and
        engines — the cross-validation key that proves both engines ran
        the same scenario.  It covers only what changes a result: the
        kernel, the wake oracle and observability (``sim.kernel``,
        ``sim.verify_wake``, ``obs``) are byte-identical by contract,
        so they stay out and one scenario keeps one key however it is
        run.
        """
        config = asdict(self.config)
        del config["obs"]
        del config["sim"]["kernel"], config["sim"]["verify_wake"]
        payload: dict[str, Any] = {
            "config": config,
            "variant_kind": self.variant_kind,
            "variant": self.variant,
            "topology": asdict(self.topology),
            "traffic": [asdict(t) for t in self.traffic],
            "drain": self.drain,
            "seed": self.seed,
            "probes": list(self.probes),
        }
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def reliability_scenario(
    base: NetworkConfig,
    variant: str,
    traffic: tuple[TrafficSpec, ...] = (),
    topology: TopologySpec | None = None,
    drain: bool = True,
) -> ScenarioSpec:
    """A Section VI-A scenario: ACKs on, stash variant applied."""
    return ScenarioSpec(
        config=base,
        variant_kind="reliability",
        variant=variant,
        topology=topology if topology is not None else DragonflyTopologySpec(),
        traffic=traffic,
        drain=drain,
    )


def congestion_scenario(
    base: NetworkConfig,
    variant: str,
    traffic: tuple[TrafficSpec, ...] = (),
    topology: TopologySpec | None = None,
    drain: bool = True,
    probes: tuple[str, ...] = (),
) -> ScenarioSpec:
    """A Section VI-B scenario: ECN on, stash variant applied."""
    return ScenarioSpec(
        config=base,
        variant_kind="congestion",
        variant=variant,
        topology=topology if topology is not None else DragonflyTopologySpec(),
        traffic=traffic,
        drain=drain,
        probes=probes,
    )


# ----------------------------------------------------------------------
# materialisation (shared by both engines)
# ----------------------------------------------------------------------


def build_topology(
    spec: ScenarioSpec, cfg: NetworkConfig
) -> tuple["Topology | None", NetworkConfig]:
    """Construct the spec's topology object (None = let Network build
    the config's dragonfly itself) and the possibly-widened config.

    The fat-tree branch reproduces the historical experiment setup: the
    tree is built with at least ``min_ports`` ports and the switch
    section is re-tiled to match when the configured radix is smaller.
    """
    topo_spec = spec.topology
    if isinstance(topo_spec, DragonflyTopologySpec):
        return None, cfg
    if isinstance(topo_spec, SingleSwitchTopologySpec):
        from repro.topology.single_switch import SingleSwitchTopology

        topo = SingleSwitchTopology(
            num_nodes=topo_spec.num_nodes,
            num_ports=cfg.switch.num_ports,
            latency=topo_spec.latency,
        )
        return topo, cfg
    if isinstance(topo_spec, FatTreeTopologySpec):
        from dataclasses import replace as drep

        from repro.topology.fattree import FatTreeTopology

        topo = FatTreeTopology(
            num_leaves=topo_spec.num_leaves,
            num_spines=topo_spec.num_spines,
            p=topo_spec.p,
            num_ports=max(cfg.switch.num_ports, topo_spec.min_ports),
            latency_endpoint=cfg.dragonfly.latency_endpoint,
            latency_up=cfg.dragonfly.latency_global // 2,
        )
        if topo.num_ports != cfg.switch.num_ports:
            cfg = cfg.with_(
                switch=drep(
                    cfg.switch,
                    num_ports=topo.num_ports,
                    rows=topo_spec.rows,
                    cols=topo_spec.cols,
                )
            )
        return topo, cfg
    raise TypeError(f"unknown topology spec {topo_spec!r}")


def apply_traffic(net: "Network", spec: ScenarioSpec) -> None:
    """Attach the spec's declarative traffic to a built network."""
    for traffic in spec.traffic:
        if isinstance(traffic, UniformTraffic):
            net.add_uniform_traffic(
                rate=traffic.rate,
                msg_flits=traffic.msg_flits,
                start=traffic.start,
                stop=traffic.stop,
            )
        elif isinstance(traffic, HotspotTraffic):
            from repro.traffic.aggressor import hotspot_scenario

            net.built_scenarios.append(
                hotspot_scenario(
                    net,
                    victim_rate=traffic.victim_rate,
                    oversubscription=traffic.oversubscription,
                    num_hotspots=traffic.num_hotspots,
                    aggressor_start=traffic.aggressor_start,
                    aggressor_stop=traffic.aggressor_stop,
                )
            )
        elif isinstance(traffic, UniformAggressorTraffic):
            from repro.traffic.aggressor import uniform_aggressor_scenario

            net.built_scenarios.append(
                uniform_aggressor_scenario(
                    net,
                    burst_flits=traffic.burst_flits,
                    victim_rate=traffic.victim_rate,
                )
            )
        elif not isinstance(traffic, TraceTraffic):
            # (a trace is replayed by the engine, not attached as a source)
            raise TypeError(f"unknown traffic spec {traffic!r}")


def build_network(spec: ScenarioSpec) -> "Network":
    """Materialise a scenario into a cycle-accurate :class:`Network`.

    The construction sequence (config resolution, topology, router,
    traffic attachment) reproduces the historical per-experiment
    builders exactly, so ``--engine cycle`` output is byte-identical to
    the pre-ScenarioSpec code (tests/test_engine_identity.py).
    """
    from repro.network import Network

    cfg = spec.resolved_config()
    topo, cfg = build_topology(spec, cfg)
    router = None
    if isinstance(spec.topology, FatTreeTopologySpec):
        from repro.engine.rng import DeterministicRng
        from repro.routing.fattree_routing import FatTreeRouter

        assert topo is not None
        router = FatTreeRouter(
            topo, DeterministicRng(cfg.sim.seed).stream("fattree-routing")
        )
    net = Network(cfg, topology=topo, router=router)
    apply_traffic(net, spec)
    return net

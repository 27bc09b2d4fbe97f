"""Declarative, engine-agnostic experiment scenarios (ScenarioSpec).

See :mod:`repro.scenario.spec` for the data model and
:mod:`repro.engine.base` for the engines that consume it.
"""

from repro.scenario.spec import (
    CONGESTION_VARIANTS,
    RELIABILITY_VARIANTS,
    DragonflyTopologySpec,
    FatTreeTopologySpec,
    HotspotTraffic,
    ScenarioSpec,
    SingleSwitchTopologySpec,
    TopologySpec,
    TraceTraffic,
    TrafficSpec,
    UniformAggressorTraffic,
    UniformTraffic,
    build_network,
    build_topology,
    congestion_scenario,
    reliability_scenario,
)

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

"""Simulation kernel: cycle loop, channels, configuration, statistics.

This package is the BookSim-substitute substrate: a deterministic,
cycle-level simulation engine that the switch, endpoint, and protocol
models plug into.
"""

from repro.engine.channel import Channel
from repro.engine.config import (
    EcnParams,
    NetworkConfig,
    ObsParams,
    ReliabilityParams,
    SimParams,
    StashParams,
    SwitchParams,
    paper_preset,
    small_preset,
    tiny_preset,
)
from repro.engine.parallel import (
    RunOutcome,
    RunSpec,
    SweepError,
    Timed,
    derive_run_seed,
    drain_run_log,
    run_specs,
)
from repro.engine.rng import DeterministicRng
from repro.engine.simulator import Component, Simulator
from repro.engine.stats import LatencyStats, RateMeter, TimeSeries

__all__ = [
    "Channel",
    "Component",
    "DeterministicRng",
    "EcnParams",
    "LatencyStats",
    "NetworkConfig",
    "ObsParams",
    "RateMeter",
    "ReliabilityParams",
    "RunOutcome",
    "RunSpec",
    "SimParams",
    "Simulator",
    "StashParams",
    "SweepError",
    "SwitchParams",
    "TimeSeries",
    "Timed",
    "derive_run_seed",
    "drain_run_log",
    "paper_preset",
    "run_specs",
    "small_preset",
    "tiny_preset",
]

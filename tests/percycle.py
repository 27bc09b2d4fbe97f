"""The per-cycle Bernoulli process, kept in tests only.

``PerCycleBernoulli`` is the injection process as it was before the
draw-ahead schedule (``BernoulliSource`` in
``src/repro/traffic/generators.py``): one uniform per endpoint per
active cycle, drawn *on* that cycle.  It is the oracle the shipped
source is compared against — same draws, same order, same stream, so
every simulated byte must be equal (tests/test_injection_schedule.py,
tests/test_schedule_mutants.py).
"""

from __future__ import annotations

from repro.engine.config import ReliabilityParams, SimParams, StashParams
from repro.network import Network
from repro.traffic.generators import BernoulliSource
from repro.traffic.patterns import uniform_random
from tests.conftest import micro_config, model_counters


class PerCycleBernoulli(BernoulliSource):
    """The parent's ``generate`` / ``next_active_cycle``, verbatim but
    for the endpoint argument the protocol now passes."""

    def next_active_cycle(self, endpoint, cycle):
        if self.prob <= 0.0:
            return None
        nxt = cycle + 1
        if nxt < self.start:
            return self.start
        if self.stop is not None and nxt >= self.stop:
            return None
        return nxt

    def generate(self, endpoint, cycle):
        if not self.active(cycle) or self.prob <= 0.0:
            return
        if endpoint.rng.random() < self.prob:
            dst = self.pattern(endpoint.node, endpoint.rng)
            endpoint.post_message(dst, self.msg_flits, cycle, tag=self.tag)


def run_micro(
    source_cls,
    *,
    rate: float,
    msg_flits: int = 4,
    start: int = 0,
    stop: int | None = None,
    seed: int = 7,
    kernel: str = "event",
    two_sources: bool = False,
    error_rate: float = 0.0,
    measure_cycles: int = 1000,
    verify_wake: bool = False,
):
    """One ``run_standard`` of the micro dragonfly (stash100, so a
    corrupted packet is retransmitted) under ``source_cls`` traffic;
    returns ``(net.result(), model_counters(net))``."""
    net = Network(micro_config(
        stash=StashParams(enabled=True, frac_local=0.5),
        reliability=ReliabilityParams(enabled=True, error_rate=error_rate),
        sim=SimParams(seed=seed, warmup_cycles=200,
                      measure_cycles=measure_cycles, drain_cycles=1500,
                      sample_period=25, kernel=kernel,
                      verify_wake=verify_wake),
    ))
    pattern = uniform_random(net.topology.num_nodes)
    net.add_source(source_cls(rate, msg_flits, pattern, start=start, stop=stop))
    if two_sources:
        net.add_source(source_cls(rate / 2, msg_flits + 3, pattern, tag=1))
    return net.run_standard(), model_counters(net)

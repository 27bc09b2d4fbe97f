"""Property-based end-to-end fuzzing: arbitrary message matrices on the
micro dragonfly must always conserve and drain, for every protocol
combination."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.config import (
    EcnParams,
    LinkParams,
    OrderingParams,
    ReliabilityParams,
    StashParams,
)
from repro.network import Network
from tests.conftest import drain_and_check, micro_config


def _build(protocols: int) -> Network:
    """Map a 3-bit selector onto protocol combinations."""
    stash = bool(protocols & 1)
    ecn = bool(protocols & 2)
    link = bool(protocols & 4)
    cfg = micro_config(
        stash=StashParams(enabled=stash, frac_local=0.5),
        reliability=ReliabilityParams(enabled=stash),
        ecn=EcnParams(
            enabled=ecn,
            stash_on_congestion=stash and ecn,
            window_max_flits=256,
            window_min_flits=4,
            recovery_period=4,
        ),
        link=LinkParams(enabled=link, error_rate=0.02 if link else 0.0,
                        ack_interval=2),
    )
    return Network(cfg)


@given(
    protocols=st.integers(0, 7),
    messages=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 24)),
        min_size=1,
        max_size=25,
    ),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_any_message_matrix_conserves(protocols, messages):
    net = _build(protocols)
    for src, dst, size in messages:
        net.endpoints[src].post_message(dst, size, 0)
    drain_and_check(net, max_cycles=400_000)


@given(seed=st.integers(0, 2**16))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_everything_on_with_faults(seed):
    """All protocols + endpoint corruption + reordering, random seeds."""
    from dataclasses import replace

    cfg = micro_config(
        stash=StashParams(enabled=True, frac_local=0.5),
        reliability=ReliabilityParams(enabled=True, error_rate=0.05),
        ordering=OrderingParams(enabled=True, buffer_flits=16),
        link=LinkParams(enabled=True, error_rate=0.02, ack_interval=2),
    )
    cfg = cfg.with_(sim=replace(cfg.sim, seed=seed))
    net = Network(cfg)
    net.add_uniform_traffic(rate=0.25, stop=400)
    net.sim.run(400)
    drain_and_check(net, max_cycles=500_000)

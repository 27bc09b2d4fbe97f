"""Draw-ahead injection schedules (docs/PERFORMANCE.md): the shipped
``BernoulliSource`` against the per-cycle process it replaced.

The shipped source draws an endpoint's uniforms early so the endpoint
can sleep until its next injection; it must still consume the same
samples in the same order from the same stream, so every result and
every harvested model counter equals the per-cycle reference's — for any
window, with the stream shared or not, under either kernel.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.endpoints.endpoint import Endpoint
from repro.engine.config import SimParams
from repro.network import Network
from repro.obs import audit
from repro.traffic.generators import DRAW_AHEAD_HORIZON, BernoulliSource
from tests.conftest import micro_config, model_counters
from tests.percycle import PerCycleBernoulli, run_micro


@given(
    rate=st.sampled_from([0.002, 0.01, 0.1, 0.25, 0.5]),
    msg_flits=st.integers(1, 9),
    start=st.integers(0, 400),
    # inside the horizon, at or before start, or open-ended
    stop=st.one_of(st.none(), st.integers(0, 1200)),
    seed=st.integers(0, 2**16),
    two_sources=st.booleans(),
    error_rate=st.sampled_from([0.0, 0.05]),
    kernel=st.sampled_from(["event", "polling"]),
)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_equals_the_per_cycle_process(**point):
    point["measure_cycles"] = 700
    shipped = run_micro(BernoulliSource, **point)
    assert shipped == run_micro(PerCycleBernoulli, **point)


@pytest.mark.parametrize("kernel", ["event", "polling"])
def test_horizon_miss_then_continue(kernel, monkeypatch):
    """Rate low enough that endpoints draw a whole horizon without a
    hit: the source must report the cycle after it and go on drawing."""
    drawn = []
    draw_ahead = BernoulliSource._draw_ahead

    def recording(self, endpoint, cycle):
        entry = draw_ahead(self, endpoint, cycle)
        drawn.append((endpoint.node, cycle, *entry))
        return entry

    monkeypatch.setattr(BernoulliSource, "_draw_ahead", recording)
    point = dict(rate=0.0008, measure_cycles=4 * DRAW_AHEAD_HORIZON,
                 seed=3, kernel=kernel)
    shipped = run_micro(BernoulliSource, **point)
    misses = [
        (node, cycle, when) for node, cycle, when, dst in drawn
        if dst is None and when == cycle + DRAW_AHEAD_HORIZON - 1
    ]
    assert misses, "no endpoint drew a full horizon without a hit"
    node, _, when = misses[0]
    # the next draw of that endpoint starts on the cycle after the miss
    assert (node, when + 1) in {(n, c) for n, c, _, _ in drawn}
    assert any(dst is not None for _, _, _, dst in drawn)
    assert shipped == run_micro(PerCycleBernoulli, **point)
    assert shipped[0].packets_measured > 0


def test_sparse_endpoints_sleep_between_injections(monkeypatch):
    """At load 0.01 an endpoint's steps follow its events (a message
    posted, a flit or credit arriving), not the cycle count."""
    steps = [0]
    step = Endpoint.step

    def counting(self, cycle):
        steps[0] += 1
        step(self, cycle)

    monkeypatch.setattr(Endpoint, "step", counting)
    cycles = 40_000
    result, counters = run_micro(
        BernoulliSource, rate=0.01, measure_cycles=cycles, seed=5
    )
    # every delivered data packet is answered by one ACK
    events = (
        counters["endpoint.nic.messages_posted"]
        + 2 * counters["endpoint.nic.packets_delivered"]
    )
    assert result.packets_measured > 100
    assert steps[0] <= 8 * events
    assert steps[0] < 0.1 * cycles * 6  # six endpoints, mostly asleep


def test_backlog_counter_tracks_the_queues_mid_run(micro_net):
    micro_net.add_uniform_traffic(0.6, msg_flits=10)
    for _ in range(40):
        micro_net.sim.run(25)
        audit(micro_net)
    assert any(ep.backlog_flits for ep in micro_net.endpoints)


def test_second_source_mid_run_is_kernel_identical():
    """A source attached to an endpoint that has already drawn ahead is
    the one case not comparable to the per-cycle process (the pending
    entry was drawn before the stream became shared) — but it is still
    deterministic and the same under both kernels."""
    def run(kernel):
        net = Network(micro_config(sim=SimParams(seed=9, kernel=kernel)))
        net.add_uniform_traffic(0.05, stop=2000)
        net.sim.run(700)
        net.add_uniform_traffic(0.3, stop=1500)
        net.sim.run(1300)
        assert net.drain(30000)
        return net.result(), model_counters(net)

    assert run("event") == run("polling") == run("event")

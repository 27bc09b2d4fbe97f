"""Shared fixtures: micro-scale configurations for fast integration tests.

``micro_config`` is a 6-node, 6-switch dragonfly (p=1, a=2, h=1) with
short links and small buffers — single-digit milliseconds per thousand
cycles.  ``single_switch_net`` wires N endpoints to one switch, the
fastest way to exercise the full datapath.

Every ``Simulator`` a test builds in this process runs with the wake
oracle on (``verify_wake=True``, docs/WAKE_CONTRACT.md), so any test
that drives a simulation also checks the wake contract along the way.
"""

from __future__ import annotations

import pytest

from repro.engine.config import (
    DragonflyParams,
    EcnParams,
    NetworkConfig,
    ReliabilityParams,
    SimParams,
    StashParams,
    SwitchParams,
)
from repro.engine.simulator import Simulator
from repro.network import Network
from repro.obs import harvest
from repro.topology.single_switch import SingleSwitchTopology


@pytest.fixture(autouse=True)
def _wake_oracle_on(request, monkeypatch):
    """Force ``verify_wake=True`` on every Simulator the test builds;
    ``@pytest.mark.shadow_off`` opts out (for the one test that compares
    a run with the oracle off against the same run with it on)."""
    if request.node.get_closest_marker("shadow_off") is not None:
        return
    init = Simulator.__init__

    def init_verified(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.verify_wake = True

    monkeypatch.setattr(Simulator, "__init__", init_verified)


def micro_config(**overrides) -> NetworkConfig:
    """A 6-node dragonfly that still exercises locals and globals."""
    base = dict(
        switch=SwitchParams(
            num_ports=4,
            rows=2,
            cols=2,
            num_vcs=6,
            input_buffer_flits=96,
            output_buffer_flits=96,
            row_buffer_packets=4,
            col_buffer_packets=4,
            max_packet_flits=4,
            speedup=1.3,
            sideband_latency=2,
        ),
        dragonfly=DragonflyParams(
            p=1,
            a=2,
            h=1,
            latency_endpoint=1,
            latency_local=2,
            latency_global=8,
        ),
        stash=StashParams(frac_local=0.5),
        sim=SimParams(
            seed=7,
            warmup_cycles=300,
            measure_cycles=1500,
            drain_cycles=30000,
            sample_period=25,
        ),
    )
    base.update(overrides)
    return NetworkConfig(**base)


def single_switch_config(num_nodes: int = 6, **overrides) -> NetworkConfig:
    base = dict(
        switch=SwitchParams(
            num_ports=6,
            rows=2,
            cols=2,
            num_vcs=6,
            input_buffer_flits=96,
            output_buffer_flits=96,
            max_packet_flits=4,
            sideband_latency=2,
        ),
        # the dragonfly section is unused with an explicit topology, but
        # must still fit the switch for NetworkConfig validation
        dragonfly=DragonflyParams(
            p=1, a=2, h=1, latency_endpoint=1, latency_local=2,
            latency_global=4,
        ),
        stash=StashParams(frac_local=0.5),
        sim=SimParams(
            seed=11, warmup_cycles=200, measure_cycles=1000, drain_cycles=20000
        ),
    )
    base.update(overrides)
    return NetworkConfig(**base)


def single_switch_net(
    num_nodes: int = 6,
    stash: bool = False,
    reliability: bool = False,
    error_rate: float = 0.0,
    ecn: bool = False,
    stash_on_congestion: bool = False,
    **overrides,
) -> Network:
    cfg = single_switch_config(num_nodes, **overrides)
    if stash:
        cfg = cfg.with_(
            stash=StashParams(enabled=True, frac_local=0.5),
            reliability=ReliabilityParams(
                enabled=reliability, error_rate=error_rate
            ),
        )
    if ecn:
        cfg = cfg.with_(
            ecn=EcnParams(
                enabled=True,
                stash_on_congestion=stash_on_congestion,
                window_max_flits=256,
                window_min_flits=4,
                recovery_period=4,
            )
        )
    topo = SingleSwitchTopology(num_nodes, cfg.switch.num_ports, latency=2)
    return Network(cfg, topology=topo)


@pytest.fixture
def micro_net() -> Network:
    return Network(micro_config())


def sweep_rows(sweep, base, axes, seed=1, engine="cycle", jobs=1):
    """Expand one sweep family over ``base`` and run it — the runner's
    path (``expand_sweep`` → ``run_points``) at test scale; returns the
    ``(point, result)`` rows the ``format_<sweep>`` renderers take."""
    from repro.campaign.service import run_points
    from repro.campaign.spec import expand_sweep

    return run_points(
        expand_sweep(sweep, base, axes, (seed,), engine), jobs=jobs
    )


#: the kernel's self-telemetry: how much work the cycle loop did, which
#: differs between the two kernels (and between a source and its
#: per-cycle reference) by design
KERNEL_TELEMETRY = (
    "engine.sim.steps", "engine.sim.wakes", "engine.sim.stale_pops",
    "engine.sim.skips",
)


def model_counters(net: Network) -> dict[str, int]:
    """``harvest(net)`` without :data:`KERNEL_TELEMETRY`: every counter
    of the simulated network, which polling ≡ event holds equal."""
    counters = harvest(net)
    for name in KERNEL_TELEMETRY:
        del counters[name]
    return counters


def drain_and_check(net: Network, max_cycles: int = 60000) -> None:
    """Run the network empty and assert full message conservation."""
    assert net.drain(max_cycles), "network failed to drain"
    c = harvest(net)
    posted = c["endpoint.nic.messages_posted"]
    delivered = c["network.messages.delivered"]
    assert delivered == posted, f"{delivered}/{posted} messages delivered"
    assert c["network.messages.posted"] == posted
    assert c["switch.datapath.flits_in_flight"] == 0
    assert c["switch.stash.committed_flits"] == 0
    for ep in net.endpoints:
        queued = sum(p.size for q in ep.send_queues.values() for p in q)
        assert ep.backlog_flits == queued == 0
    # VC-space conservation: once each switch settles the credit returns
    # and retention releases it deferred while idle, every DAMQ and every
    # switch-side mirror is empty.  An endpoint mirror still counts the
    # credits waiting on its credit wire, which is deliberately unbound
    # (docs/WAKE_CONTRACT.md) and drained only at the endpoint's next step.
    cycle = net.sim.cycle
    for sw in net.switches:
        sw.settle(cycle)
        spaces = [ip.damq.space for ip in sw.in_ports]
        spaces += [op.out_damq.space for op in sw.out_ports]
        spaces += [op.mirror for op in sw.out_ports if op.mirror is not None]
        for space in spaces:
            where = (sw.switch_id, space.committed)
            assert space.committed == [0] * space.num_vcs, where
            assert space._shared_used == 0 == space.total_committed, where
    for ep in net.endpoints:
        if ep.mirror is None:
            continue
        owed = [0] * ep.mirror.num_vcs
        for _due, (vc, n) in ep.credit_in._queue:
            owed[vc] += n
        assert ep.mirror.committed == owed, (ep.node, owed)

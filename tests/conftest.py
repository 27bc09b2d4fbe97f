"""Shared fixtures: micro-scale configurations for fast integration tests.

``micro_config`` is a 6-node, 6-switch dragonfly (p=1, a=2, h=1) with
short links and small buffers — single-digit milliseconds per thousand
cycles.  ``single_switch_net`` wires N endpoints to one switch, the
fastest way to exercise the full datapath.

Every ``Simulator`` a test builds in this process runs with the wake
oracle on (``verify_wake=True``, docs/WAKE_CONTRACT.md), and every
``Network`` with the conservation audit (:func:`repro.obs.audit`)
sampled every :data:`AUDIT_EVERY` cycles and after each run call, so
any test that drives a simulation also checks both along the way.
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
from repro.obs import audit, harvest
from repro.switch.flit import Flit, Packet
from repro.topology.single_switch import SingleSwitchTopology


#: cycles between two audits of every network a tier-1 test builds
AUDIT_EVERY = 128


@pytest.fixture(autouse=True)
def _oracles_on(request, monkeypatch):
    """Force ``verify_wake=True`` on every Simulator the test builds, and
    audit every Network it builds every :data:`AUDIT_EVERY` cycles and
    when each ``sim.run`` / ``sim.run_until`` call returns: the last
    state a test drives, checked without keeping every network alive
    until teardown, which slows the cyclic GC of hypothesis tests that
    build dozens.  ``@pytest.mark.oracle_off`` opts out of both, for a
    test that compares a run with an oracle off against one with it on
    or builds an inconsistent state by hand."""
    if request.node.get_closest_marker("oracle_off") is not None:
        return
    init = Simulator.__init__

    def init_verified(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.verify_wake = True

    init_net = Network.__init__

    def init_audited(self, *args, **kwargs):
        init_net(self, *args, **kwargs)
        sim = self.sim
        sim.add_sampler(AUDIT_EVERY, lambda _cycle: audit(self))
        run, run_until = sim.run, sim.run_until

        def run_audited(cycles):
            run(cycles)
            audit(self)

        def run_until_audited(predicate, max_cycles):
            held = run_until(predicate, max_cycles)
            audit(self)
            return held

        sim.run, sim.run_until = run_audited, run_until_audited

    monkeypatch.setattr(Simulator, "__init__", init_verified)
    monkeypatch.setattr(Network, "__init__", init_audited)


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
    """Run the network empty: every conservation identity holds
    (:func:`repro.obs.audit`) and nothing is left in flight."""
    assert net.drain(max_cycles), "network failed to drain"
    left = {name: n for name, n in audit(net).items() if n}
    assert not left, f"left in flight after drain: {left}"


def packet_flits(pkt: Packet) -> list[Flit]:
    """The flits a sender mints for ``pkt``, head to tail (a packet does
    not own its flits)."""
    return [Flit(pkt, i) for i in range(pkt.size)]


def completed_messages(net: Network) -> list:
    """Every message ``net`` completes from now on, in completion order.

    A delivery hook collects them: a completed message is still in
    ``net.messages`` while the hooks run and leaves it right after."""
    done = []

    def collect(pkt, _cycle):
        msg = net.messages.get(pkt.msg_id)
        if msg is not None and msg.delivered:
            done.append(msg)

    net.on_packet_delivered_hooks.append(collect)
    return done

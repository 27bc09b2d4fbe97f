"""The counter harvest (:func:`repro.obs.harvest`) on live networks:
conservation identities, protocol health, purity."""

import re

from repro.analysis.obsview import format_counters
from repro.engine.config import (
    LinkParams,
    ReliabilityParams,
    StashParams,
)
from repro.network import Network
from repro.obs import harvest
from tests.conftest import drain_and_check, micro_config, single_switch_net

#: ``layer.component.metric``: at least three lowercase dotted segments
METRIC_NAME = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*){2,}$")


def test_baseline_report_counts_flits():
    net = single_switch_net()
    net.add_uniform_traffic(rate=0.3, stop=400)
    net.sim.run(400)
    drain_and_check(net)
    c = harvest(net)
    assert c["endpoint.nic.flits_injected"] > 0
    # one switch: every injected flit is received exactly once
    assert c["endpoint.nic.flits_injected"] == c["switch.input.flits_received"]
    rate = c["endpoint.nic.flits_injected"] / (
        c["engine.sim.cycles"] * len(net.endpoints)
    )
    assert 0 < rate < 1


def test_stash_section_populated():
    net = single_switch_net(stash=True, reliability=True)
    net.add_uniform_traffic(rate=0.3, stop=400)
    net.sim.run(400)
    drain_and_check(net)
    c = harvest(net)
    assert c["switch.stash.capacity_flits"] > 0
    assert c["switch.stash.stores"] > 0
    assert c["switch.sideband.messages_sent"] >= 2 * c["switch.stash.stores"]


def test_link_section_populated():
    cfg = micro_config(
        link=LinkParams(enabled=True, error_rate=0.05, ack_interval=2)
    )
    net = Network(cfg)
    net.add_uniform_traffic(rate=0.25, stop=600)
    net.sim.run(600)
    drain_and_check(net, max_cycles=300_000)
    c = harvest(net)
    assert c["switch.link.flits_replayed"] > 0
    assert c["switch.link.nacks_received"] > 0
    assert c["switch.link.flits_accepted"] > c["switch.link.flits_discarded"]


def test_format_report_renders_sections():
    net = single_switch_net(stash=True, reliability=True)
    net.add_uniform_traffic(rate=0.3, stop=300)
    net.sim.run(300)
    drain_and_check(net)
    counters = harvest(net)
    lines = format_counters(counters).splitlines()
    assert [line.split()[0] for line in lines] == list(counters)
    stores = next(line for line in lines if line.startswith("switch.stash.stores"))
    assert int(stores.split()[1]) == counters["switch.stash.stores"] > 0


def test_combined_protocols_stress():
    """Everything at once: stashing reliability + endpoint corruption +
    lossy links + ECN.  All recovery machinery must compose."""
    from repro.engine.config import EcnParams

    cfg = micro_config(
        stash=StashParams(enabled=True, frac_local=0.5),
        reliability=ReliabilityParams(enabled=True, error_rate=0.03),
        link=LinkParams(enabled=True, error_rate=0.03, ack_interval=2),
        ecn=EcnParams(enabled=True, window_max_flits=256,
                      window_min_flits=4, recovery_period=4),
    )
    net = Network(cfg)
    net.add_uniform_traffic(rate=0.25, stop=800)
    net.sim.run(800)
    drain_and_check(net, max_cycles=400_000)
    c = harvest(net)
    assert c["switch.link.flits_replayed"] > 0
    assert c["switch.stash.retransmits_issued"] > 0
    assert c["endpoint.nic.packets_corrupted"] > 0


def test_harvest_is_a_pure_read_with_obs_off():
    """No observer: harvest reads the components, so it
    works on any network, is name-sorted, and repeats exactly."""
    net = single_switch_net(stash=True, reliability=True)
    assert net.obs is None
    net.add_uniform_traffic(rate=0.3, stop=300)
    net.sim.run(300)
    first = harvest(net)
    assert first == harvest(net)
    assert list(first) == sorted(first)
    assert all(METRIC_NAME.match(name) for name in first)
    assert all(isinstance(v, int) for v in first.values())
    # the key set does not depend on which subsystems the config enables
    assert list(harvest(single_switch_net())) == list(first)
    # the run's result reads the same harvest
    stalls = first["switch.input.stalls_no_stash"]
    assert net.result().extra("stash_stalls") == float(stalls)

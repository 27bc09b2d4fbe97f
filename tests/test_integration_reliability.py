"""End-to-end reliability stashing, full datapath (paper Section IV-A)."""

import pytest

from repro.engine.config import ReliabilityParams, StashParams
from repro.network import Network
from repro.obs import harvest
from repro.switch.flit import PacketKind
from tests.conftest import drain_and_check, micro_config, single_switch_net


def reliability_net(error_rate=0.0, capacity_scale=1.0, **overrides):
    cfg = micro_config(
        stash=StashParams(enabled=True, frac_local=0.5,
                          capacity_scale=capacity_scale),
        reliability=ReliabilityParams(enabled=True, error_rate=error_rate),
        **overrides,
    )
    return Network(cfg)


class TestCopyLifecycle:
    def test_every_data_packet_copied(self):
        net = reliability_net()
        net.endpoints[0].post_message(3, 16, 0)  # 4 packets
        drain_and_check(net)
        copies = sum(
            ip.copies_dispatched for sw in net.switches for ip in sw.in_ports
        )
        assert copies == 4

    def test_acks_not_copied(self):
        net = reliability_net()
        net.endpoints[0].post_message(3, 4, 0)  # 1 packet -> 1 ack back
        drain_and_check(net)
        copies = sum(
            ip.copies_dispatched for sw in net.switches for ip in sw.in_ports
        )
        assert copies == 1  # the data packet only

    def test_stash_drains_after_acks(self):
        net = reliability_net()
        net.add_uniform_traffic(rate=0.3, stop=1000)
        net.sim.run(1000)
        drain_and_check(net)

    def test_stores_equal_deletes_when_error_free(self):
        net = reliability_net()
        net.add_uniform_traffic(rate=0.3, stop=1000)
        net.sim.run(1000)
        drain_and_check(net)
        # stores == deletes + retrieves is audited; error-free, no copy
        # is ever retrieved
        c = harvest(net)
        assert c["switch.stash.stores"] > 0
        assert c["switch.stash.retrieves"] == 0

    def test_copies_only_at_first_hop_end_ports(self):
        net = reliability_net()
        net.add_uniform_traffic(rate=0.3, stop=600)
        net.sim.run(600)
        net.drain(50000)
        for sw in net.switches:
            for ip in sw.in_ports:
                if not ip.is_end_port:
                    assert ip.copies_dispatched == 0

    def test_global_ports_never_store(self):
        net = reliability_net()
        net.add_uniform_traffic(rate=0.4, stop=1200)
        net.sim.run(1200)
        net.drain(50000)
        for s, sw in enumerate(net.switches):
            for spec in net.topology.switch_ports(s):
                if spec.link_class == "global":
                    assert sw.stash_dir.partitions[spec.port].stored_total == 0


class TestRetransmission:
    def test_recovers_from_corruption(self):
        net = reliability_net(error_rate=0.1)
        net.add_uniform_traffic(rate=0.25, stop=1200)
        net.sim.run(1200)
        drain_and_check(net, max_cycles=120_000)
        corrupted = sum(ep.packets_corrupted for ep in net.endpoints)
        retrans = sum(sw.retransmits_issued for sw in net.switches)
        assert corrupted > 0, "fault injection produced no errors"
        assert retrans >= corrupted  # clones can be corrupted again

    def test_repeated_corruption_eventually_delivers(self):
        net = reliability_net(error_rate=0.4)
        net.endpoints[0].post_message(3, 8, 0)
        drain_and_check(net, max_cycles=200_000)

    def test_tracker_and_switch_counters_agree(self):
        net = reliability_net(error_rate=0.3)
        net.add_uniform_traffic(rate=0.2, stop=800)
        net.sim.run(800)
        net.drain(120_000)
        assert sum(sw.retransmits_issued for sw in net.switches) == sum(
            t.retransmits_sent
            for sw in net.switches
            for t in sw.trackers.values()
        )


class TestSelfPacing:
    def test_tiny_stash_limits_outstanding(self):
        """With almost no stash capacity, injection self-paces: the
        input stalls whenever no stash space is free (paper: 'the
        network simply slows down its packet injection rate')."""
        throttled = reliability_net(capacity_scale=0.05)
        free = reliability_net(capacity_scale=1.0)
        for net in (throttled, free):
            net.add_uniform_traffic(rate=0.9, stop=1500)
            net.sim.run(1500)
        inj_throttled = sum(ep.flits_injected for ep in throttled.endpoints)
        inj_free = sum(ep.flits_injected for ep in free.endpoints)
        assert inj_throttled < 0.8 * inj_free
        stalls = sum(
            ip.stall_no_stash
            for sw in throttled.switches
            for ip in sw.in_ports
        )
        assert stalls > 0
        # and it still conserves everything once traffic stops
        drain_and_check(throttled, max_cycles=200_000)

    def test_acks_flow_despite_stash_stall(self):
        """ACKs must bypass a stash-stalled data queue (they ride their
        own injection VC), otherwise the stall never clears."""
        net = reliability_net(capacity_scale=0.05)
        net.add_uniform_traffic(rate=0.9, stop=1000)
        net.sim.run(1000)
        drain_and_check(net, max_cycles=200_000)


class TestOnSingleSwitch:
    def test_single_switch_reliability(self):
        net = single_switch_net(stash=True, reliability=True)
        for src in range(6):
            net.endpoints[src].post_message((src + 1) % 6, 12, 0)
        drain_and_check(net)

    def test_single_switch_fault_injection(self):
        net = single_switch_net(
            stash=True, reliability=True, error_rate=0.2
        )
        for src in range(6):
            net.endpoints[src].post_message((src + 2) % 6, 20, 0)
        drain_and_check(net, max_cycles=150_000)
        assert sum(ep.packets_corrupted for ep in net.endpoints) > 0


class TestNoDegradation:
    def test_throughput_matches_baseline_at_moderate_load(self):
        """The paper's headline: full-capacity stashing is performance
        neutral."""
        base_net = Network(micro_config())
        stash_net = reliability_net()
        results = []
        for net in (base_net, stash_net):
            net.add_uniform_traffic(rate=0.35)
            res = net.run_standard()
            results.append(res)
        base, stash = results
        assert stash.accepted_load == pytest.approx(base.accepted_load,
                                                    rel=0.05)
        assert stash.avg_latency == pytest.approx(base.avg_latency, rel=0.25)

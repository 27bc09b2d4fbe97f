"""ECN + congestion stashing, full datapath (paper Section IV-B)."""

import pytest

from repro.engine.config import EcnParams, StashParams
from repro.network import Network
from repro.traffic.generators import BernoulliSource
from repro.traffic.patterns import hotspot, uniform_random
from tests.conftest import drain_and_check, micro_config, single_switch_net


def congestion_net(stash_on: bool, **overrides):
    cfg = micro_config(
        stash=StashParams(enabled=stash_on, frac_local=0.5),
        ecn=EcnParams(
            enabled=True,
            stash_on_congestion=stash_on,
            window_max_flits=256,
            window_min_flits=4,
            recovery_period=4,
        ),
        **overrides,
    )
    return Network(cfg)


class TestEcnMechanics:
    def test_hotspot_triggers_marking_and_cuts(self):
        net = congestion_net(stash_on=False)
        n = net.topology.num_nodes
        # everyone floods node 0
        net.add_source(
            BernoulliSource(rate=1.0, msg_flits=4, pattern=hotspot([0]),
                            stop=1500),
            range(1, n),
        )
        net.sim.run(1500)
        marked = sum(
            ip.packets_marked for sw in net.switches for ip in sw.in_ports
        )
        cuts = sum(ep.ecn.window_cuts for ep in net.endpoints)
        assert marked > 0
        assert cuts > 0
        drain_and_check(net, max_cycles=100_000)

    def test_no_marking_under_light_load(self):
        net = congestion_net(stash_on=False)
        net.add_uniform_traffic(rate=0.1, stop=1000)
        net.sim.run(1000)
        marked = sum(
            ip.packets_marked for sw in net.switches for ip in sw.in_ports
        )
        assert marked == 0

    def test_windows_recover_after_congestion(self):
        net = congestion_net(stash_on=False)
        n = net.topology.num_nodes
        net.add_source(
            BernoulliSource(rate=1.0, msg_flits=4, pattern=hotspot([0]),
                            stop=800),
            range(1, n),
        )
        net.sim.run(800)
        net.drain(100_000)
        net.sim.run(2000)  # idle time: recovery timers run
        for ep in net.endpoints:
            assert ep.ecn.throttled_destinations == 0


class TestCongestionStashing:
    def test_divert_and_retrieve_conserves(self):
        net = congestion_net(stash_on=True)
        n = net.topology.num_nodes
        net.add_source(
            BernoulliSource(rate=1.0, msg_flits=4, pattern=hotspot([0]),
                            stop=1200),
            range(1, n),
        )
        net.add_uniform_traffic(rate=0.2, stop=1200, nodes=[0])
        net.sim.run(1200)
        drain_and_check(net, max_cycles=150_000)

    def test_diverted_packets_counted(self):
        net = single_switch_net(stash=True, ecn=True,
                                stash_on_congestion=True)
        # oversubscribe node 0 hard from all five other nodes
        for src in range(1, 6):
            for _ in range(6):
                net.endpoints[src].post_message(0, 16, 0)
        net.sim.run(2500)
        drain_and_check(net, max_cycles=100_000)
        diverted = sum(
            ip.packets_diverted
            for sw in net.switches
            for ip in sw.in_ports
        )
        retrieved = sum(
            p.retrieved_total
            for sw in net.switches
            for p in sw.stash_dir.partitions
        )
        assert diverted > 0
        assert retrieved == diverted

    def test_divert_only_for_endpoint_bound_packets(self):
        """Condition 2 of Section IV-B: only packets whose output at this
        switch is an end port are stashed."""
        net = congestion_net(stash_on=True)
        n = net.topology.num_nodes
        net.add_source(
            BernoulliSource(rate=1.0, msg_flits=4, pattern=hotspot([0]),
                            stop=1000),
            range(1, n),
        )
        net.sim.run(1000)
        net.drain(150_000)
        for sw in net.switches:
            for part in sw.stash_dir.partitions:
                # FIFO entries only ever existed on end ports' switches;
                # after drain everything must be gone anyway
                assert part.fifo_depth == 0

    def test_stashed_not_counted_in_ecn_occupancy(self):
        """Section IV-B: stashed packets are excluded from the port's
        congestion calculation — occupancy_fraction reads the normal
        DAMQ only, so committing stash space must not change it."""
        net = single_switch_net(stash=True, ecn=True,
                                stash_on_congestion=True)
        sw = net.switches[0]
        ip = sw.in_ports[1]
        before = ip.damq.occupancy_fraction()
        sw.stash_dir.partitions[1].commit(8)
        assert ip.damq.occupancy_fraction() == before


class TestHoLRelief:
    @pytest.mark.slow
    def test_stashing_reduces_victim_tail(self):
        """The headline of Fig. 7: with stashing, victim packets sharing
        a congested switch see a shorter latency tail."""
        results = {}
        for stash_on in (False, True):
            net = congestion_net(stash_on=stash_on)
            n = net.topology.num_nodes
            hot = n - 1
            aggressors = [n - 2, n - 3]
            victims = [v for v in range(n) if v not in (*aggressors, hot)]
            net.add_source(
                BernoulliSource(rate=1.0, msg_flits=4,
                                pattern=hotspot([hot]), start=500, stop=2500),
                aggressors,
            )
            net.add_uniform_traffic(rate=0.3, nodes=victims)
            net.track_group("victim", victims)
            net.sim.run(400)
            net.open_measurement()
            net.sim.run(3000)
            net.close_measurement()
            results[stash_on] = net.group_latency["victim"].percentile(99)
        assert results[True] <= results[False] * 1.1, results

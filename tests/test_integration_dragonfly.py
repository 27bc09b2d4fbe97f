"""Multi-hop integration on the micro dragonfly (6 switches, 6 nodes)
and the tiny preset (21 switches, 42 nodes)."""

import pytest

from repro.engine.config import StashParams
from repro.network import Network
from tests.conftest import completed_messages, drain_and_check, micro_config


class TestMicroDragonfly:
    def test_all_pairs_delivery(self):
        net = Network(micro_config())
        for src in range(6):
            for dst in range(6):
                if src != dst:
                    net.endpoints[src].post_message(dst, 8, 0)
        drain_and_check(net)

    def test_global_hop_latency_visible(self):
        """Inter-group packets must pay the global channel latency."""
        cfg = micro_config()
        net = Network(cfg)
        net.open_measurement()
        # node 0 (group 0) -> node 5 (group 2): crosses a global link
        net.endpoints[0].post_message(5, 4, 0)
        drain_and_check(net)
        assert net.latency.mean >= 2 * cfg.dragonfly.latency_global * 0 + \
            cfg.dragonfly.latency_global  # at least one global traversal

    def test_conservation_under_load(self):
        net = Network(micro_config())
        net.add_uniform_traffic(rate=0.4, stop=1500)
        net.sim.run(1500)
        drain_and_check(net)

    def test_determinism_same_seed(self):
        def run():
            net = Network(micro_config())
            done = completed_messages(net)
            net.add_uniform_traffic(rate=0.4, stop=1000)
            net.sim.run(1000)
            net.drain(40000)
            return sorted(m.complete_cycle for m in done)

        assert run() == run()

    def test_different_seeds_differ(self):
        from dataclasses import replace

        def run(seed):
            cfg = micro_config()
            cfg = cfg.with_(sim=replace(cfg.sim, seed=seed))
            net = Network(cfg)
            done = completed_messages(net)
            net.add_uniform_traffic(rate=0.4, stop=1000)
            net.sim.run(1000)
            net.drain(40000)
            return sorted(m.complete_cycle for m in done)

        assert run(1) != run(2)

    def test_stashing_network_conserves(self):
        cfg = micro_config(stash=StashParams(enabled=True, frac_local=0.5))
        net = Network(cfg)
        net.add_uniform_traffic(rate=0.4, stop=1500)
        net.sim.run(1500)
        drain_and_check(net)


class TestMeasurement:
    def test_windows_bound_stats(self):
        net = Network(micro_config())
        net.add_uniform_traffic(rate=0.3)
        net.sim.run(300)
        net.open_measurement()
        net.sim.run(1000)
        net.close_measurement()
        res = net.result()
        assert res.offered_load == pytest.approx(0.3, rel=0.35)
        assert res.accepted_load == pytest.approx(0.3, rel=0.35)
        assert res.packets_measured > 0
        assert res.avg_latency > 0

    def test_run_standard_end_to_end(self):
        net = Network(micro_config())
        net.add_uniform_traffic(rate=0.25)
        res = net.run_standard()
        assert res.accepted_load == pytest.approx(res.offered_load, rel=0.2)

    def test_group_tracking(self):
        net = Network(micro_config())
        net.track_group("left", {0, 1, 2})
        net.add_uniform_traffic(rate=0.3)
        net.sim.run(200)
        net.open_measurement()
        net.sim.run(1200)
        net.close_measurement()
        left = net.group_latency["left"]
        assert 0 < left.count <= net.latency.count


class TestWiringInvariants:
    def test_mirror_capacity_matches_downstream(self):
        net = Network(micro_config(stash=StashParams(enabled=True,
                                                     frac_local=0.5)))
        topo = net.topology
        for s, sw in enumerate(net.switches):
            for spec in topo.switch_ports(s):
                if spec.link_class in ("local", "global"):
                    _, peer, peer_port = spec.peer
                    mirror = sw.out_ports[spec.port].mirror
                    down = net.switches[peer].in_ports[peer_port].damq
                    assert mirror is not None
                    assert mirror.capacity == down.capacity

    def test_endpoint_ports_have_no_mirror(self):
        net = Network(micro_config())
        for s, sw in enumerate(net.switches):
            for spec in net.topology.switch_ports(s):
                if spec.link_class == "endpoint":
                    assert sw.out_ports[spec.port].mirror is None

    def test_retention_scales_with_link_latency(self):
        net = Network(micro_config())
        cfg = micro_config()
        for s, sw in enumerate(net.switches):
            for spec in net.topology.switch_ports(s):
                if spec.link_class == "global":
                    assert sw.out_ports[spec.port].retention == \
                        2 * cfg.dragonfly.latency_global + 4

    def test_router_vc_requirement_enforced(self):
        from repro.engine.config import SwitchParams

        cfg = micro_config(
            switch=SwitchParams(
                num_ports=4, rows=2, cols=2, num_vcs=2,
                input_buffer_flits=96, output_buffer_flits=96,
                max_packet_flits=4,
            )
        )
        with pytest.raises(ValueError, match="VCs"):
            Network(cfg)

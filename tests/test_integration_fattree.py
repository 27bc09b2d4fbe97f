"""Stashing on the fat-tree substrate (the paper's 'similar analyses'
topology)."""

from repro.engine.config import ReliabilityParams, StashParams
from repro.engine.rng import DeterministicRng
from repro.network import Network
from repro.routing.fattree_routing import FatTreeRouter
from repro.topology.fattree import FatTreeTopology
from tests.conftest import drain_and_check, micro_config


def fattree_net(stash=False, reliability=False, error_rate=0.0):
    cfg = micro_config()
    if stash:
        cfg = cfg.with_(
            stash=StashParams(enabled=True, frac_local=0.5),
            reliability=ReliabilityParams(enabled=reliability,
                                          error_rate=error_rate),
        )
    topo = FatTreeTopology(
        num_leaves=3,
        num_spines=1,
        p=2,
        num_ports=cfg.switch.num_ports,
        latency_endpoint=1,
        latency_up=6,
    )
    router = FatTreeRouter(topo, DeterministicRng(cfg.sim.seed).stream("ft"))
    return Network(cfg, topology=topo, router=router)


class TestFatTreeTraffic:
    def test_all_pairs(self):
        net = fattree_net()
        for src in range(6):
            for dst in range(6):
                if src != dst:
                    net.endpoints[src].post_message(dst, 8, 0)
        drain_and_check(net)

    def test_cross_leaf_traverses_spine(self):
        net = fattree_net()
        net.open_measurement()
        net.endpoints[0].post_message(5, 4, 0)  # leaf 0 -> leaf 2
        drain_and_check(net)
        # two uplink traversals at latency 6 each, plus pipelines
        assert net.latency.mean >= 12

    def test_uniform_load_conserves(self):
        net = fattree_net()
        net.add_uniform_traffic(rate=0.3, stop=1200)
        net.sim.run(1200)
        drain_and_check(net)


class TestFatTreeStashing:
    def test_leaf_switches_get_stash_uplinks_none(self):
        net = fattree_net(stash=True)
        leaf = net.switches[0]
        topo = net.topology
        for spec in topo.switch_ports(0):
            part = leaf.stash_dir.partitions[spec.port]
            if spec.link_class == "endpoint":
                assert part.enabled
            elif spec.link_class == "global":
                assert not part.enabled  # uplinks keep all their buffering

    def test_reliability_on_fattree(self):
        net = fattree_net(stash=True, reliability=True)
        net.add_uniform_traffic(rate=0.25, stop=1000)
        net.sim.run(1000)
        drain_and_check(net, max_cycles=100_000)

    def test_fault_recovery_on_fattree(self):
        net = fattree_net(stash=True, reliability=True, error_rate=0.1)
        net.add_uniform_traffic(rate=0.2, stop=800)
        net.sim.run(800)
        drain_and_check(net, max_cycles=150_000)
        assert sum(sw.retransmits_issued for sw in net.switches
                   if hasattr(sw, "retransmits_issued")) >= 0

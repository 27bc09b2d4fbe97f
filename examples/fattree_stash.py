#!/usr/bin/env python3
"""Stashing on a fat-tree (paper Section I: "similar analyses can be
conducted for ... the leaf switches in a multi-level fat-tree").

Builds a two-level leaf/spine fat-tree whose leaf switches carry short
endpoint links (big stash partitions) and long uplinks (none), then runs
end-to-end reliability stashing over it — demonstrating that the
architecture is topology-agnostic.

Run:  python examples/fattree_stash.py
"""

from repro import (
    FatTreeTopology,
    Network,
    ReliabilityParams,
    StashParams,
    tiny_preset,
)
from repro.obs import harvest
from repro.routing import FatTreeRouter


def main() -> None:
    base = tiny_preset()
    # 4 leaves x 3 endpoints + 2 spines; leaf radix 6 fits the tiny switch
    topo = FatTreeTopology(
        num_leaves=4,
        num_spines=2,
        p=3,
        num_ports=base.switch.num_ports,
        latency_endpoint=2,
        latency_up=30,
    )
    cfg = base.with_(
        stash=StashParams(enabled=True),
        reliability=ReliabilityParams(enabled=True, error_rate=0.01),
    )
    net = Network(
        cfg,
        topology=topo,
        router=FatTreeRouter(topo, cfg_rng(cfg)),
    )
    net.add_uniform_traffic(rate=0.3, stop=6000)
    net.sim.run(6000)
    drained = net.drain(120_000)

    posted = sum(ep.messages_posted for ep in net.endpoints)
    delivered = harvest(net)["network.messages.delivered"]
    retrans = sum(getattr(sw, "retransmits_issued", 0) for sw in net.switches)
    print(f"fat-tree: {topo.num_nodes} nodes, {topo.num_leaves} leaves, "
          f"{topo.num_spines} spines")
    print(f"messages delivered : {delivered}/{posted} (drained={drained})")
    print(f"retransmissions    : {retrans}")
    assert delivered == posted


def cfg_rng(cfg):
    from repro.engine.rng import DeterministicRng

    return DeterministicRng(cfg.sim.seed).stream("fattree-routing")


if __name__ == "__main__":
    main()

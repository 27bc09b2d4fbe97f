#!/usr/bin/env python3
"""Use case 1 (paper Section IV-A): end-to-end reliability from stashing.

Builds two networks — the baseline and a stashing network whose first-hop
switches keep a copy of every injected packet in pooled idle buffers —
and runs them side by side under the same traffic, with fault injection
on the stashing network to demonstrate recovery.

Shows:
* stashing does not degrade error-free throughput (Fig. 5's claim);
* with a 2 % corruption rate, every corrupted packet is retransmitted
  from its stash copy and all messages still complete;
* the stash bookkeeping: copies stored, locations reported, deletes on
  positive ACKs, retransmissions on negative ACKs.

Run:  python examples/reliability_dragonfly.py
"""

from repro import Network, ReliabilityParams, StashParams, tiny_preset
from repro.obs import harvest


def run(label: str, error_rate: float, stashing: bool) -> None:
    cfg = tiny_preset()
    if stashing:
        cfg = cfg.with_(
            stash=StashParams(enabled=True),
            reliability=ReliabilityParams(enabled=True, error_rate=error_rate),
        )
    net = Network(cfg)
    net.add_uniform_traffic(rate=0.35, stop=6000)
    net.sim.run(6000)
    drained = net.drain(120_000)

    posted = sum(ep.messages_posted for ep in net.endpoints)
    delivered = harvest(net)["network.messages.delivered"]
    corrupted = sum(ep.packets_corrupted for ep in net.endpoints)
    retrans = sum(getattr(sw, "retransmits_issued", 0) for sw in net.switches)
    copies = sum(
        ip.copies_dispatched for sw in net.switches for ip in sw.in_ports
    )
    print(f"--- {label} ---")
    print(f"messages delivered : {delivered}/{posted} (drained={drained})")
    print(f"stash copies made  : {copies}")
    print(f"corrupted packets  : {corrupted}")
    print(f"retransmissions    : {retrans}")
    if stashing:
        assert delivered == posted, "retransmission failed to recover"
    print()


def main() -> None:
    run("baseline (error-free)", error_rate=0.0, stashing=False)
    run("stashing (error-free)", error_rate=0.0, stashing=True)
    run("stashing + 2% corruption", error_rate=0.02, stashing=True)
    print("All messages recovered through first-hop retransmission.")


if __name__ == "__main__":
    main()

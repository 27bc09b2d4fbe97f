#!/usr/bin/env python3
"""Use case 2 (paper Section IV-B): stashing absorbs congestion
transients while ECN converges.

A uniform-random victim shares the dragonfly with hotspot aggressors
that switch on mid-run.  The example compares the ECN baseline with the
stashing network and prints the victim's latency distribution plus the
stash-buffer timeline at the hotspot switch (the paper's Fig. 7/8).

Run:  python examples/congestion_ecn.py
"""

from repro.engine.stats import TimeSeries
from repro.experiments.common import preset_by_name
from repro.scenario import build_network, congestion_scenario
from repro.traffic.aggressor import hotspot_scenario


def run(variant: str) -> None:
    base = preset_by_name("tiny")
    net = build_network(congestion_scenario(base, variant))
    onset = 3000
    scenario = hotspot_scenario(net, victim_rate=0.4, aggressor_start=onset)
    victims = frozenset(scenario.victim_nodes)

    series = TimeSeries(period=250)
    net.on_packet_delivered_hooks.append(
        lambda pkt, cycle: series.record(cycle, cycle - pkt.birth_cycle)
        if pkt.src in victims
        else None
    )
    net.sim.run(2000)
    net.open_measurement()
    net.sim.run(8000)
    net.close_measurement()

    stats = net.group_latency["victim"]
    diverted = sum(
        ip.packets_diverted for sw in net.switches for ip in sw.in_ports
    )
    print(f"--- {variant} ---")
    print(
        f"victim latency: mean={stats.mean:.0f}  p99={stats.percentile(99):.0f}"
        f"  max={stats.max:.0f} cycles"
    )
    print(f"packets stashed away during congestion: {diverted}")
    times, lats = series.series()
    timeline = "  ".join(
        f"t={int(t)}:{v:.0f}" for t, v in zip(times[::4], lats[::4])
    )
    print(f"victim avg latency over time: {timeline}")
    print()


def main() -> None:
    print("aggressors activate at cycle 3000; ECN throttles them;")
    print("stashing shields the victim while ECN converges\n")
    for variant in ("baseline", "stash100"):
        run(variant)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Quickstart: build a dragonfly, offer uniform-random traffic, measure.

This is the 60-second tour of the public API:

1. pick a preset configuration (the `tiny` 42-node dragonfly);
2. build a `Network` (baseline tiled switches, PAR routing, ACKs on);
3. attach a traffic source;
4. run the standard warmup / measure / drain phases;
5. read latency and throughput off the `EngineResult` (the stats
   schema both engines share), and any counter off `harvest(net)`.

Run:  python examples/quickstart.py
"""

from repro import Network, tiny_preset
from repro.obs import harvest


def main() -> None:
    config = tiny_preset()
    net = Network(config)
    print(
        f"built a {net.topology.num_nodes}-node dragonfly "
        f"({net.topology.num_switches} switches of radix "
        f"{config.dragonfly.switch_radix}, tiled "
        f"{config.switch.rows}x{config.switch.cols})"
    )

    net.add_uniform_traffic(rate=0.3)  # flits/cycle/node
    result = net.run_standard()

    print(f"offered load   : {result.offered_load:.3f} flits/cycle/node")
    print(f"accepted load  : {result.accepted_load:.3f} flits/cycle/node")
    print(f"avg latency    : {result.avg_latency:.1f} cycles")
    print(f"p99 latency    : {result.p99_latency:.1f} cycles")
    print(f"packets sampled: {result.packets_measured}")
    counters = harvest(net)
    print(f"flit hops      : {counters['switch.input.flits_received']}")
    print(f"credit stalls  : {counters['switch.output.credit_stalls']}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Replay synthetic DesignForward-style MPI traces (paper Fig. 6).

Builds each of the six application traces of Table II at the network's
rank count, replays them through the cycle-level dragonfly with one rank
per endpoint and no computation time, and reports execution times on the
baseline vs the full-capacity reliability-stashing network.

Run:  python examples/trace_replay.py
"""

from repro.experiments.common import preset_by_name
from repro.scenario import build_network, reliability_scenario
from repro.trace import APP_REGISTRY, build_app, run_trace


def main() -> None:
    base = preset_by_name("tiny")
    apps = list(APP_REGISTRY)
    print(f"{'app':<13}{'baseline':>10}{'stash100':>10}{'normalized':>11}")
    for app in apps:
        times = {}
        for variant in ("baseline", "stash100"):
            net = build_network(reliability_scenario(base, variant))
            prog = build_app(
                app, net.topology.num_nodes, size_scale=4, iterations=1
            )
            times[variant] = run_trace(net, prog)
        norm = times["stash100"] / times["baseline"]
        print(
            f"{app:<13}{times['baseline']:>10}{times['stash100']:>10}"
            f"{norm:>11.3f}"
        )
    print("\n(normalized ~1.0 everywhere: stashing costs nothing, Fig. 6)")


if __name__ == "__main__":
    main()

"""Cross-kernel byte-identity: polling vs event cycle loops.

The event kernel's one proof obligation (docs/PERFORMANCE.md) is that a
skipped component step would have been a provable no-op — no state
change, no RNG draw, no counter increment.  These tests enforce the
consequence end to end: identical experiment output, down to every
individual latency sample, under both kernels.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stdout
from dataclasses import replace

import pytest

import repro.scenario.probes as probes
from repro.engine.config import LinkParams, SimParams, tiny_preset
from repro.experiments.fig5 import format_fig5
from repro.network import Network
from repro.obs.timeline import Timeline
from repro.scenario import build_network, congestion_scenario, reliability_scenario
from repro.traffic.generators import BernoulliSource
from repro.traffic.patterns import hotspot
from tests.conftest import micro_config, model_counters, sweep_rows


def _base(kernel: str, seed: int = 3):
    return micro_config(
        sim=SimParams(seed=seed, warmup_cycles=200, measure_cycles=600,
                      drain_cycles=8000, sample_period=25, kernel=kernel)
    )


def _render_fig5(kernel: str) -> str:
    """One quick fig5 sweep, captured exactly as the runner prints it."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        rows = sweep_rows(
            "fig5",
            _base(kernel),
            {"loads": (0.2, 0.8),
             "variants": ("baseline", "stash100", "stash25")},
            seed=3,
        )
        print(format_fig5(rows))
    return buffer.getvalue()


def test_fig5_quick_output_identical_across_kernels():
    polling = _render_fig5("polling")
    event = _render_fig5("event")
    assert polling, "fig5 rendered no output"
    assert polling == event


def test_fig7_results_identical_across_kernels():
    by_kernel = {
        kernel: sweep_rows(
            "fig7", _base(kernel), {"victim_rate": 0.3}, seed=3
        )
        for kernel in ("polling", "event")
    }
    polling, event = by_kernel["polling"], by_kernel["event"]
    assert [p.key for p, _ in polling] == [p.key for p, _ in event]
    for (point, p), (_, e) in zip(polling, event):
        # exact equality on purpose: the kernels must not diverge by
        # even one sample of the time series, the ICDF or the victim
        # group's summary
        assert p.series("victim_time"), point.key
        assert p == e, point.key


def _latency_samples(kernel: str, variant: str, rate: float, seed: int):
    net = build_network(
        reliability_scenario(_base(kernel, seed=seed), variant).with_seed(seed)
    )
    net.add_uniform_traffic(rate=rate)
    net.run_standard()
    return model_counters(net), list(net.latency._samples)


@pytest.mark.parametrize("trial", range(4))
def test_fuzz_randomized_traffic_samples_identical(trial):
    """Fuzz flavour: randomized (variant, load, seed) points must yield
    the exact same per-packet latency sample sequence under both
    kernels, not just matching aggregates — and the same value of every
    harvested counter but the kernel's own telemetry (cycle count
    included): a skipped step increments nothing."""
    rng = random.Random(0xC0FFEE + trial)
    variant = rng.choice(["baseline", "stash100", "stash50", "stash25"])
    rate = rng.choice([0.15, 0.35, 0.55, 0.75])
    seed = rng.randrange(1, 10_000)
    p_counters, p_samples = _latency_samples("polling", variant, rate, seed)
    e_counters, e_samples = _latency_samples("event", variant, rate, seed)
    assert p_counters == e_counters
    assert p_samples, f"no traffic delivered for {variant}@{rate} seed={seed}"
    assert p_samples == e_samples


@pytest.mark.parametrize("variant", ["baseline", "stash100"])
def test_congestion_counters_identical_across_kernels(variant):
    """The same obligation on the ECN path: a hot spot's marks, window
    cuts and congestion stashing count identically under both kernels."""
    by_kernel = {}
    for kernel in ("polling", "event"):
        net = build_network(
            congestion_scenario(_base(kernel, seed=11), variant).with_seed(11)
        )
        net.add_source(
            BernoulliSource(rate=1.0, msg_flits=4, pattern=hotspot([0])),
            range(1, net.topology.num_nodes),
        )
        net.run_standard()
        by_kernel[kernel] = model_counters(net)
    assert by_kernel["polling"]["switch.input.packets_marked"] > 0
    assert by_kernel["polling"]["endpoint.ecn.window_cuts"] > 0
    assert by_kernel["polling"] == by_kernel["event"]


# -- readers of the state an idle switch defers -----------------------------
#
# An idle switch applies its credit returns and retention releases at its
# last such deadline, not one by one (docs/PERFORMANCE.md).  The tests
# below pin every reader of that state to the polling reference.


def _occupancy_timeline(kernel: str, load: float, monkeypatch):
    """Every per-sample value the ``port_occupancy`` probe reads."""
    made: list[Timeline] = []

    class Recorded(Timeline):
        def __init__(self, period: int) -> None:
            super().__init__(period)
            made.append(self)

    monkeypatch.setattr(probes, "Timeline", Recorded)
    cfg = tiny_preset().with_(sim=SimParams(
        seed=3, warmup_cycles=300, measure_cycles=3000, sample_period=25,
        kernel=kernel,
    ))
    net = build_network(reliability_scenario(cfg, "stash100").with_seed(3))
    probes.PROBES["port_occupancy"](net)
    net.add_uniform_traffic(rate=load)
    net.run_standard(drain=False)
    [timeline] = made
    return timeline.cycles, [timeline.series(n) for n in timeline.names]


@pytest.mark.parametrize("load", [0.02, 0.1])
def test_port_occupancy_series_identical_across_kernels(load, monkeypatch):
    """The census reads output-buffer space of sleeping switches: each
    sample must equal the polling kernel's, not just each peak."""
    polling = _occupancy_timeline("polling", load, monkeypatch)
    assert any(max(series) for series in polling[1])
    assert _occupancy_timeline("event", load, monkeypatch) == polling


def test_drain_to_quiescence_stops_on_the_same_cycle():
    """``Network.drain`` stops at the first quiescent cycle; deferring
    an idle switch's bookkeeping must not move that cycle."""
    def run(kernel):
        net = Network(micro_config(sim=SimParams(seed=13, kernel=kernel)))
        net.add_source(
            BernoulliSource(1.0, 4, hotspot([0]), stop=200),
            range(1, net.topology.num_nodes),
        )
        net.sim.run(200)
        assert net.drain(30000)
        return net.sim.cycle, net.result(), model_counters(net)

    assert run("polling") == run("event")


def test_lossy_links_identical_across_kernels():
    """Go-back-N ports keep waking at their earliest credit-wire entry
    (ACK/NACKs drive replay) while the rest defer theirs."""
    def run(kernel):
        net = Network(micro_config(
            link=LinkParams(enabled=True, error_rate=0.05),
            sim=SimParams(seed=17, warmup_cycles=200, measure_cycles=800,
                          drain_cycles=20000, kernel=kernel),
        ))
        net.add_uniform_traffic(rate=0.3)
        result = net.run_standard()
        return result, model_counters(net), list(net.latency._samples)

    polling = run("polling")
    assert polling[1]["switch.link.flits_replayed"] > 0
    assert run("event") == polling

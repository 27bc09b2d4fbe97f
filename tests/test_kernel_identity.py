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

from repro.engine.config import SimParams
from repro.experiments.fig5 import format_fig5
from repro.experiments.common import congestion_network, reliability_network
from repro.obs import harvest
from repro.traffic.generators import BernoulliSource
from repro.traffic.patterns import hotspot
from tests.conftest import micro_config, sweep_rows


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
    net = reliability_network(_base(kernel, seed=seed), variant, seed=seed)
    net.add_uniform_traffic(rate=rate)
    net.run_standard()
    return harvest(net), list(net.latency._samples)


@pytest.mark.parametrize("trial", range(4))
def test_fuzz_randomized_traffic_samples_identical(trial):
    """Fuzz flavour: randomized (variant, load, seed) points must yield
    the exact same per-packet latency sample sequence under both
    kernels, not just matching aggregates — and the same value of every
    harvested counter (cycle count included): a skipped step increments
    nothing."""
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
        net = congestion_network(_base(kernel, seed=11), variant, seed=11)
        net.add_source(
            BernoulliSource(rate=1.0, msg_flits=4, pattern=hotspot([0])),
            range(1, net.topology.num_nodes),
        )
        net.run_standard()
        by_kernel[kernel] = harvest(net)
    assert by_kernel["polling"]["switch.input.packets_marked"] > 0
    assert by_kernel["polling"]["endpoint.ecn.window_cuts"] > 0
    assert by_kernel["polling"] == by_kernel["event"]

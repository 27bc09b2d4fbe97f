"""Runtime wake-contract enforcement: ``Simulator(verify_wake=True)``
shadow mode and the stale-wake guard in ``Simulator.wake``.

The fuzz tests reuse the seed derivation of
``tests/test_kernel_identity.py`` (``0xC0FFEE + trial``): the same
randomized (variant, load, seed) points that prove byte-identity must
also pass the shadow check clean — and the shadow check itself must not
perturb results.  The mutation test drops one component's wakes on
purpose and asserts the shadow mode names the sleeping component;
``tests/test_wake_mutants.py`` does the same for every wake call site
in ``src/repro``, one at a time.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.engine.config import SimParams, tiny_preset
from repro.engine.simulator import Simulator, WakeContractError
from repro.network import Network
from repro.scenario import build_network, reliability_scenario
from tests.conftest import micro_config


class _Idler:
    """Sleeps forever; work arrives only via an external wake."""

    def __init__(self) -> None:
        self.steps = 0

    def step(self, cycle: int) -> None:
        self.steps += 1

    def next_active_cycle(self, cycle: int) -> int | None:
        return None


class TestStaleWakeRaises:
    def test_wake_behind_current_cycle_raises(self):
        sim = Simulator()
        sim.add(_Idler())
        sim.run(10)
        with pytest.raises(ValueError, match="stale wake"):
            sim.wake(0, sim.cycle - 1)

    def test_wake_at_current_cycle_is_allowed(self):
        sim = Simulator()
        idler = _Idler()
        sim.add(idler)
        sim.run(10)
        sim.wake(0, sim.cycle)  # due immediately: legal, not stale
        sim.run(5)
        # stepped once at cycle 0, slept through the rest, then once
        # more at the woken cycle
        assert idler.steps == 2

    def test_wake_component_respects_the_guard(self):
        sim = Simulator()
        idler = _Idler()
        sim.add(idler)
        sim.run(10)
        with pytest.raises(ValueError, match="stale wake"):
            sim.wake_component(idler, 3)


def _fuzz_point(trial: int):
    rng = random.Random(0xC0FFEE + trial)
    variant = rng.choice(["baseline", "stash100", "stash50", "stash25"])
    rate = rng.choice([0.15, 0.35, 0.55, 0.75])
    seed = rng.randrange(1, 10_000)
    return variant, rate, seed


def _samples(variant: str, rate: float, seed: int, verify: bool):
    cfg = micro_config(
        sim=SimParams(seed=seed, warmup_cycles=200, measure_cycles=600,
                      drain_cycles=8000, sample_period=25,
                      verify_wake=verify)
    )
    net = build_network(reliability_scenario(cfg, variant).with_seed(seed))
    net.add_uniform_traffic(rate=rate)
    net.run_standard()
    return net.sim.cycle, list(net.latency._samples)


def test_tier1_simulators_run_under_the_oracle(micro_net):
    """tests/conftest.py turns the shadow check on for every Simulator
    a tier-1 test builds, whatever the caller or the config asked for."""
    assert Simulator().verify_wake is True
    assert Simulator(verify_wake=False).verify_wake is True
    assert micro_net.config.sim.verify_wake is False
    assert micro_net.sim.verify_wake is True


def test_add_source_wakes_a_sleeping_endpoint(micro_net):
    """With no source attached every endpoint sleeps forever; traffic
    added mid-run must wake them, or nothing is ever generated."""
    micro_net.sim.run(500)
    micro_net.add_uniform_traffic(0.1)
    micro_net.sim.run(2000)
    assert sum(ep.flits_generated for ep in micro_net.endpoints) > 0


def test_source_without_a_schedule_is_polled_every_cycle(micro_net):
    """A source object with no ``next_active_cycle`` keeps its endpoint
    stepping every cycle, from the cycle it was attached."""
    polled: list[int] = []

    class Bare:
        def generate(self, endpoint, cycle):
            polled.append(cycle)

    micro_net.sim.run(500)  # the endpoint is asleep by now
    micro_net.add_source(Bare(), [0])
    micro_net.sim.run(50)
    assert polled == list(range(500, 550))


@pytest.mark.oracle_off
@pytest.mark.parametrize("trial", range(4))
def test_fuzz_verify_wake_clean_and_invisible(trial):
    """Shadow mode neither raises nor changes a single sample on the
    kernel-identity fuzz points."""
    variant, rate, seed = _fuzz_point(trial)
    cycle, samples = _samples(variant, rate, seed, verify=False)
    v_cycle, v_samples = _samples(variant, rate, seed, verify=True)
    assert samples, f"no traffic delivered for {variant}@{rate} seed={seed}"
    assert (cycle, samples) == (v_cycle, v_samples)


@pytest.mark.nightly
@pytest.mark.parametrize("trial", range(4, 16))
def test_fuzz_verify_wake_nightly(trial):
    """Heavier nightly sweep over fresh fuzz points, shadow mode on."""
    variant, rate, seed = _fuzz_point(trial)
    _, samples = _samples(variant, rate, seed, verify=True)
    assert samples


class TestMutationRuntime:
    def test_dropped_wake_is_detected_and_attributed(self):
        """Monkeypatch the simulator to drop every wake aimed at one
        switch: the shadow check must raise and name that component."""
        cfg = tiny_preset()
        cfg = replace(cfg, sim=replace(cfg.sim, verify_wake=True))
        net = Network(cfg)
        net.add_uniform_traffic(0.05)

        victim = net.sim.index_of(net.switches[0])
        original_wake = net.sim.wake

        def dropping(idx: int, cycle: int) -> None:
            if idx != victim:
                original_wake(idx, cycle)

        net.sim.wake = dropping
        with pytest.raises(WakeContractError, match="missed wake") as exc:
            net.run_standard()
        message = str(exc.value)
        assert type(net.switches[0]).__name__ in message
        assert f"component #{victim}" in message
        assert "pending state" in message

    def test_same_run_is_clean_without_the_mutation(self):
        cfg = tiny_preset()
        cfg = replace(cfg, sim=replace(cfg.sim, verify_wake=True))
        net = Network(cfg)
        net.add_uniform_traffic(0.05)
        net.run_standard()
        assert net.latency.count > 0

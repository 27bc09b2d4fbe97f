"""Cycle-loop kernel."""

import pytest

from repro.engine.simulator import Simulator


class Recorder:
    def __init__(self):
        self.cycles = []

    def step(self, cycle):
        self.cycles.append(cycle)


def test_run_advances_each_component_every_cycle():
    sim = Simulator()
    a, b = Recorder(), Recorder()
    sim.add(a)
    sim.add(b)
    sim.run(5)
    assert a.cycles == b.cycles == [0, 1, 2, 3, 4]
    assert sim.cycle == 5


def test_run_is_resumable():
    sim = Simulator()
    r = Recorder()
    sim.add(r)
    sim.run(3)
    sim.run(2)
    assert r.cycles == [0, 1, 2, 3, 4]


def test_sampler_period():
    sim = Simulator()
    hits = []
    sim.add_sampler(10, hits.append)
    sim.run(35)
    assert hits == [0, 10, 20, 30]


def test_sampler_rejects_bad_period():
    with pytest.raises(ValueError):
        Simulator().add_sampler(0, lambda c: None)


def test_sampler_phase_anchored_to_registration_cycle():
    # regression: a sampler added mid-run used to fire on multiples of
    # the global cycle count instead of its own registration cycle
    sim = Simulator()
    sim.run(3)
    hits = []
    sim.add_sampler(10, hits.append)
    sim.run(25)  # cycles 3..27
    assert hits == [3, 13, 23]


def test_samplers_with_different_anchors_coexist():
    sim = Simulator()
    early, late = [], []
    sim.add_sampler(10, early.append)
    sim.run(5)
    sim.add_sampler(10, late.append)
    sim.run(30)  # to cycle 35
    assert early == [0, 10, 20, 30]
    assert late == [5, 15, 25]


def test_run_until_true_immediately():
    sim = Simulator()
    assert sim.run_until(lambda: True, max_cycles=100)
    assert sim.cycle == 0


def test_run_until_deadline():
    sim = Simulator()
    assert not sim.run_until(lambda: False, max_cycles=100)
    assert sim.cycle == 100


def test_run_until_condition_met_midway():
    sim = Simulator()
    r = Recorder()
    sim.add(r)
    ok = sim.run_until(lambda: len(r.cycles) >= 10, max_cycles=1000)
    assert ok
    assert sim.cycle == 10


@pytest.mark.parametrize("kernel", ["polling", "event"])
def test_run_until_stops_exactly_at_first_true_cycle(kernel):
    # regression: the predicate used to be checked only every 64
    # cycles, overshooting the stop point by up to a full period
    # (wasted cycles and late phase transitions)
    sim = Simulator(kernel=kernel)
    r = Recorder()
    sim.add(r)
    ok = sim.run_until(lambda: len(r.cycles) >= 10, max_cycles=1000)
    assert ok
    assert sim.cycle == 10
    assert r.cycles == list(range(10))


@pytest.mark.parametrize("kernel", ["polling", "event"])
def test_run_until_overshoot_pinned_for_odd_stop_cycles(kernel):
    # stop cycles that are not multiples of the legacy check period
    for stop in (1, 7, 63, 65, 129):
        sim = Simulator(kernel=kernel)
        r = Recorder()
        sim.add(r)
        assert sim.run_until(lambda: len(r.cycles) >= stop, max_cycles=1000)
        assert sim.cycle == stop



class Sleeper(Recorder):
    """Active on every ``period``-th cycle, asleep in between."""

    def __init__(self, period):
        super().__init__()
        self.period = period

    def next_active_cycle(self, cycle):
        return (cycle // self.period + 1) * self.period


@pytest.mark.parametrize("kernel", ["polling", "event"])
def test_self_telemetry_counts_what_the_kernel_did(kernel):
    sim = Simulator(kernel=kernel)
    sleeper = Sleeper(10)
    sim.add(sleeper)
    sim.run(15)
    sim.wake(0, 17)  # ahead of its own deadline, 20
    sim.run(10)
    counts = (sim.steps, sim.wakes, sim.stale_pops, sim.skips)
    if kernel == "polling":
        assert counts == (25, 0, 0, 0)
        return
    assert sleeper.cycles == [0, 10, 17, 20]
    # four steps; deadlines 10, 20, 20 again and 30 pushed by re-arms
    # plus the external wake for 17; of the two entries for 20, one is
    # popped stale; the clock jumped 0 -> 10 -> 15 (end of the first run),
    # then 16 -> 17 -> 20 -> 25
    assert counts == (4, 5, 1, 5)

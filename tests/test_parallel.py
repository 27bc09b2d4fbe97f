"""Parallel sweep executor: determinism, retry, and accounting fuzz.

The point functions live at module level so the process pool can pickle
them by reference.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.config import SimParams
from repro.engine.parallel import (
    RunOutcome,
    RunSpec,
    SweepError,
    Timed,
    derive_run_seed,
    run_specs,
)
from repro.engine.rng import DeterministicRng
from repro.campaign.spec import expand_sweep
from repro.experiments.fig5 import format_fig5
from repro.switch.damq import VcSpaceAccounting
from tests.conftest import micro_config, sweep_rows


# -- module-level point functions (picklable by the pool) ----------------

def _draws(n: int, seed: int) -> tuple[float, ...]:
    rng = DeterministicRng(seed).stream("draws")
    return tuple(rng.random() for _ in range(n))


def _timed_square(x: int, seed: int) -> Timed:
    return Timed(x * x, cycles=1000)


def _fail_until_marker(marker: str, seed: int = 0) -> str:
    """Raise on the first call, succeed once ``marker`` exists."""
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise ValueError("transient failure")
    return "ok"


def _die_until_marker(marker: str, seed: int = 0) -> str:
    """Kill the worker outright on the first call (simulates a crash)."""
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(1)
    return "ok"


def _always_fails(seed: int = 0) -> None:
    raise RuntimeError("permanent failure")


def _no_seed_point(x: int) -> int:
    return x + 1


def _draw_specs(seed: int) -> list[RunSpec]:
    return [
        RunSpec(
            key=n,
            fn=_draws,
            args=(n,),
            seed=derive_run_seed(seed, f"draws:{n}"),
        )
        for n in range(1, 7)
    ]


# -- seed derivation ------------------------------------------------------

class TestDeriveRunSeed:
    def test_stable(self):
        assert derive_run_seed(7, "fig5:baseline:0.5") == \
            derive_run_seed(7, "fig5:baseline:0.5")

    def test_distinct_labels(self):
        labels = [f"fig5:baseline:{x!r}" for x in (0.1, 0.3, 0.5, 0.7)]
        seeds = {derive_run_seed(7, lab) for lab in labels}
        assert len(seeds) == len(labels)

    def test_distinct_base_seeds(self):
        assert derive_run_seed(1, "x") != derive_run_seed(2, "x")


# -- executor basics ------------------------------------------------------

class TestRunSpecs:
    def test_serial_order_and_values(self):
        outcomes = run_specs(_draw_specs(3), jobs=1)
        assert [o.key for o in outcomes] == [1, 2, 3, 4, 5, 6]
        for o in outcomes:
            assert o.value == _draws(o.key, o.seed)
            assert o.attempts == 1
            assert o.wall_seconds >= 0.0

    def test_pool_matches_serial(self):
        serial = run_specs(_draw_specs(3), jobs=1)
        pooled = run_specs(_draw_specs(3), jobs=4)
        assert [o.key for o in pooled] == [o.key for o in serial]
        assert [o.value for o in pooled] == [o.value for o in serial]
        assert [o.seed for o in pooled] == [o.seed for o in serial]

    def test_timed_unwrapped_and_cycles_reported(self):
        [o] = run_specs([RunSpec(key="sq", fn=_timed_square, args=(3,),
                                 seed=1)])
        assert o.value == 9
        assert o.cycles == 1000
        assert o.cycles_per_second > 0.0

    def test_cycles_per_second_unknown_is_zero(self):
        o = RunOutcome(key=0, value=None, seed=None, wall_seconds=1.0,
                       cycles=None, attempts=1)
        assert o.cycles_per_second == 0.0

    def test_seed_kwarg_omitted_when_spec_has_none(self):
        [o] = run_specs([RunSpec(key=0, fn=_no_seed_point, args=(4,))])
        assert o.value == 5
        assert o.seed is None

    def test_progress_callback_counts(self):
        calls: list[tuple[int, int]] = []
        run_specs(
            _draw_specs(3),
            jobs=1,
            progress=lambda done, total, outcome: calls.append((done, total)),
        )
        assert calls == [(d, 6) for d in range(1, 7)]

    def test_pool_progress_reaches_total(self):
        calls: list[int] = []
        run_specs(
            _draw_specs(3),
            jobs=2,
            progress=lambda done, total, outcome: calls.append(done),
        )
        assert sorted(calls) == list(range(1, 7))


# -- retry behavior -------------------------------------------------------

class TestRetry:
    def test_transient_exception_retried(self, tmp_path):
        marker = str(tmp_path / "transient")
        spec = RunSpec(key=0, fn=_fail_until_marker, args=(marker,), seed=1)
        [o] = run_specs([spec, _draw_specs(1)[0]], jobs=2)[:1]
        assert o.value == "ok"
        assert o.attempts == 2

    def test_worker_crash_retried(self, tmp_path):
        marker = str(tmp_path / "crash")
        spec = RunSpec(key=0, fn=_die_until_marker, args=(marker,), seed=1)
        [o] = run_specs([spec, _draw_specs(1)[0]], jobs=2)[:1]
        assert o.value == "ok"
        assert o.attempts == 2

    def test_permanent_failure_raises_sweep_error(self):
        spec = RunSpec(key="bad", fn=_always_fails, seed=1)
        with pytest.raises(SweepError, match="'bad'"):
            run_specs([spec, _draw_specs(1)[0]], jobs=2, max_retries=1)


# -- end-to-end determinism (ISSUE: jobs=1 vs jobs=4 identical) -----------

def _tiny_base():
    return micro_config(
        sim=SimParams(
            seed=3,
            warmup_cycles=100,
            measure_cycles=400,
            drain_cycles=5000,
            sample_period=25,
        )
    )


def test_fig5_jobs_invariant():
    """A scaled-down fig5 sweep is byte-identical at jobs=1 and jobs=4."""
    base = _tiny_base()
    axes = {"loads": (0.3,), "variants": ("baseline", "stash100")}
    serial = sweep_rows("fig5", base, axes, seed=9, jobs=1)
    pooled = sweep_rows("fig5", base, axes, seed=9, jobs=4)
    assert serial == pooled
    assert format_fig5(serial) == format_fig5(pooled)


def test_fig5_spec_seeds_ignore_sweep_shape():
    """A point's seed depends on its label, not its position in the sweep."""
    base = _tiny_base()
    wide, narrow = (
        {
            p.key: p.derived_seed
            for p in expand_sweep("fig5", base, {"loads": loads}, (1,), "cycle")
        }
        for loads in ((0.2, 0.5, 0.8), (0.5,))
    )
    assert narrow[(1, "baseline", 0.5)] == wide[(1, "baseline", 0.5)]
    assert narrow[(1, "baseline", 0.5)] == derive_run_seed(
        1, "fig5:baseline:0.5"
    )


# -- VcSpaceAccounting fuzz ----------------------------------------------

@settings(max_examples=200, deadline=None)
@given(
    reserve=st.integers(min_value=0, max_value=4),
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),   # vc
            st.integers(min_value=1, max_value=6),   # flits
            st.booleans(),                           # admit vs release
        ),
        max_size=80,
    ),
)
def test_vc_space_accounting_invariants(reserve, ops):
    """Randomized admit/release never exceeds capacity or goes negative."""
    num_vcs, capacity = 4, 24
    acc = VcSpaceAccounting(num_vcs=num_vcs, capacity=capacity,
                            reserve=reserve)
    for vc, flits, is_admit in ops:
        if is_admit:
            if acc.can_admit(vc, flits):
                acc.admit(vc, flits)
        else:
            take = min(flits, acc.committed[vc])
            if take:
                acc.release(vc, take)
        assert 0 <= acc.total_committed <= capacity
        assert all(c >= 0 for c in acc.committed)
        assert 0 <= acc._shared_used <= acc.shared_capacity
        # shared usage is exactly the overflow past the private reserves
        assert acc._shared_used == sum(
            max(0, c - r) for c, r in zip(acc.committed, acc.reserves)
        )

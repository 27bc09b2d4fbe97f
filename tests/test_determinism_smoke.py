"""Fuzz-style determinism smoke: the dynamic counterpart of simlint.

simlint statically forbids the reproducibility breakers that repeat
faithfully on one host and so pass every test (a fixed ad-hoc seed, an
int-set loop, a wall-clock read that stays off stdout; pricing table in
docs/LINTING.md); this test guards the same contract dynamically by
rendering a tiny fig5 point twice in-process — fresh ``Network`` both
times — and asserting the printed output is byte-identical: state that
leaks from one run into the next (the process-global RNG, say) moves
the second rendering.  A handful of seeds gives the "fuzz" flavour
without meaningful runtime cost.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from dataclasses import replace

import pytest

from repro.engine.config import SimParams
from repro.experiments.fig5 import format_fig5
from tests.conftest import micro_config, sweep_rows


def _tiny_base(seed: int):
    return micro_config(
        sim=SimParams(seed=seed, warmup_cycles=200, measure_cycles=600,
                      drain_cycles=8000, sample_period=25)
    )


def _render_fig5_point(seed: int) -> str:
    """Run one (variant, load) fig5 point and capture exactly what the
    runner would print to stdout."""
    base = _tiny_base(seed)
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        rows = sweep_rows(
            "fig5", base,
            {"loads": (0.3,), "variants": ("baseline", "stash100")},
            seed=seed,
        )
        print(format_fig5(rows))
    return buffer.getvalue()


@pytest.mark.parametrize("seed", [3, 11])
def test_fig5_point_stdout_is_byte_identical(seed):
    first = _render_fig5_point(seed)
    second = _render_fig5_point(seed)
    assert first, "fig5 rendered no output"
    assert first == second


def test_distinct_seeds_exercise_distinct_trajectories():
    """Sanity check that the smoke test has teeth: different seeds must
    not collapse onto the same output (which would mask RNG misuse)."""
    assert _render_fig5_point(3) != _render_fig5_point(4)


def test_fig5_point_insensitive_to_unrelated_global_rng_state():
    """Perturbing the process-global `random` module between runs must
    not change results (nothing in the simulator may draw from it)."""
    import random

    first = _render_fig5_point(5)
    random.seed(999)
    random.random()
    second = _render_fig5_point(5)
    assert first == second


def test_fig5_point_runs_are_timed_independently():
    """Repeat under a different warmup split: different windows must
    change the output, proving the capture is not a cached artifact."""
    base_out = _render_fig5_point(3)
    alt = _tiny_base(3)
    alt = micro_config(sim=replace(alt.sim, measure_cycles=900))
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        print(format_fig5(sweep_rows(
            "fig5", alt, {"loads": (0.3,), "variants": ("baseline",)},
            seed=3,
        )))
    assert buffer.getvalue() != base_out

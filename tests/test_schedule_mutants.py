"""Mutation corpus for the draw-ahead injection schedule.

Run the way ``tests/test_wake_mutants.py`` runs its corpus: a copy of
the package with exactly one line edited must die on the check recorded
beside it, and the unmutated copy must pass them all.  The wake oracle
sees only the mutant that sleeps forever; a source that reports a
consistently wrong cycle, or draws ahead on a shared stream, satisfies
it — the differential against the per-cycle process
(``tests/percycle.py``) is what kills those.  A draw inside a
``next_active_cycle`` satisfies it too: only the event kernel calls the
probe, so polling ≡ event is what kills that one.
"""

from __future__ import annotations

import pytest

from tests.test_wake_mutants import _copy_package, _edit_target, _run_scenario

GENERATORS = "traffic/generators.py"

#: name -> (file, the line, its mutation, what the scenario dies with)
MUTANTS = {
    "hit_reported_a_cycle_late": (
        GENERATORS,
        "                return when  # the drawn hit\n",
        "                return when + 1\n",
        "sparse/event differs from the per-cycle process",
    ),
    "none_after_a_horizon_miss": (
        GENERATORS,
        "            cycle = when  # a horizon of misses: drawn through ``when``\n",
        "            return None\n",
        "WakeContractError: missed wake",
    ),
    "no_shared_stream_guard": (
        GENERATORS,
        "        end = cycle + (1 if endpoint.rng_shared else DRAW_AHEAD_HORIZON)\n",
        "        end = cycle + DRAW_AHEAD_HORIZON\n",
        "two_sources/event differs from the per-cycle process",
    ),
    "draw_inside_the_probe": (
        "endpoints/endpoint.py",
        "        the same step's ``_receive`` has applied every credit due.\"\"\"\n",
        "        the same step's ``_receive`` has applied every credit due.\"\"\"\n"
        "        self.rng.random()\n",
        "sparse: event differs from polling",
    ),
}

#: sparse enough that endpoints draw whole horizons without a hit, then
#: the two ways an endpoint's stream is shared
SCENARIO = """
from repro.traffic.generators import DRAW_AHEAD_HORIZON, BernoulliSource
from tests.percycle import PerCycleBernoulli, run_micro

CHECKS = {
    "sparse": dict(rate=0.0008, measure_cycles=3 * DRAW_AHEAD_HORIZON, seed=3),
    "two_sources": dict(rate=0.1, two_sources=True),
    "error_rate": dict(rate=0.1, error_rate=0.05),
}
for name, point in CHECKS.items():
    reference = {
        kernel: run_micro(
            PerCycleBernoulli, kernel=kernel, verify_wake=True, **point
        )
        for kernel in ("event", "polling")
    }
    assert reference["event"][0].packets_measured > 0, name
    assert reference["event"] == reference["polling"], (
        f"{name}: event differs from polling"
    )
    for kernel, expected in reference.items():
        shipped = run_micro(
            BernoulliSource, kernel=kernel, verify_wake=True, **point
        )
        assert shipped == expected, (
            f"{name}/{kernel} differs from the per-cycle process"
        )
"""


def test_unmutated_copy_passes_every_check(tmp_path):
    _copy_package(tmp_path)
    proc = _run_scenario(tmp_path, SCENARIO)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_dies_on_its_recorded_check(name, tmp_path):
    rel, line, mutation, killed_by = MUTANTS[name]
    path, source = _edit_target(_copy_package(tmp_path), rel, line)
    path.write_text(source.replace(line, mutation))
    proc = _run_scenario(tmp_path, SCENARIO)
    assert proc.returncode != 0, f"{name} survived"
    assert killed_by in proc.stderr, proc.stderr

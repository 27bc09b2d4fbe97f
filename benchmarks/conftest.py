"""Benchmark harness configuration.

Every benchmark regenerates one of the paper's tables or figures on the
``tiny`` preset (42-node dragonfly) with shortened measurement windows,
records the measured series in ``extra_info`` (visible with
``pytest-benchmark``'s ``--benchmark-verbose`` or in the JSON export),
and asserts the paper's qualitative *shape* — who wins and roughly where
the crossovers fall.  Absolute cycle counts are simulator-scale specific;
EXPERIMENTS.md records the paper-vs-measured comparison.

Run:  pytest benchmarks/ --benchmark-only
Add ``--jobs N`` to fan each sweep's independent points out over N
worker processes (results are bit-identical for any N; see
repro.engine.parallel).
"""

from __future__ import annotations

import pytest

from repro.engine.config import NetworkConfig
from repro.experiments.common import preset_by_name, quicken


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--jobs",
        action="store",
        type=int,
        default=1,
        help="worker processes for experiment sweep points (default: 1)",
    )


@pytest.fixture(scope="session")
def jobs(request: pytest.FixtureRequest) -> int:
    """Sweep-executor worker count, from the --jobs command-line flag."""
    return max(1, int(request.config.getoption("--jobs")))


@pytest.fixture(scope="session")
def quick_base() -> NetworkConfig:
    """Tiny preset with halved windows: the benchmark workhorse."""
    return quicken(preset_by_name("tiny"), 0.5)


@pytest.fixture(scope="session")
def full_base() -> NetworkConfig:
    """Tiny preset at full windows, for the experiments that need the
    complete transient (fig7/fig8)."""
    return preset_by_name("tiny")


def sweep_rows(sweep, base, axes, jobs=1):
    """One sweep family on the cycle engine at experiment seed 1 — the
    runner's path: ``expand_sweep`` -> ``run_points``; returns the
    ``(point, result)`` rows."""
    from repro.campaign.service import run_points
    from repro.campaign.spec import expand_sweep

    return run_points(
        expand_sweep(sweep, base, axes, (1,), "cycle"), jobs=jobs
    )


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)

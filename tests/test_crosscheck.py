"""Cycle-vs-flow cross-validation at test scale.

The full validation family lives in :mod:`repro.analysis.crosscheck`
(CI runs it as its own job); this suite holds the same contract on
micro-scale presets cheap enough for tier 1: on each of the three
topologies the fastpath models, flow throughput within
:data:`~repro.analysis.crosscheck.THROUGHPUT_TOLERANCE` of the cycle
kernel, both engines consuming byte-identical spec hashes.
"""

from __future__ import annotations

import pytest

from repro.analysis.crosscheck import (
    THROUGHPUT_TOLERANCE,
    CrossCheckRow,
    format_crosscheck,
    run_crosscheck,
)
from repro.scenario import (
    FatTreeTopologySpec,
    ScenarioSpec,
    SingleSwitchTopologySpec,
    UniformTraffic,
)
from tests.conftest import micro_config


def _presets():
    cfg = micro_config()
    return [
        (
            "single-switch",
            ScenarioSpec(
                config=cfg,
                topology=SingleSwitchTopologySpec(num_nodes=4),
                traffic=(UniformTraffic(rate=0.5),),
            ),
        ),
        (
            "dragonfly",
            ScenarioSpec(config=cfg, traffic=(UniformTraffic(rate=0.5),)),
        ),
        (
            "fat-tree",
            ScenarioSpec(
                config=cfg,
                topology=FatTreeTopologySpec(),
                traffic=(UniformTraffic(rate=0.3),),
            ),
        ),
    ]


@pytest.fixture(scope="module")
def rows() -> list[CrossCheckRow]:
    return run_crosscheck(presets=_presets())


def test_three_presets_within_tolerance(rows):
    assert len(rows) == 3
    for row in rows:
        assert abs(row.throughput_delta) <= THROUGHPUT_TOLERANCE, (
            f"{row.preset}: flow {row.flow_throughput:.3f} vs cycle "
            f"{row.cycle_throughput:.3f} ({row.throughput_delta:+.1%})"
        )


def test_engines_consume_identical_spec_hashes(rows):
    # run_crosscheck asserts hash equality internally; re-derive here so
    # the contract survives refactors of that internal assert
    for (_, spec), row in zip(_presets(), rows):
        assert spec.spec_hash().startswith(row.spec_hash)


def test_flow_engine_is_faster(rows):
    # micro presets are tiny, so demand only a loose floor here; the
    # fig5-scale speedup is measured by the benchmark (bench/README.md)
    # and the CI crosscheck job on the tiny preset
    for row in rows:
        assert row.flow_seconds < row.cycle_seconds


def test_format_flags_out_of_tolerance():
    good = CrossCheckRow(
        preset="ok", spec_hash="abc", cycle_throughput=0.5,
        flow_throughput=0.51, cycle_latency=10.0, flow_latency=11.0,
        cycle_seconds=1.0, flow_seconds=0.01,
    )
    bad = CrossCheckRow(
        preset="drifted", spec_hash="def", cycle_throughput=0.5,
        flow_throughput=0.7, cycle_latency=10.0, flow_latency=11.0,
        cycle_seconds=1.0, flow_seconds=0.01,
    )
    out = format_crosscheck([good, bad])
    assert "OUT OF TOLERANCE" in out
    assert good.within_tolerance and not bad.within_tolerance

"""Cycle-engine output identity across the scenario-layer refactor.

The goldens under ``tests/goldens/`` are verbatim stdout captures of
fig5/fig9/fattree taken *before* the experiments were rebuilt on
``ScenarioSpec`` + the sweep harness.  The refactor's contract is that
the cycle engine's formatted output — seeds, sweep order, and every
simulated flit — is byte-identical, so these tests compare whole
rendered tables, not summary statistics.

If an intentional behaviour change breaks one of these, regenerate the
golden in the same commit and say so in the commit message.
"""

from __future__ import annotations

from pathlib import Path

from repro.engine.config import SimParams
from tests.conftest import micro_config, sweep_rows

GOLDENS = Path(__file__).parent / "goldens"


def _golden_config():
    return micro_config(
        sim=SimParams(
            seed=3,
            warmup_cycles=200,
            measure_cycles=600,
            drain_cycles=8000,
            sample_period=25,
        )
    )


def _assert_matches(name: str, rendered: str) -> None:
    golden = (GOLDENS / name).read_text()
    assert rendered + "\n" == golden, (
        f"{name} drifted from the pre-refactor capture; diff the "
        f"rendered output against tests/goldens/{name}"
    )


def test_fig5_byte_identical_to_pre_scenario_capture():
    from repro.experiments.fig5 import format_fig5

    out = format_fig5(
        sweep_rows(
            "fig5",
            _golden_config(),
            {"loads": (0.2, 0.8),
             "variants": ("baseline", "stash100", "stash25")},
            seed=3,
        )
    )
    _assert_matches("fig5_micro.txt", out)


def test_fig9_byte_identical_to_pre_scenario_capture():
    from repro.experiments.fig9 import format_fig9

    out = format_fig9(
        sweep_rows(
            "fig9",
            _golden_config(),
            {"bursts_pkts": (1, 4), "variants": ("baseline", "stash100")},
            seed=3,
        )
    )
    _assert_matches("fig9_micro.txt", out)


def test_fattree_byte_identical_to_pre_scenario_capture():
    from repro.experiments.fattree_exp import format_fattree

    out = format_fattree(
        sweep_rows(
            "fattree",
            _golden_config(),
            {"loads": (0.3,), "variants": ("baseline", "stash100")},
            seed=3,
        )
    )
    _assert_matches("fattree_micro.txt", out)

"""Cycle-engine output identity across the scenario-layer refactor.

The goldens under ``tests/goldens/`` are verbatim stdout captures of
fig5/fig9/fattree taken *before* the experiments were rebuilt on
``ScenarioSpec`` + the sweep harness.  The refactor's contract is that
the cycle engine's formatted output — seeds, sweep order, and every
simulated flit — is byte-identical, so these tests compare whole
rendered tables, not summary statistics.

The fig6/fig7/fig8/occupancy/ablation goldens were captured the same
way from the last commit that still had per-experiment ``run_*``
drivers (fig7/fig8 by calling ``run_fig7``/``run_fig8`` per variant with
the label-derived seed the sweep now gives that point), so they pin the
probes and the trace traffic kind against the code they replaced.

``flow_micro.txt`` pins the flow engine the same way: one
``repr(EngineResult)`` line per spec of :func:`_flow_specs`, captured
before routes were computed as a vectorised next-hop walk, so every
float of every solve — dragonfly, fat-tree and single switch, stash
pools, ECN windows and hot spots — is held to the bytes the per-pair
walk produced.

Every golden's renderer sits in one table, :data:`GOLDEN_RENDERERS`,
which these tests and ``python -m tests.regen`` both read.  If an
intentional behaviour change breaks one of these, regenerate with that
tool in the same commit and paste its moved-number table into the
commit message.
"""

from __future__ import annotations

import importlib
from functools import partial
from pathlib import Path
from typing import Callable

import pytest

from repro.campaign.spec import SWEEPS
from repro.engine.base import get_engine
from repro.engine.config import SimParams, small_preset, tiny_preset
from repro.scenario import (
    FatTreeTopologySpec,
    HotspotTraffic,
    ScenarioSpec,
    SingleSwitchTopologySpec,
    UniformAggressorTraffic,
    UniformTraffic,
    congestion_scenario,
    reliability_scenario,
)
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


def _render_fig5() -> str:
    from repro.experiments.fig5 import format_fig5

    return format_fig5(
        sweep_rows(
            "fig5",
            _golden_config(),
            {"loads": (0.2, 0.8),
             "variants": ("baseline", "stash100", "stash25")},
            seed=3,
        )
    )


def _render_fig9() -> str:
    from repro.experiments.fig9 import format_fig9

    return format_fig9(
        sweep_rows(
            "fig9",
            _golden_config(),
            {"bursts_pkts": (1, 4), "variants": ("baseline", "stash100")},
            seed=3,
        )
    )


def _render_fattree() -> str:
    from repro.experiments.fattree_exp import format_fattree

    return format_fattree(
        sweep_rows(
            "fattree",
            _golden_config(),
            {"loads": (0.3,), "variants": ("baseline", "stash100")},
            seed=3,
        )
    )


#: the sweeps migrated off per-experiment ``run_*`` drivers, with the
#: axes their goldens were captured at
_MIGRATED = [
    ("fig6", {"apps": ("MiniFE",), "variants": ("baseline", "stash100"),
              "size_scale": 2}),
    ("fig7", {}),
    ("fig8", {}),
    ("occupancy", {}),
    ("ablation", {"speedups": (1.0, 1.3)}),
]


def _render_migrated(sweep: str, axes: dict) -> str:
    rows = sweep_rows(sweep, _golden_config(), axes, seed=3)
    module = importlib.import_module(SWEEPS[sweep].module)
    return getattr(module, f"format_{sweep}")(rows)


def _flow_specs() -> list[tuple[str, ScenarioSpec]]:
    """Three dragonfly sizes x three stash variants x two loads, an ECN
    burst-aggressor and a hot-spot point per size, and the fat tree and
    single switch with and without stash pools."""
    specs = []
    presets = (
        ("micro", micro_config(), "baseline"),
        ("tiny", tiny_preset(), "stash100"),
        ("small", small_preset(), "stash50"),
    )
    for size, cfg, ecn_variant in presets:
        for variant in ("baseline", "stash100", "stash25"):
            for load in (0.3, 0.8):
                specs.append((f"{size} {variant} uniform {load}",
                              reliability_scenario(
                                  cfg, variant,
                                  traffic=(UniformTraffic(rate=load),))))
        specs.append((f"{size} {ecn_variant} aggressor-ecn",
                       congestion_scenario(
                           cfg, ecn_variant,
                           traffic=(UniformAggressorTraffic(burst_flits=64),))))
        specs.append((f"{size} hotspot",
                       ScenarioSpec(config=cfg, traffic=(HotspotTraffic(),))))
    micro = micro_config()
    for topo in (FatTreeTopologySpec(), SingleSwitchTopologySpec(num_nodes=4)):
        for variant in ("baseline", "stash25"):
            specs.append((f"{topo.kind} {variant} uniform 0.9",
                          reliability_scenario(
                              micro, variant,
                              traffic=(UniformTraffic(rate=0.9),),
                              topology=topo)))
    return specs


def _render_flow() -> str:
    flow = get_engine("flow")
    return "\n".join(
        f"{label}: {flow.run(spec)!r}" for label, spec in _flow_specs()
    )


#: golden file name (under ``tests/goldens/``) -> its renderer, which
#: returns the file's text without the final newline
GOLDEN_RENDERERS: dict[str, Callable[[], str]] = {
    "fig5_micro.txt": _render_fig5,
    "fig9_micro.txt": _render_fig9,
    "fattree_micro.txt": _render_fattree,
    **{
        f"{sweep}_micro.txt": partial(_render_migrated, sweep, axes)
        for sweep, axes in _MIGRATED
    },
    "flow_micro.txt": _render_flow,
}


def _assert_matches(name: str, rendered: str) -> None:
    golden = (GOLDENS / name).read_text()
    assert rendered + "\n" == golden, (
        f"{name} drifted from the pre-refactor capture; diff the "
        f"rendered output against tests/goldens/{name}"
    )


def _assert_golden(name: str) -> None:
    _assert_matches(name, GOLDEN_RENDERERS[name]())


def test_every_golden_has_one_renderer():
    assert sorted(GOLDEN_RENDERERS) == sorted(
        path.name for path in GOLDENS.glob("*.txt")
    )


def test_fig5_byte_identical_to_pre_scenario_capture():
    _assert_golden("fig5_micro.txt")


def test_fig9_byte_identical_to_pre_scenario_capture():
    _assert_golden("fig9_micro.txt")


def test_fattree_byte_identical_to_pre_scenario_capture():
    _assert_golden("fattree_micro.txt")


@pytest.mark.parametrize("sweep, axes", _MIGRATED)
def test_migrated_experiment_byte_identical_to_run_driver_capture(sweep, axes):
    _assert_matches(f"{sweep}_micro.txt", _render_migrated(sweep, axes))


def test_flow_engine_byte_identical_to_capture():
    _assert_golden("flow_micro.txt")


def test_flow_engine_reads_no_seed():
    """Two seeds give equal flow results on every golden spec and on a
    fat-tree point as the ``fattree`` sweep builds it — the premise on
    which ``run_points`` solves seed siblings once."""
    from repro.campaign.spec import expand_sweep
    from repro.engine.fastpath import FlowEngine

    [fattree] = expand_sweep(
        "fattree", tiny_preset(), {"variants": ["stash25"], "loads": [0.7]},
        (1,), "flow",
    )
    assert not FlowEngine.reads_seed
    for label, spec in _flow_specs() + [(fattree.label, fattree.spec)]:
        one = FlowEngine().run(spec.with_seed(1))
        two = FlowEngine().run(spec.with_seed(2))
        assert one == two and repr(one) == repr(two), (
            f"{label}: the flow result moved with the seed, but run_points "
            "shares one solve among points that differ only in seed "
            "because FlowEngine.reads_seed is False"
        )


def test_spec_hash_is_pinned():
    """A store key moves only on purpose: this hash changes exactly
    when the key of every stored result does (``python -m tests.regen``
    re-keys the committed store)."""
    from repro.scenario import UniformTraffic, reliability_scenario

    spec = reliability_scenario(
        _golden_config(), "stash50", traffic=(UniformTraffic(rate=0.5),)
    ).with_seed(11)
    assert spec.spec_hash() == (
        "de49cd89cabb6ccdd7149e6568d6d178e41ac989a445f0dcf29d40d2596883a1"
    )

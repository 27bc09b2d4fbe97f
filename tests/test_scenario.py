"""The engine-agnostic scenario layer: spec hashing, variant
resolution, and network materialisation.

The contract under test is the one both engines (and the sweep
executor's seed derivation) rely on: a ``ScenarioSpec`` is a pure value
— equal specs hash equal, different scenarios hash different, and
``resolved_config`` applies the paper's variant transforms exactly as
the pre-scenario experiment scripts did by hand.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.engine.config import ObsParams, ReliabilityParams
from repro.scenario import (
    FatTreeTopologySpec,
    ScenarioSpec,
    SingleSwitchTopologySpec,
    UniformTraffic,
    congestion_scenario,
    reliability_scenario,
)
from repro.scenario.spec import build_network
from tests.conftest import micro_config


def test_spec_hash_is_stable_across_instances():
    cfg = micro_config()
    a = reliability_scenario(cfg, "stash50", traffic=(UniformTraffic(rate=0.4),))
    b = reliability_scenario(cfg, "stash50", traffic=(UniformTraffic(rate=0.4),))
    assert a == b
    assert a.spec_hash() == b.spec_hash()


def test_spec_hash_distinguishes_scenarios():
    cfg = micro_config()
    specs = [
        ScenarioSpec(config=cfg, traffic=(UniformTraffic(rate=0.4),)),
        ScenarioSpec(config=cfg, traffic=(UniformTraffic(rate=0.5),)),
        reliability_scenario(cfg, "baseline", traffic=(UniformTraffic(rate=0.4),)),
        reliability_scenario(cfg, "stash100", traffic=(UniformTraffic(rate=0.4),)),
        reliability_scenario(cfg, "stash25", traffic=(UniformTraffic(rate=0.4),)),
        congestion_scenario(cfg, "stash100"),
        congestion_scenario(cfg, "stash100", probes=("port_occupancy",)),
        ScenarioSpec(
            config=cfg,
            topology=SingleSwitchTopologySpec(num_nodes=4),
            traffic=(UniformTraffic(rate=0.4),),
        ),
        ScenarioSpec(
            config=cfg,
            topology=FatTreeTopologySpec(),
            traffic=(UniformTraffic(rate=0.4),),
        ),
    ]
    hashes = {s.spec_hash() for s in specs}
    assert len(hashes) == len(specs)


def test_with_seed_changes_hash_and_resolved_seed():
    cfg = micro_config()
    spec = ScenarioSpec(config=cfg, traffic=(UniformTraffic(rate=0.3),))
    seeded = spec.with_seed(12345)
    assert seeded.spec_hash() != spec.spec_hash()
    assert seeded.resolved_config().sim.seed == 12345
    # seed=None keeps the config's own seed
    assert spec.resolved_config().sim.seed == cfg.sim.seed


def test_run_control_fields_leave_spec_hash_unchanged():
    """The kernel, the wake oracle and observability change how a point
    runs, never what it computes; its content key should not see them."""
    cfg = micro_config()
    spec = reliability_scenario(cfg, "stash25")
    variants = [
        cfg.with_(sim=replace(cfg.sim, kernel="polling")),
        cfg.with_(sim=replace(cfg.sim, verify_wake=True)),
        cfg.with_(obs=ObsParams(enabled=True)),
    ]
    assert {
        reliability_scenario(c, "stash25").spec_hash() for c in variants
    } == {spec.spec_hash()}


def test_reliability_variant_resolution_matches_manual_construction():
    cfg = micro_config()
    # what the pre-scenario fig5 script built by hand
    manual = cfg.with_(
        stash=replace(cfg.stash, enabled=True, capacity_scale=0.5),
        reliability=ReliabilityParams(enabled=True),
    )
    spec = reliability_scenario(cfg, "stash50")
    assert spec.resolved_config() == manual


def test_reliability_baseline_keeps_config_unchanged():
    # the paper's reliability baseline is the plain network: no stashing,
    # no retransmission, unlimited outstanding packets (the inert stash
    # fractions are normalised to defaults, which the disabled stash
    # never reads)
    cfg = micro_config()
    resolved = reliability_scenario(cfg, "baseline").resolved_config()
    assert resolved.stash.enabled is False
    assert resolved.reliability.enabled is False
    assert resolved.with_(stash=cfg.stash) == cfg


def test_congestion_variant_enables_ecn():
    cfg = micro_config()
    for variant, scale in (("baseline", None), ("stash100", 1.0), ("stash50", 0.5)):
        resolved = congestion_scenario(cfg, variant).resolved_config()
        assert resolved.ecn.enabled is True
        if scale is None:
            assert resolved.stash.enabled is False
        else:
            assert resolved.stash.enabled is True
            assert resolved.stash.capacity_scale == scale


def test_unknown_variant_rejected():
    cfg = micro_config()
    with pytest.raises(ValueError):
        reliability_scenario(cfg, "stash33")
    with pytest.raises(ValueError):
        congestion_scenario(cfg, "stash25")  # not in the VI-B study
    with pytest.raises(ValueError):
        ScenarioSpec(config=cfg, variant_kind="turbo")


def test_build_network_materialises_each_topology():
    cfg = micro_config()
    net = build_network(
        ScenarioSpec(config=cfg, traffic=(UniformTraffic(rate=0.2),))
    )
    assert net.topology.num_switches == 6  # p=1, a=2, h=1 dragonfly

    net = build_network(
        ScenarioSpec(
            config=cfg,
            topology=SingleSwitchTopologySpec(num_nodes=4),
            traffic=(UniformTraffic(rate=0.2),),
        )
    )
    assert net.topology.num_switches == 1
    assert net.topology.num_nodes == 4

    net = build_network(
        ScenarioSpec(
            config=cfg,
            topology=FatTreeTopologySpec(num_leaves=3, num_spines=2, p=2,
                                         min_ports=6, rows=2, cols=3),
            traffic=(UniformTraffic(rate=0.2),),
        )
    )
    assert net.topology.num_switches == 5  # 3 leaves + 2 spines

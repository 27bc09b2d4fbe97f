"""Configuration dataclasses: presets, derived values, validation."""

import pytest

from repro.engine.config import (
    DragonflyParams,
    EcnParams,
    NetworkConfig,
    ReliabilityParams,
    SimParams,
    StashParams,
    SwitchParams,
    paper_preset,
    rtt_buffer_flits,
    small_preset,
    tiny_preset,
)


class TestSwitchParams:
    def test_paper_tiling(self):
        sw = SwitchParams()
        assert sw.num_ports == 20
        assert sw.tile_inputs == 5
        assert sw.tile_outputs == 5

    def test_tiling_identity(self):
        # P = R * I and P = C * O (paper equations 1a/1b)
        for ports, rows, cols in [(20, 4, 4), (6, 2, 2), (64, 8, 8), (12, 2, 3)]:
            sw = SwitchParams(
                num_ports=ports, rows=rows, cols=cols,
                input_buffer_flits=1000, output_buffer_flits=1000,
            )
            assert rows * sw.tile_inputs == ports
            assert cols * sw.tile_outputs == ports

    def test_rejects_untileable_ports(self):
        with pytest.raises(ValueError, match="not divisible"):
            SwitchParams(num_ports=7, rows=2, cols=2)

    def test_rejects_subunit_speedup(self):
        with pytest.raises(ValueError, match="speedup"):
            SwitchParams(speedup=0.9)

    def test_rejects_buffer_smaller_than_packet(self):
        with pytest.raises(ValueError, match="smaller than one packet"):
            SwitchParams(input_buffer_flits=10, max_packet_flits=24)

    def test_row_buffer_scales_with_packet(self):
        sw = SwitchParams(max_packet_flits=24, row_buffer_packets=4)
        assert sw.row_buffer_flits == 96


class TestStashParams:
    def test_paper_fractions(self):
        st = StashParams()
        assert st.fraction_for("endpoint") == pytest.approx(7 / 8)
        assert st.fraction_for("local") == pytest.approx(3 / 4)
        assert st.fraction_for("global") == 0.0

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            StashParams().fraction_for("quantum")

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            StashParams(capacity_scale=1.5)

    def test_bad_placement_rejected(self):
        with pytest.raises(ValueError):
            StashParams(placement="round-robin")


class TestDragonflyParams:
    def test_paper_scale(self):
        df = DragonflyParams()
        assert df.groups == 56  # canonical a*h + 1 = 11*5 + 1
        assert df.num_switches == 616
        assert df.num_nodes == 3080
        assert df.switch_radix == 20

    def test_subcanonical_groups(self):
        df = DragonflyParams(p=2, a=3, h=2, num_groups=5)
        assert df.groups == 5

    def test_too_many_groups_rejected(self):
        with pytest.raises(ValueError):
            DragonflyParams(p=2, a=3, h=2, num_groups=8)

    def test_latency_ordering_enforced(self):
        with pytest.raises(ValueError):
            DragonflyParams(latency_endpoint=50, latency_local=40)


class TestNetworkConfig:
    def test_reliability_requires_stash(self):
        with pytest.raises(ValueError, match="requires stashing"):
            NetworkConfig(reliability=ReliabilityParams(enabled=True))

    def test_congestion_stash_requires_stash_and_ecn(self):
        with pytest.raises(ValueError):
            NetworkConfig(ecn=EcnParams(enabled=True, stash_on_congestion=True))

    def test_radix_must_fit(self):
        with pytest.raises(ValueError, match="ports"):
            NetworkConfig(
                switch=SwitchParams(num_ports=6, rows=2, cols=2,
                                    input_buffer_flits=200,
                                    output_buffer_flits=200),
                dragonfly=DragonflyParams(),  # needs 20 ports
            )

    def test_with_replaces_sections(self):
        cfg = tiny_preset()
        cfg2 = cfg.with_(sim=SimParams(seed=99))
        assert cfg2.sim.seed == 99
        assert cfg2.switch == cfg.switch


class TestPresets:
    @pytest.mark.parametrize("preset", [tiny_preset, small_preset, paper_preset])
    def test_presets_valid(self, preset):
        cfg = preset()
        assert cfg.dragonfly.switch_radix <= cfg.switch.num_ports

    def test_paper_preset_constants(self):
        cfg = paper_preset()
        assert cfg.switch.input_buffer_flits == 1000  # 10 KB / 10 B flits
        assert cfg.switch.max_packet_flits == 24
        assert cfg.switch.speedup == pytest.approx(1.3)
        assert cfg.ecn.window_max_flits == 4096
        assert cfg.ecn.recovery_period == 30
        assert (cfg.dragonfly.latency_endpoint,
                cfg.dragonfly.latency_local,
                cfg.dragonfly.latency_global) == (5, 40, 500)
        # paper keeps the published 3/4 local fraction
        assert cfg.stash.frac_local == pytest.approx(3 / 4)

    def test_scaled_presets_keep_buffer_over_rtt(self):
        for cfg in (tiny_preset(), small_preset()):
            rtt = rtt_buffer_flits(cfg.dragonfly.latency_global)
            assert cfg.switch.input_buffer_flits >= rtt

    def test_scaled_presets_normal_partition_holds_packets(self):
        # the endpoint-port normal partition must hold >= 3 packets or
        # injection serializes (see tiny_preset docstring)
        for cfg in (tiny_preset(), small_preset()):
            normal = cfg.switch.input_buffer_flits * (1 - cfg.stash.frac_endpoint)
            assert normal >= 3 * cfg.switch.max_packet_flits


def test_rtt_buffer_flits():
    assert rtt_buffer_flits(40, slack=16) == 96
    assert rtt_buffer_flits(1, slack=0) == 2

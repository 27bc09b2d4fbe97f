"""Network-level plumbing: ids, registries, stats windows, probes."""

import gc
import math
from collections import deque
from dataclasses import replace

import pytest

from repro.endpoints.endpoint import Endpoint
from repro.engine.base import get_engine
from repro.engine.config import StashParams, small_preset, tiny_preset
from repro.engine.simulator import Simulator
from repro.network import Network
from repro.scenario import UniformTraffic, build_network, reliability_scenario
from repro.switch.flit import Flit, Packet
from repro.switch.tiled_switch import TiledSwitch
from tests.conftest import drain_and_check, micro_config, single_switch_net


class TestAllocation:
    def test_pids_unique_and_monotone(self):
        net = single_switch_net()
        pids = [net.alloc_pid() for _ in range(100)]
        assert pids == sorted(pids)
        assert len(set(pids)) == 100

    def test_message_registry(self):
        net = single_switch_net()
        msg = net.alloc_message(0, 1, 8, cycle=5, tag=3)
        assert net.messages[msg.msg_id] is msg
        assert msg.tag == 3


class TestMemoryFollowsTraffic:
    def test_switch_fifos_are_lists(self):
        """An empty list is 56 B, an empty deque 760 B: the per-(slot, VC),
        per-(row, VC) and per-DAMQ-VC FIFOs are lists, so an idle network
        holds a deque only per port or channel (16,452 on ``small`` when
        these five families were deques)."""
        gc.collect()
        before = sum(type(o) is deque for o in gc.get_objects())
        net = Network(small_preset())
        built = sum(type(o) is deque for o in gc.get_objects()) - before
        assert built <= 1700
        for sw in net.switches:
            fifos = [q for row in sw.tiles for tile in row
                     for slot in tile.queues for q in slot]
            fifos += [q for row in sw.tiles for tile in row for q in tile.jobs]
            fifos += [q for ip in sw.in_ports for q in ip.damq.queues]
            for op in sw.out_ports:
                fifos += [q for row in op.col_buffers for q in row]
                fifos += op.col_jobs + op.out_damq.queues
            assert {type(q) for q in fifos} == {list}

    def test_delivered_messages_and_drained_queues_are_released(self):
        net = single_switch_net()
        ep = net.endpoints[0]
        ep.post_message(1, 40, 0)
        ep.post_message(0, 8, 0)  # a self-send never enters the table
        assert list(net.messages) == [1] and list(ep.send_queues) == [1]
        drain_and_check(net)
        assert (net.messages, ep.send_queues) == ({}, {})
        assert (net.messages_posted, net.messages_delivered) == (2, 2)


def _cyclic_garbage() -> list:
    """What a full collection finds unreachable (``gc.DEBUG_SAVEALL``)."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    found = list(gc.garbage)
    gc.garbage.clear()
    return found


@pytest.fixture
def collector_off():
    """The cyclic collector off for the test, its state restored after."""
    gc.collect()
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if enabled:
            gc.enable()


@pytest.mark.usefixtures("collector_off")
class TestNoCyclicGarbage:
    """A delivered packet and a finished network are freed without the
    cyclic collector's help: a flit points at its packet and nothing
    points back, and ``CycleEngine.run`` collects its network once."""

    def test_delivered_packets_are_freed_by_refcount(self):
        net = build_network(reliability_scenario(
            tiny_preset(), "stash100", traffic=(UniformTraffic(rate=0.5),)
        ))
        net.sim.run(2000)
        assert net.total_data_packets_delivered > 0
        left = [o for o in _cyclic_garbage() if isinstance(o, (Packet, Flit))]
        assert not left, f"{len(left)} packets and flits left for the GC"

    def test_finished_network_is_freed_before_run_returns(self):
        cfg = micro_config()
        cfg = cfg.with_(sim=replace(cfg.sim, warmup_cycles=100,
                                    measure_cycles=300, drain_cycles=3000))
        get_engine("cycle").run(reliability_scenario(
            cfg, "stash100", traffic=(UniformTraffic(rate=0.5),)
        ))
        kinds = (Network, Simulator, TiledSwitch, Endpoint)
        left = {type(o).__name__ for o in _cyclic_garbage()
                if isinstance(o, kinds)}
        assert not left, f"finished network left for the GC: {left}"


class TestStatsWindows:
    def test_latency_outside_window_dropped(self):
        net = single_switch_net()
        net.endpoints[0].post_message(1, 4, 0)
        drain_and_check(net)  # no window open
        assert net.latency.count == 0

    def test_offered_accepted_balance_below_saturation(self):
        net = single_switch_net()
        net.add_uniform_traffic(rate=0.3)
        net.sim.run(300)
        net.open_measurement()
        net.sim.run(1500)
        net.close_measurement()
        res = net.result()
        assert res.accepted_load == pytest.approx(res.offered_load, rel=0.15)

    def test_result_nan_without_samples(self):
        net = single_switch_net()
        res = net.result()
        assert math.isnan(res.avg_latency)
        assert res.packets_measured == 0


class TestProbes:
    def test_stash_utilization_zero_on_baseline(self):
        net = single_switch_net()
        assert net.stash_utilization() == 0.0

    def test_stash_utilization_single_switch_argument(self):
        net = single_switch_net(stash=True)
        sw = net.switches[0]
        part = sw.stash_dir.partitions[0]
        part.commit(part.capacity // 2)
        assert net.stash_utilization(0) > 0
        assert net.stash_utilization() == net.stash_utilization(0)

    def test_quiescent_detects_pending_endpoint_work(self):
        net = single_switch_net()
        assert net.quiescent()
        net.endpoints[0].post_message(1, 4, 0)
        assert not net.quiescent()


class TestGroupTracking:
    def test_groups_partition_latency_samples(self):
        net = single_switch_net()
        net.track_group("left", {0, 1, 2})
        net.track_group("right", {3, 4, 5})
        net.open_measurement()
        for src in range(6):
            net.endpoints[src].post_message((src + 1) % 6, 4, 0)
        drain_and_check(net)
        left = net.group_latency["left"].count
        right = net.group_latency["right"].count
        assert left == right == 3
        assert left + right == net.latency.count


class TestMultiSourceWiring:
    def test_sources_limited_to_node_subset(self):
        net = single_switch_net()
        net.add_uniform_traffic(rate=0.5, nodes=[0, 1], stop=300)
        net.sim.run(300)
        for node in (2, 3, 4, 5):
            assert net.endpoints[node].messages_posted == 0
        assert net.endpoints[0].messages_posted > 0

    def test_micro_dragonfly_switch_count(self):
        net = Network(micro_config())
        assert len(net.switches) == 6
        assert len(net.endpoints) == 6

    def test_stashing_switch_type_selected_by_config(self):
        from repro.switch.stashing_switch import StashingSwitch
        from repro.switch.tiled_switch import TiledSwitch

        base = Network(micro_config())
        assert type(base.switches[0]) is TiledSwitch
        stash = Network(
            micro_config(stash=StashParams(enabled=True, frac_local=0.5))
        )
        assert type(stash.switches[0]) is StashingSwitch

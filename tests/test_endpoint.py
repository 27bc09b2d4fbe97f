"""Endpoint / NIC behaviour, exercised on a single-switch network."""

import pytest

from repro.switch.flit import PacketKind
from tests.conftest import drain_and_check, single_switch_net


class TestSegmentation:
    def test_message_split_into_max_packets(self):
        net = single_switch_net()
        ep = net.endpoints[0]
        msg = ep.post_message(dst=1, size_flits=10, cycle=0)
        # max packet is 4 flits -> 4 + 4 + 2
        assert msg.packets_total == 3
        sizes = [p.size for p in ep.send_queues[1]]
        assert sizes == [4, 4, 2]

    def test_exact_multiple(self):
        net = single_switch_net()
        msg = net.endpoints[0].post_message(1, 8, 0)
        assert msg.packets_total == 2

    def test_self_send_completes_locally(self):
        net = single_switch_net()
        done = []
        msg = net.endpoints[0].post_message(
            0, 8, 0, on_complete=lambda m, c: done.append(c)
        )
        assert msg.delivered
        assert done == [0]
        assert not net.endpoints[0].send_queues  # nothing hit the network

    def test_backlog_accounting(self):
        net = single_switch_net()
        ep = net.endpoints[0]
        ep.post_message(1, 10, 0)
        ep.post_message(2, 4, 0)
        assert ep.backlog_flits == 14
        assert not ep.idle


class TestInjectionArbitration:
    def test_round_robin_across_destinations(self):
        """Per-packet round-robin over active queue pairs (paper Sec. V)."""
        net = single_switch_net()
        ep = net.endpoints[0]
        ep.post_message(1, 16, 0)  # 4 packets
        ep.post_message(2, 16, 0)  # 4 packets
        order = []
        hook = lambda pkt, cycle: order.append(pkt.dst) if pkt.src == 0 else None
        net.on_packet_delivered_hooks.append(hook)
        drain_and_check(net)
        # strict alternation between the two destinations
        assert sorted(order[:2]) == [1, 2]
        assert order[:6] in ([1, 2, 1, 2, 1, 2], [2, 1, 2, 1, 2, 1])

    def test_one_flit_per_cycle(self):
        net = single_switch_net()
        ep = net.endpoints[0]
        ep.post_message(1, 40, 0)
        net.sim.run(20)
        assert ep.flits_injected <= 20


class TestAcks:
    def test_every_data_packet_acked(self):
        net = single_switch_net()
        net.endpoints[0].post_message(1, 12, 0)  # 3 packets
        drain_and_check(net)
        # destination generated one ACK per data packet
        assert net.endpoints[1].packets_delivered == 3
        # source received them: pending table empty
        assert not net.endpoints[0]._pending_acks

    def test_ack_latency_counts_in_flits(self):
        net = single_switch_net()
        net.endpoints[0].post_message(1, 4, 0)
        drain_and_check(net)
        # 4 data flits ejected at node 1, 1 ack flit at node 0
        assert net.endpoints[1].flits_ejected == 4
        assert net.endpoints[0].flits_ejected == 1


class TestDelivery:
    def test_latency_recorded_within_window(self):
        net = single_switch_net()
        net.open_measurement()
        net.endpoints[0].post_message(1, 4, 0)
        drain_and_check(net)
        assert net.latency.count == 1
        assert net.latency.mean > 0

    def test_message_completion_callback(self):
        net = single_switch_net()
        done = []
        net.endpoints[0].post_message(
            1, 12, 0, on_complete=lambda m, c: done.append((m.msg_id, c))
        )
        drain_and_check(net)
        assert len(done) == 1

    def test_packet_kind_data(self):
        net = single_switch_net()
        kinds = []
        net.on_packet_delivered_hooks.append(
            lambda pkt, c: kinds.append(pkt.kind)
        )
        net.endpoints[0].post_message(1, 4, 0)
        drain_and_check(net)
        assert kinds == [PacketKind.DATA]  # hooks fire for data only


class TestSleep:
    def test_credit_returns_do_not_wake_an_idle_endpoint(self):
        """Credits only refill the injection mirror, which the endpoint
        reads after applying every credit due in the same step."""
        net = single_switch_net()
        ep = net.endpoints[0]
        ep.mirror.admit(0, 1)
        ep.credit_in.send((0, 1), 0)
        assert ep.next_active_cycle(0) is None
        net.sim.run(20)
        assert ep.mirror.total_committed == 1  # arrived, not yet applied
        ep.post_message(1, 4, net.sim.cycle)
        net.sim.run(1)
        assert not ep.credit_in._queue
        assert ep.mirror.total_committed == 1  # the one flit just injected
        drain_and_check(net)

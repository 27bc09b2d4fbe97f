"""Packet order enforcement (paper Section IV-C): unit tests for the
reorder buffer plus full-network integration with adaptive routing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.config import OrderingParams, ReliabilityParams, StashParams
from repro.network import Network
from repro.protocol.ordering import ReorderBuffer
from repro.switch.flit import Packet
from tests.conftest import drain_and_check, micro_config


def _pkt(seq, msg_id=1, size=4, pid=None):
    p = Packet(pid if pid is not None else 100 + seq, 0, 1, size,
               msg_id=msg_id, seq=seq)
    return p


class TestReorderBufferUnit:
    def test_in_sequence_delivers_immediately(self):
        rb = ReorderBuffer(16)
        accepted, out = rb.accept(_pkt(0))
        assert accepted and [p.seq for p in out] == [0]
        accepted, out = rb.accept(_pkt(1))
        assert accepted and [p.seq for p in out] == [1]
        assert rb.used_flits == 0

    def test_early_packet_held_then_released(self):
        rb = ReorderBuffer(16)
        accepted, out = rb.accept(_pkt(1))
        assert accepted and out == []
        assert rb.used_flits == 4
        accepted, out = rb.accept(_pkt(0))
        assert [p.seq for p in out] == [0, 1]
        assert rb.used_flits == 0

    def test_deep_reordering_chain(self):
        rb = ReorderBuffer(64)
        for seq in (3, 1, 2):
            _, out = rb.accept(_pkt(seq))
            assert out == []
        _, out = rb.accept(_pkt(0))
        assert [p.seq for p in out] == [0, 1, 2, 3]

    def test_full_buffer_drops(self):
        rb = ReorderBuffer(8)
        assert rb.accept(_pkt(1))[0]
        assert rb.accept(_pkt(2))[0]  # 8 flits held: full
        accepted, out = rb.accept(_pkt(3))
        assert not accepted and out == []
        assert rb.dropped_total == 1

    def test_duplicate_of_delivered_swallowed(self):
        rb = ReorderBuffer(16)
        rb.accept(_pkt(0))
        accepted, out = rb.accept(_pkt(0, pid=999))
        assert accepted and out == []

    def test_duplicate_of_held_swallowed(self):
        rb = ReorderBuffer(16)
        rb.accept(_pkt(1))
        accepted, out = rb.accept(_pkt(1, pid=999))
        assert accepted and out == []
        assert rb.used_flits == 4  # not double-counted

    def test_messages_independent(self):
        rb = ReorderBuffer(32)
        _, out_a = rb.accept(_pkt(0, msg_id=1))
        _, held_b = rb.accept(_pkt(1, msg_id=2))
        assert [p.seq for p in out_a] == [0]
        assert held_b == []

    def test_finish_message_rejects_leftovers(self):
        rb = ReorderBuffer(16)
        rb.accept(_pkt(2, msg_id=7))
        with pytest.raises(RuntimeError):
            rb.finish_message(7)

    def test_finish_clears_state(self):
        rb = ReorderBuffer(16)
        rb.accept(_pkt(0, msg_id=7))
        rb.finish_message(7)
        # the next seq 0 is in sequence again: the message was forgotten
        again = _pkt(0, msg_id=7)
        assert rb.accept(again) == (True, [again])

    @given(
        order=st.permutations(list(range(8))),
        capacity=st.integers(8, 64),
    )
    @settings(max_examples=60)
    def test_any_arrival_order_delivers_in_sequence(self, order, capacity):
        """Whatever fits is always released in sequence order; drops are
        exactly the packets that arrive early into a full buffer."""
        rb = ReorderBuffer(capacity)
        delivered: list[int] = []
        pending = list(order)
        attempts = 0
        while pending and attempts < 200:
            seq = pending.pop(0)
            accepted, out = rb.accept(_pkt(seq, size=4))
            delivered.extend(p.seq for p in out)
            if not accepted:
                pending.append(seq)  # model the retransmission
            attempts += 1
        assert delivered == sorted(delivered)
        assert delivered == list(range(8))


class TestOrderedNetwork:
    def _net(self, buffer_flits=64, error_rate=0.0):
        cfg = micro_config(
            stash=StashParams(enabled=True, frac_local=0.5),
            reliability=ReliabilityParams(enabled=True,
                                          error_rate=error_rate),
            ordering=OrderingParams(enabled=True,
                                    buffer_flits=buffer_flits),
        )
        return Network(cfg)

    def test_ordering_requires_reliability(self):
        with pytest.raises(ValueError, match="reliability"):
            micro_config(ordering=OrderingParams(enabled=True))

    def test_ordered_delivery_under_adaptive_routing(self):
        net = self._net()
        seqs: dict[tuple[int, int], list[int]] = {}
        net.on_packet_delivered_hooks.append(
            lambda pkt, c: seqs.setdefault((pkt.msg_id), []).append(pkt.seq)
        )
        for src in range(6):
            net.endpoints[src].post_message((src + 3) % 6, 40, 0)
        drain_and_check(net, max_cycles=150_000)
        for msg_id, order in seqs.items():
            assert order == sorted(order), (msg_id, order)

    def test_tiny_reorder_buffer_recovers_via_retransmission(self):
        net = self._net(buffer_flits=4)  # one early packet at most
        net.add_uniform_traffic(rate=0.4, stop=1200)
        net.sim.run(1200)
        drain_and_check(net, max_cycles=250_000)
        # under load some packets must have been dropped and recovered
        retrans = sum(sw.retransmits_issued for sw in net.switches)
        drops = sum(ep.packets_reorder_dropped for ep in net.endpoints)
        assert drops == 0 or retrans > 0

    def test_ordering_with_corruption(self):
        net = self._net(buffer_flits=32, error_rate=0.05)
        net.add_uniform_traffic(rate=0.25, stop=800)
        net.sim.run(800)
        drain_and_check(net, max_cycles=250_000)

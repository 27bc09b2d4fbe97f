"""Link-level retransmission: go-back-N unit tests + network integration
with injected link errors (the paper's Section I/II premise)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.config import LinkParams
from repro.network import Network
from repro.protocol.link import LinkReceiver, LinkSender
from repro.switch.flit import Packet
from tests.conftest import drain_and_check, micro_config, packet_flits


def _flits(n=8):
    return packet_flits(Packet(1, 0, 1, n))


class TestLinkParams:
    def test_error_requires_enabled(self):
        with pytest.raises(ValueError):
            LinkParams(error_rate=0.1)

    def test_bounds(self):
        with pytest.raises(ValueError):
            LinkParams(enabled=True, error_rate=1.0)
        with pytest.raises(ValueError):
            LinkParams(enabled=True, ack_interval=0)


class TestGoBackN:
    def _pair(self, error_rate=0.0, ack_interval=1, seed=1):
        params = LinkParams(enabled=True, error_rate=error_rate,
                            ack_interval=ack_interval)
        return LinkSender(params, random.Random(seed)), LinkReceiver(params)

    def test_clean_transfer_acks_and_releases(self):
        tx, rx = self._pair()
        flits = _flits(4)
        released = []
        for i, f in enumerate(flits):
            seq, vc, flit, corrupted = tx.stage_new(2, 3, f)
            assert (seq, vc, flit, corrupted) == (i, 3, f, False)
            accept, control = rx.receive(seq, corrupted)
            assert accept
            for kind, s in control:
                assert kind == "ack"
                released.extend(tx.on_ack(s))
        assert released == [(2, 1)] * 4
        assert tx.retained_flits == 0

    def test_corruption_triggers_nack_and_replay(self):
        tx, rx = self._pair()
        flits = _flits(3)
        wires = [tx.stage_new(0, 0, f) for f in flits]
        # corrupt the first flit on the wire
        seq0, vc0, f0, _ = wires[0]
        accept, control = rx.receive(seq0, True)
        assert not accept
        assert control == [("nack", 0)]
        # the two pipelined flits behind it are discarded silently
        for seq, _, _, _ in wires[1:]:
            accept, control = rx.receive(seq, False)
            assert not accept and control == []
        # sender replays everything from 0
        tx.on_nack(0)
        assert len(tx.replay) == 3
        for expected_seq in range(3):
            seq, vc, flit, corrupted = tx.pop_replay()
            assert seq == expected_seq
            accept, _ = rx.receive(seq, corrupted)
            assert accept
        assert tx.pop_replay() is None
        assert rx.flits_accepted == 3

    def test_corrupted_replay_renacks(self):
        """A replay that is itself corrupted must trigger a fresh NACK,
        otherwise the link wedges."""
        tx, rx = self._pair()
        seq, vc, f, _ = tx.stage_new(0, 0, _flits(1)[0])
        accept, control = rx.receive(seq, True)
        assert control == [("nack", 0)]
        tx.on_nack(0)
        seq, vc, f, _ = tx.pop_replay()
        accept, control = rx.receive(seq, True)  # corrupted again
        assert not accept
        assert control == [("nack", 0)]  # re-requested

    def test_cumulative_ack_interval(self):
        tx, rx = self._pair(ack_interval=4)
        acks = []
        for f in _flits(8):
            seq, _, _, c = tx.stage_new(0, 0, f)
            _, control = rx.receive(seq, c)
            acks.extend(control)
        assert acks == [("ack", 3), ("ack", 7)]
        tx.on_ack(3)
        assert tx.retained_flits == 4

    @given(st.integers(0, 2**31), st.integers(1, 40))
    @settings(max_examples=40)
    def test_every_flit_delivered_exactly_once(self, seed, n):
        """Property: under any corruption pattern, the receiver accepts
        each sequence exactly once and in order."""
        params = LinkParams(enabled=True, error_rate=0.3, ack_interval=2)
        tx = LinkSender(params, random.Random(seed))
        rx = LinkReceiver(params)
        flits = _flits(max(2, n))[: n] if n > 1 else _flits(2)[:1]
        staged = [tx.stage_new(0, 0, f) for f in flits]
        wire = list(staged)
        accepted = []
        budget = 60 * len(flits) + 200
        while wire and budget:
            budget -= 1
            seq, vc, flit, corrupted = wire.pop(0)
            accept, control = rx.receive(seq, corrupted)
            if accept:
                accepted.append(seq)
            for kind, s in control:
                if kind == "ack":
                    tx.on_ack(s)
                else:
                    tx.on_nack(s)
                    # replayed flits go behind what is already in flight
                    replayed = []
                    while True:
                        w = tx.pop_replay()
                        if w is None:
                            break
                        replayed.append(w)
                    wire.extend(replayed)
        assert budget > 0, "link protocol livelocked"
        assert accepted == list(range(len(flits)))


class TestNetworkWithLinkErrors:
    def _net(self, error_rate):
        cfg = micro_config(
            link=LinkParams(enabled=True, error_rate=error_rate,
                            ack_interval=2)
        )
        return Network(cfg)

    def test_clean_protocol_equals_plain_delivery(self):
        net = self._net(0.0)
        net.add_uniform_traffic(rate=0.3, stop=800)
        net.sim.run(800)
        drain_and_check(net, max_cycles=100_000)

    def test_lossy_links_still_deliver_everything(self):
        net = self._net(0.05)
        net.add_uniform_traffic(rate=0.25, stop=800)
        net.sim.run(800)
        drain_and_check(net, max_cycles=300_000)
        replayed = sum(
            op.link_tx.flits_replayed
            for sw in net.switches
            for op in sw.out_ports
            if op.link_tx is not None
        )
        assert replayed > 0, "no link-level retransmissions happened"

    def test_no_packet_duplicated_or_reordered(self):
        net = self._net(0.08)
        seqs: dict[int, list[int]] = {}
        net.on_packet_delivered_hooks.append(
            lambda pkt, c: seqs.setdefault(pkt.msg_id, []).append(pkt.seq)
        )
        for src in range(6):
            net.endpoints[src].post_message((src + 2) % 6, 20, 0)
        drain_and_check(net, max_cycles=300_000)
        for msg_id, order in seqs.items():
            assert sorted(order) == list(range(len(order))), (msg_id, order)

    def test_endpoint_links_unaffected(self):
        net = self._net(0.05)
        sw = net.switches[0]
        # endpoint ports carry no link protocol (short, clean links)
        for spec in net.topology.switch_ports(0):
            if spec.link_class == "endpoint":
                assert sw.in_ports[spec.port].link_rx is None
                assert sw.out_ports[spec.port].link_tx is None
            elif spec.link_class in ("local", "global"):
                assert sw.in_ports[spec.port].link_rx is not None
                assert sw.out_ports[spec.port].link_tx is not None

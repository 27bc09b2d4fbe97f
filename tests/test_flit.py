"""Packets, flits, messages."""

import pytest

from repro.switch.flit import Message, Packet, PacketKind
from tests.conftest import packet_flits


def test_flit_head_tail_marks():
    pkt = Packet(1, 0, 1, 4)
    marks = [(f.head, f.tail) for f in packet_flits(pkt)]
    assert marks == [(True, False), (False, False), (False, False), (False, True)]


def test_single_flit_packet_is_head_and_tail():
    pkt = Packet(1, 0, 1, 1)
    f = packet_flits(pkt)[0]
    assert f.head and f.tail


def test_packet_rejects_empty():
    with pytest.raises(ValueError):
        Packet(1, 0, 1, 0)


def test_stash_clone_preserves_payload_identity():
    pkt = Packet(7, 2, 9, 5, msg_id=33, seq=4, birth_cycle=100)
    clone = pkt.stash_clone(pid=99)
    assert clone.pid == 99
    assert (clone.src, clone.dst, clone.size) == (2, 9, 5)
    assert (clone.msg_id, clone.seq) == (33, 4)


def test_clone_has_fresh_routing_state():
    pkt = Packet(7, 2, 9, 5)
    pkt.nonminimal = True
    pkt.mid_group = 3
    pkt.route_ptr = 4
    clone = pkt.stash_clone(8)
    assert not clone.nonminimal
    assert clone.mid_group == -1
    assert clone.route_ptr == 0


def test_message_delivery_accounting():
    msg = Message(1, 0, 5, size_flits=10, create_cycle=0)
    msg.packets_total = 3
    assert not msg.delivered
    msg.packets_delivered = 3
    assert msg.delivered


def test_message_rejects_empty():
    with pytest.raises(ValueError):
        Message(1, 0, 5, size_flits=0, create_cycle=0)


def test_ack_kind():
    ack = Packet(2, 5, 0, 1, PacketKind.ACK)
    ack.ack_for = 77
    assert ack.kind == PacketKind.ACK
    assert ack.ack_positive  # default positive

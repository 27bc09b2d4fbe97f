"""Delay-line channels."""

import pytest

from repro.engine.channel import Channel


def test_latency_respected():
    ch = Channel(3)
    ch.send("a", cycle=10)
    assert list(ch.recv_ready(12)) == []
    assert list(ch.recv_ready(13)) == ["a"]
    assert list(ch.recv_ready(14)) == []


def test_fifo_order():
    ch = Channel(2)
    for i in range(5):
        ch.send(i, cycle=i)
    out = []
    for cycle in range(12):
        out.extend(ch.recv_ready(cycle))
    assert out == [0, 1, 2, 3, 4]


def test_batch_delivery_same_cycle():
    ch = Channel(1)
    ch.send("x", 5)
    ch.send("y", 5)
    assert list(ch.recv_ready(6)) == ["x", "y"]


def test_empty_and_len():
    ch = Channel(1)
    assert ch.empty
    ch.send(1, 0)
    assert not ch.empty
    assert len(ch) == 1


def test_zero_latency_rejected():
    with pytest.raises(ValueError):
        Channel(0)


def test_credit_channel_tuples():
    # a credit wire is a plain channel of (vc, flits) tuples
    ch = Channel(2)
    ch.send((3, 2), cycle=0)
    assert list(ch.recv_ready(2)) == [(3, 2)]


def test_recv_ready_drains_eagerly_despite_partial_consumption():
    # regression: recv_ready used to be a lazy generator, so a caller
    # that stopped iterating early left due items queued in the channel
    ch = Channel(1)
    for i in range(4):
        ch.send(i, cycle=0)
    for item in ch.recv_ready(1):
        if item == 1:
            break  # early exit must not strand items 2 and 3
    assert ch.empty
    assert ch.recv_ready(1) == []


def test_recv_ready_returns_list():
    ch = Channel(1)
    ch.send("x", 0)
    ready = ch.recv_ready(1)
    assert isinstance(ready, list)
    # the returned list is a snapshot: iterating twice sees the same items
    assert list(ready) == list(ready) == ["x"]


def test_send_rejects_out_of_order_cycle():
    # regression: a send below the queue tail's cycle used to be
    # accepted silently, corrupting FIFO delivery order and the event
    # kernel's next-arrival deadline
    ch = Channel(2, name="lnk")
    ch.send("a", cycle=10)
    with pytest.raises(ValueError, match="out-of-order send on lnk"):
        ch.send("b", cycle=9)
    # the offending item must not have been enqueued
    assert len(ch) == 1
    assert ch.recv_ready(12) == ["a"]


def test_send_same_cycle_is_in_order():
    ch = Channel(1)
    ch.send("a", cycle=4)
    ch.send("b", cycle=4)  # equal cycles are fine (batched sends)
    ch.send("c", cycle=5)
    assert ch.recv_ready(6) == ["a", "b", "c"]

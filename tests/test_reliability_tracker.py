"""End-to-end retransmission tracker: all four ACK/location orderings
(paper Section IV-A)."""

import pytest

from repro.core.reliability import EndToEndTracker
from repro.core.sideband import SidebandKind, SidebandNetwork, SidebandMessage


class TestOrderings:
    def test_location_then_positive_ack_deletes(self):
        t = EndToEndTracker(port=0)
        t.track(pid=1, size_flits=8)
        assert t.on_location(1, stash_port=4, location=9) is None
        msg = t.on_ack(1, positive=True)
        assert msg is not None
        assert msg.kind == SidebandKind.DELETE
        assert (msg.dest_port, msg.location) == (4, 9)
        with pytest.raises(RuntimeError, match="unknown packet"):
            t.on_location(1, 4, 9)  # the record is gone
        assert t.deletes_sent == 1

    def test_location_then_negative_ack_retransmits(self):
        t = EndToEndTracker(port=2)
        t.track(1, 8)
        t.on_location(1, 4, 9)
        msg = t.on_ack(1, positive=False)
        assert msg.kind == SidebandKind.RETRANSMIT
        assert msg.origin_port == 2
        assert t.retransmits_sent == 1

    def test_positive_ack_then_location(self):
        """Paper: 'the eventual arrival of the location message will be
        followed immediately by a deletion command'."""
        t = EndToEndTracker(0)
        t.track(1, 8)
        assert t.on_ack(1, positive=True) is None  # record must persist
        assert t.acks_before_location == 1
        msg = t.on_location(1, 4, 9)
        assert msg.kind == SidebandKind.DELETE

    def test_negative_ack_then_location(self):
        """Paper: 'all retransmit processing simply waits until the
        location message arrives'."""
        t = EndToEndTracker(0)
        t.track(1, 8)
        t.on_ack(1, positive=False)
        msg = t.on_location(1, 4, 9)
        assert msg.kind == SidebandKind.RETRANSMIT


class TestBookkeeping:
    def test_duplicate_track_rejected(self):
        t = EndToEndTracker(0)
        t.track(1, 8)
        with pytest.raises(RuntimeError):
            t.track(1, 8)

    def test_ack_for_untracked_packet_ignored(self):
        t = EndToEndTracker(0)
        assert t.on_ack(42, positive=True) is None

    def test_location_for_unknown_packet_rejected(self):
        t = EndToEndTracker(0)
        with pytest.raises(RuntimeError):
            t.on_location(42, 1, 1)

    def test_pid_reusable_after_resolution(self):
        t = EndToEndTracker(0)
        t.track(1, 8)
        t.on_location(1, 2, 0)
        t.on_ack(1, positive=True)
        t.track(1, 8)  # fresh cycle for the same pid is legal
        with pytest.raises(RuntimeError, match="already tracked"):
            t.track(1, 8)


class TestSidebandNetwork:
    def test_delivery_latency(self):
        net = SidebandNetwork(num_ports=6, latency=3)
        msg = SidebandMessage(SidebandKind.DELETE, dest_port=2, pid=1,
                              stash_port=2, location=0)
        net.send(msg, cycle=10)
        assert net.deliver_ready(12) == []
        assert net.deliver_ready(13) == [msg]
        assert net.in_flight == 0

    def test_send_order_preserved(self):
        net = SidebandNetwork(4, latency=1)
        msgs = [
            SidebandMessage(SidebandKind.DELETE, i, i, i, 0) for i in range(3)
        ]
        for m in msgs:
            net.send(m, 0)
        assert net.deliver_ready(1) == msgs

    def test_out_of_range_destination_rejected(self):
        net = SidebandNetwork(4, latency=1)
        with pytest.raises(ValueError):
            net.send(
                SidebandMessage(SidebandKind.DELETE, 9, 0, 9, 0), 0
            )

    def test_zero_latency_rejected(self):
        with pytest.raises(ValueError):
            SidebandNetwork(4, latency=0)

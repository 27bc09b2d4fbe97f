"""End-to-end retransmission tracker (paper Section IV-A).

Each *end port* (a first-hop switch input connected directly to an
endpoint) keeps a management data structure tracking every injected data
packet: where its stash copy landed (reported asynchronously by a
location message) and whether its ACK has returned.  The two events race;
the tracker resolves all four orderings exactly as the paper describes:

* location then positive ACK  -> send delete;
* location then negative ACK  -> send retransmit;
* positive ACK then location  -> normal completion proceeds immediately,
  the later location is answered with a delete;
* negative ACK then location  -> retransmit processing waits for the
  location message.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.sideband import SidebandKind, SidebandMessage

__all__ = ["EndToEndTracker", "TrackerRecord"]


@dataclass
class TrackerRecord:
    pid: int
    size_flits: int
    stash_port: int = -1
    location: int = -1
    ack_seen: bool = False
    ack_positive: bool = True

    @property
    def has_location(self) -> bool:
        return self.stash_port >= 0


class EndToEndTracker:
    """Outstanding-packet bookkeeping for one end port."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._records: dict[int, TrackerRecord] = {}
        self.acks_before_location = 0
        self.deletes_sent = 0
        self.retransmits_sent = 0

    def track(self, pid: int, size_flits: int) -> None:
        """Register a packet whose stash copy was dispatched."""
        if pid in self._records:
            raise RuntimeError(f"packet {pid} already tracked at port {self.port}")
        self._records[pid] = TrackerRecord(pid=pid, size_flits=size_flits)

    def on_location(
        self, pid: int, stash_port: int, location: int
    ) -> SidebandMessage | None:
        """Handle a location message; may immediately resolve a pending ACK."""
        record = self._records.get(pid)
        if record is None:
            raise RuntimeError(f"location for unknown packet {pid}")
        record.stash_port = stash_port
        record.location = location
        if record.ack_seen:
            return self._resolve(record)
        return None

    def on_ack(self, pid: int, positive: bool) -> SidebandMessage | None:
        """Handle the end-to-end ACK observed egressing to the endpoint."""
        record = self._records.get(pid)
        if record is None:
            # ACK for an untracked packet (e.g. a retransmission clone that
            # was re-tracked under a new pid, or baseline traffic).
            return None
        record.ack_seen = True
        record.ack_positive = positive
        if record.has_location:
            return self._resolve(record)
        self.acks_before_location += 1
        return None

    def _resolve(self, record: TrackerRecord) -> SidebandMessage:
        del self._records[record.pid]
        if record.ack_positive:
            self.deletes_sent += 1
            kind = SidebandKind.DELETE
        else:
            self.retransmits_sent += 1
            kind = SidebandKind.RETRANSMIT
        return SidebandMessage(
            kind=kind,
            dest_port=record.stash_port,
            pid=record.pid,
            stash_port=record.stash_port,
            location=record.location,
            origin_port=self.port,
        )

"""Conservation audit: a pure read, like :func:`~repro.obs.harvest`, of
the credit, flit and stash identities of a live network."""

from __future__ import annotations

from itertools import islice
from operator import itemgetter
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.network import Network

__all__ = ["ConservationError", "audit"]


class ConservationError(RuntimeError):
    """An identity of :func:`audit` does not hold: something was lost or made."""


def _balance(where: str, name: str, have: int, **terms: int) -> None:
    if have != sum(terms.values()):
        parts = " + ".join(f"{k.replace('_', ' ')} {v}" for k, v in terms.items())
        raise ConservationError(f"{where}: {name} {have} != {parts}")


def _check(where: str, space: Any, **terms: list[int]) -> None:
    """Per VC, committed space is the sum of ``terms``; running totals agree."""
    committed = space.committed
    if committed != list(map(sum, zip(*terms.values()))):
        for vc, have in enumerate(committed):
            _balance(f"{where} vc {vc}", "committed", have,
                     **{name: t[vc] for name, t in terms.items()})
    over = sum([c - r for c, r in zip(committed, space.reserves) if c > r])
    if (space.total_committed, space._shared_used) != (sum(committed), over):
        raise ConservationError(f"{where}: running totals disagree with {committed}")


def _channels(net: "Network") -> list[tuple]:
    """One ``(name, mirror, flit, credit, link_tx, input port)`` per wired mirror."""
    down = {id(ip.flit_in): ip for sw in net.switches for ip in sw.in_ports}
    ups = [(f"endpoint {ep.node}", ep.mirror, ep.flit_out, ep.credit_in, None)
           for ep in net.endpoints]
    ups += [(f"switch {sw.switch_id} out {op.idx}", op.mirror, op.flit_out,
             op.credit_in, op.link_tx) for sw in net.switches for op in sw.out_ports]
    return [up + (down[id(up[2])],) for up in ups if up[1] is not None]


def audit(net: "Network") -> dict[str, int]:
    """Return the in-flight tallies (all 0 once drained), or raise
    :class:`ConservationError` naming the component, VC and each term.

    Per link and VC, the upstream mirror commits what the downstream input
    buffer does, plus the flits owed on the wire (with the link protocol,
    the window entries not yet accepted), plus the credits queued back.
    A buffer commits what it queues or retains; ``inflight`` counts what a
    switch buffers or has yet to retrieve; stash counters match the packets
    held; a stored copy's location has one holder (tracker record,
    side-band message or paced retransmission).  Memory follows what is in
    flight: the message table holds undelivered messages only, and no
    endpoint keeps an empty send queue."""
    for name, mirror, flit, credit, tx, ip in _channels(net):
        n = mirror.num_vcs
        if tx is None:
            owed = list(map(itemgetter(0), map(itemgetter(1), flit._queue)))
        else:  # window seqs are consecutive: the unaccepted ones a suffix
            skip = ip.link_rx.expected - (tx.window[0][0] if tx.window else 0)
            owed = list(map(itemgetter(2), islice(tx.window, max(0, skip), None)))
        returning = [0] * n
        for _due, (vc, k) in credit._queue:
            if vc >= 0:  # vc -1 is link control
                returning[vc] += k
        _check(f"{name} mirror", mirror, downstream_buffer=ip.damq.space.committed,
               flits_on_the_wire=[owed.count(vc) for vc in range(n)],
               credits_returning=returning)
    inflight = committed = stored = outstanding = in_flight = 0
    for sw in net.switches:  # type: Any  # a StashingSwitch holds more state
        where = f"switch {sw.switch_id}"
        buffered = sum(tile.flit_count for row in sw.tiles for tile in row)
        for ip in sw.in_ports:
            queued = list(map(len, ip.damq.queues))
            _check(f"{where} in {ip.idx}", ip.damq.space, flits_queued=queued)
            buffered += sum(queued)
            if ip.retrieval is not None:
                pkt, emitted, _col, dup_col = ip.retrieval
                buffered += (pkt.size - emitted) * (2 if dup_col >= 0 else 1)
        for op in sw.out_ports:
            queued = list(map(len, op.out_damq.queues))
            retained = list(map(itemgetter(1), op.pending_release
                                if op.link_tx is None else op.link_tx.window))
            _check(f"{where} out {op.idx}", op.out_damq.space, flits_queued=queued,
                   flits_retained=[retained.count(vc) for vc in range(len(queued))])
            buffered += sum(queued) + op.col_flits + op.col_flits_s
        _balance(where, "inflight", sw.inflight, flits_buffered_or_to_retrieve=buffered)
        inflight += buffered
        if sw.stash_dir is None:
            continue
        copies = 0
        for part in sw.stash_dir.partitions:
            copies += len(part._entries)
            held = len(part._entries) + len(part._fifo)
            removed = part.deleted_total + part.retrieved_total
            _balance(f"{where} stash {part.port}", "stores", part.stored_total,
                     deleted_or_retrieved=removed, held=held)
            committed += part.committed_flits
            stored += held
        records = [r for t in sw.trackers.values() for r in t._records.values()]
        messages = sw.sideband.in_flight + len(sw._paced_retransmits)
        _balance(where, "stored copies", copies, located_tracker_records=sum(
            r.has_location for r in records), sideband_and_paced_messages=messages)
        outstanding += len(records)
        in_flight += messages
    _balance("network", "messages posted", net.messages_posted,
             by_endpoints=sum(ep.messages_posted for ep in net.endpoints))
    _balance("network", "messages posted", net.messages_posted,
             in_table=len(net.messages), delivered=net.messages_delivered)
    if any(m.delivered for m in net.messages.values()):
        raise ConservationError("network: a delivered message is still in the table")
    for ep in net.endpoints:
        if not all(ep.send_queues.values()):
            raise ConservationError(f"endpoint {ep.node}: holds an empty send queue")
        _balance(f"endpoint {ep.node}", "backlog", ep.backlog_flits,
                 send_queues=sum(p.size for q in ep.send_queues.values() for p in q))
    return {  # name-sorted
        "endpoint.nic.backlog_flits": sum(ep.backlog_flits for ep in net.endpoints),
        "endpoint.ordering.reorder_flits": sum(
            ep.reorder.used_flits for ep in net.endpoints if ep.reorder is not None),
        "network.messages.undelivered": len(net.messages),
        "switch.datapath.flits_in_flight": inflight,
        "switch.reliability.outstanding_packets": outstanding,
        "switch.sideband.messages_in_flight": in_flight,
        "switch.stash.committed_flits": committed,
        "switch.stash.stored_packets": stored,
    }

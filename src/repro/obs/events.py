"""Structured per-cycle event traces with sampling filters.

An :class:`EventTrace` collects fixed-shape records — one tuple per
event — that serialize to JSONL under the stable schema
documented in docs/OBSERVABILITY.md.  Collection sits behind cheap
filters (event allowlist, cycle window, per-event-type stride, and a
hard record cap) so a trace of a long run stays bounded.

The hot paths do not call into this module unconditionally: components
hold an ``obs`` attribute that is ``None`` unless tracing is enabled,
and every emit site is guarded by ``if self.obs is not None``.
"""

from __future__ import annotations

import json

__all__ = [
    "EVENT_TYPES",
    "EventTrace",
    "SCHEMA_FIELDS",
    "SCHEMA_VERSION",
    "trace_header_line",
    "trace_record_line",
]

#: Every event type the instrumented datapath can emit.
EVENT_TYPES = (
    "flit.inject",
    "packet.deliver",
    "stash.store",
    "stash.retrieve",
    "stash.evict",
    "credit.stall",
    "ecn.mark",
    "ecn.window_cut",
)

#: JSONL field order; every record carries exactly these fields.
SCHEMA_FIELDS = ("run", "cycle", "event", "sw", "port", "vc", "pid", "value")

#: Bumped whenever a field is added, removed, or reinterpreted.
SCHEMA_VERSION = 1


class EventTrace:
    """A bounded, filtered buffer of ``(cycle, event, sw, port, vc, pid,
    value)`` tuples.

    ``events`` restricts collection to an allowlist (empty = all types);
    ``start``/``stop`` bound the cycle window; ``stride`` keeps every
    N-th occurrence of each event type; ``max_records`` caps the buffer,
    counting overflow in :attr:`dropped` instead of growing.

    >>> t = EventTrace(events=("ecn.mark",), stride=2)
    >>> for c in range(4): t.emit(c, "ecn.mark", 1, 2, 0, 10 + c, 0)
    >>> t.emit(9, "flit.inject", -1, 0, 0, 99, 0)   # filtered out
    >>> [r[0] for r in t.records]
    [0, 2]
    """

    __slots__ = ("records", "dropped", "start", "stop", "stride",
                 "max_records", "_wanted", "_seen")

    def __init__(
        self,
        events: tuple[str, ...] = (),
        start: int = 0,
        stop: int | None = None,
        stride: int = 1,
        max_records: int = 1_000_000,
    ) -> None:
        for name in events:
            if name not in EVENT_TYPES:
                raise ValueError(
                    f"unknown event type {name!r}; expected one of {EVENT_TYPES}"
                )
        if stride < 1:
            raise ValueError("stride must be >= 1")
        if max_records < 1:
            raise ValueError("max_records must be >= 1")
        self.records: list[tuple] = []
        self.dropped = 0
        self.start = start
        self.stop = stop
        self.stride = stride
        self.max_records = max_records
        self._wanted = frozenset(events or EVENT_TYPES)
        self._seen = {name: 0 for name in EVENT_TYPES}

    def emit(
        self,
        cycle: int,
        event: str,
        sw: int,
        port: int,
        vc: int,
        pid: int,
        value: int | float,
    ) -> None:
        """Record one event, subject to the configured filters.

        ``sw`` is the switch id (``-1`` for NIC-level events, whose
        ``port`` field carries the node id instead); ``vc``/``pid`` are
        ``-1`` when not applicable; ``value`` is event-specific (see
        docs/OBSERVABILITY.md).
        """
        if event not in self._wanted:
            return
        if cycle < self.start or (self.stop is not None and cycle >= self.stop):
            return
        seen = self._seen[event]
        self._seen[event] = seen + 1
        if seen % self.stride:
            return
        if len(self.records) >= self.max_records:
            self.dropped += 1
            return
        self.records.append((cycle, event, sw, port, vc, pid, value))


def trace_header_line(run_count: int, dropped: int = 0) -> str:
    """The JSONL header row identifying the schema.

    >>> trace_header_line(2)
    '{"schema":"repro.obs.trace","version":1,"fields":["run","cycle","event","sw","port","vc","pid","value"],"runs":2,"dropped":0}'
    """
    return json.dumps(
        {
            "schema": "repro.obs.trace",
            "version": SCHEMA_VERSION,
            "fields": list(SCHEMA_FIELDS),
            "runs": run_count,
            "dropped": dropped,
        },
        separators=(",", ":"),
    )


def trace_record_line(run: str, record: tuple) -> str:
    """One JSONL data row for a trace record under run label ``run``.

    >>> trace_record_line("fig5:0.2", (7, "ecn.mark", 3, 1, 0, 42, 1))
    '{"run":"fig5:0.2","cycle":7,"event":"ecn.mark","sw":3,"port":1,"vc":0,"pid":42,"value":1}'
    """
    cycle, event, sw, port, vc, pid, value = record
    return json.dumps(
        {
            "run": run,
            "cycle": cycle,
            "event": event,
            "sw": sw,
            "port": port,
            "vc": vc,
            "pid": pid,
            "value": value,
        },
        separators=(",", ":"),
    )

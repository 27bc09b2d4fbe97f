"""Structured per-cycle event traces.

An :class:`EventTrace` collects fixed-shape records — one tuple per
event — that serialize to JSONL under the stable schema
documented in docs/OBSERVABILITY.md.  A hard record cap
(:data:`MAX_RECORDS`) keeps a trace of a long run bounded.

The hot paths do not call into this module unconditionally: components
hold an ``obs`` attribute that is ``None`` unless tracing is enabled,
and every emit site is guarded by ``if self.obs is not None``.
"""

from __future__ import annotations

import json

__all__ = [
    "EVENT_TYPES",
    "EventTrace",
    "MAX_RECORDS",
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


#: Records one trace buffers; later events are counted in ``dropped``.
MAX_RECORDS = 1_000_000


class EventTrace:
    """A bounded buffer of ``(cycle, event, sw, port, vc, pid, value)``
    tuples.

    Every emitted event is kept until the buffer holds
    :data:`MAX_RECORDS`; overflow is counted in :attr:`dropped` instead
    of growing.

    >>> t = EventTrace()
    >>> for c in range(3): t.emit(c, "ecn.mark", 1, 2, 0, 10 + c, 0)
    >>> t.emit(9, "flit.inject", -1, 0, 0, 99, 16)
    >>> [(r[0], r[1]) for r in t.records]
    [(0, 'ecn.mark'), (1, 'ecn.mark'), (2, 'ecn.mark'), (9, 'flit.inject')]
    >>> t.dropped
    0
    """

    __slots__ = ("records", "dropped")

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self.dropped = 0

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
        """Record one event, or count it as dropped once the buffer is
        full.

        ``event`` is one of :data:`EVENT_TYPES`; ``sw`` is the switch
        id (``-1`` for NIC-level events, whose ``port`` field carries
        the node id instead); ``vc``/``pid`` are ``-1`` when not
        applicable; ``value`` is event-specific (see
        docs/OBSERVABILITY.md).
        """
        if len(self.records) >= MAX_RECORDS:
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

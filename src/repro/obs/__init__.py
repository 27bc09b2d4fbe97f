"""Observability: harvested counters, structured event traces, timelines.

``repro.obs`` is the measurement layer of the simulator.  It is
**zero-overhead when off**: with :class:`~repro.engine.config.ObsParams`
disabled (the default) no observer, trace, or timeline object is ever
constructed, and the only cost left in the cycle loop is a handful of
``if obs is not None`` attribute checks at packet granularity.

Three instruments, by time scale:

* :func:`harvest` — end-of-run aggregates read off the component
  counters the datapath already maintains (works with observability
  off; costs nothing during the run).
* :class:`EventTrace` — per-cycle structured events (flit injections,
  stash store/retrieve/evict, credit stalls, ECN marks) behind sampling
  filters, exported as JSONL with a stable schema.
* :class:`Timeline` — periodic occupancy sampling per tile/port/switch,
  read by the ``port_occupancy`` probe (:mod:`repro.scenario.probes`).

See ``docs/OBSERVABILITY.md`` for the event taxonomy, naming
convention, trace schema, and the determinism contract for traces
merged across ``--jobs N`` worker processes.
"""

from repro.obs.conservation import ConservationError, audit
from repro.obs.events import (
    EVENT_TYPES,
    SCHEMA_FIELDS,
    SCHEMA_VERSION,
    EventTrace,
    trace_header_line,
    trace_record_line,
)
from repro.obs.observer import (
    NetworkObserver,
    ObsCapture,
    harvest,
    live_mark,
    merge_entries,
    merge_snapshots,
    take_captures,
)
from repro.obs.timeline import Timeline

__all__ = [
    "ConservationError",
    "EVENT_TYPES",
    "EventTrace",
    "NetworkObserver",
    "ObsCapture",
    "SCHEMA_FIELDS",
    "SCHEMA_VERSION",
    "Timeline",
    "audit",
    "harvest",
    "live_mark",
    "merge_entries",
    "merge_snapshots",
    "take_captures",
    "trace_header_line",
    "trace_record_line",
]

"""Per-network observers, picklable captures, and deterministic merging.

A :class:`NetworkObserver` is created by :class:`repro.network.Network`
when :class:`~repro.engine.config.ObsParams` is enabled.  It owns the
run's :class:`~repro.obs.events.EventTrace` (handed to the instrumented
components as their ``obs`` attribute); at capture time it reads
:func:`harvest` — the aggregate counters the datapath maintains anyway,
so counters cost nothing during the run.

Captures cross process boundaries: observers register themselves in a
process-local list, :func:`take_captures` drains it into picklable
:class:`ObsCapture` values, and the sweep executor
(:mod:`repro.engine.parallel`) attaches them to each
:class:`~repro.engine.parallel.RunOutcome` and logs them to a run log
keyed by ``(sweep sequence, spec index)``.  Merging sorts on that key —
never on completion order — which is what makes a merged ``--jobs N``
trace byte-identical to the serial one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.obs.events import EventTrace

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.config import ObsParams
    from repro.network import Network

__all__ = [
    "NetworkObserver",
    "ObsCapture",
    "harvest",
    "live_mark",
    "merge_entries",
    "merge_snapshots",
    "take_captures",
]


@dataclass(frozen=True)
class ObsCapture:
    """One network's observability output, as plain picklable data."""

    counters: dict = field(default_factory=dict)
    records: tuple = ()
    dropped: int = 0


class NetworkObserver:
    """The event trace and capture hook of one :class:`Network`."""

    def __init__(self, params: "ObsParams") -> None:
        self.trace = EventTrace() if params.trace else None
        self.net: "Network | None" = None

    def attach(self, net: "Network") -> None:
        """Bind to the network whose counters this observer harvests."""
        self.net = net
        _LIVE.append(self)

    def capture(self) -> ObsCapture:
        """Harvest the network's counters and freeze the trace buffer."""
        assert self.net is not None
        trace = self.trace
        return ObsCapture(
            counters=harvest(self.net),
            records=tuple(trace.records) if trace is not None else (),
            dropped=trace.dropped if trace is not None else 0,
        )


def harvest(net: "Network") -> dict[str, int]:
    """Every aggregate counter of ``net``, name-sorted — the one place
    that walks ports and endpoints (``Network.result``'s extras and
    :meth:`NetworkObserver.capture` both read it).

    A pure read of what the components keep for their own bookkeeping,
    renamed into the ``layer.component.metric`` scheme: nothing runs
    during the simulation, observability need not be enabled, and
    calling it twice returns equal dicts.  ``peak_`` values are maxima
    over their components, everything else a sum; the key set is the
    same for every network (absent subsystems read 0).

    >>> from repro import Network, tiny_preset
    >>> from repro.topology.single_switch import SingleSwitchTopology
    >>> cfg = tiny_preset()
    >>> net = Network(cfg, topology=SingleSwitchTopology(2, cfg.switch.num_ports))
    >>> _ = net.endpoints[0].post_message(1, 8, 0)  # 8 flits, +1 for the ACK
    >>> net.drain()
    True
    >>> counters = harvest(net)
    >>> [counters[name] for name in ("endpoint.nic.flits_generated",
    ...     "endpoint.nic.flits_injected", "switch.input.flits_received")]
    [8, 9, 9]
    >>> counters["network.messages.delivered"], counters["switch.datapath.flits_in_flight"]
    (1, 0)
    >>> harvest(net) == counters
    True
    """
    # imported here: repro.switch imports repro.obs.events at load time
    from repro.switch.stashing_switch import StashingSwitch

    eps = net.endpoints
    switches = net.switches
    ips = [ip for sw in switches for ip in sw.in_ports]
    ops = [op for sw in switches for op in sw.out_ports]
    rxs = [ip.link_rx for ip in ips if ip.link_rx is not None]
    txs = [op.link_tx for op in ops if op.link_tx is not None]
    stashing = [sw for sw in switches if isinstance(sw, StashingSwitch)]
    parts = [
        part
        for sw in switches
        if sw.stash_dir is not None
        for part in sw.stash_dir.partitions
    ]
    sim = net.sim
    counters = {
        "engine.sim.cycles": sim.cycle,
        "engine.sim.components": len(switches) + len(eps),
        # kernel self-telemetry: differs between kernels by design
        "engine.sim.steps": sim.steps,
        "engine.sim.wakes": sim.wakes,
        "engine.sim.stale_pops": sim.stale_pops,
        "engine.sim.skips": sim.skips,
        "network.messages.posted": net.messages_posted,
        "network.messages.delivered": net.messages_delivered,
        "endpoint.nic.flits_generated": sum(ep.flits_generated for ep in eps),
        "endpoint.nic.flits_injected": sum(ep.flits_injected for ep in eps),
        "endpoint.nic.flits_ejected": sum(ep.flits_ejected for ep in eps),
        "endpoint.nic.packets_delivered": sum(ep.packets_delivered for ep in eps),
        "endpoint.nic.packets_corrupted": sum(ep.packets_corrupted for ep in eps),
        "endpoint.nic.packets_reorder_dropped": sum(
            ep.packets_reorder_dropped for ep in eps
        ),
        "endpoint.nic.messages_posted": sum(ep.messages_posted for ep in eps),
        "endpoint.ecn.marked_acks": sum(ep.ecn.ecn_acks for ep in eps),
        "endpoint.ecn.window_cuts": sum(ep.ecn.window_cuts for ep in eps),
        "endpoint.ecn.throttled_destinations": sum(
            ep.ecn.throttled_destinations for ep in eps
        ),
        "switch.input.flits_received": sum(ip.flits_received for ip in ips),
        "switch.input.flits_sent": sum(ip.flits_sent for ip in ips),
        "switch.input.packets_marked": sum(ip.packets_marked for ip in ips),
        "switch.input.packets_diverted": sum(ip.packets_diverted for ip in ips),
        "switch.input.copies_dispatched": sum(ip.copies_dispatched for ip in ips),
        "switch.input.stalls_no_stash": sum(ip.stall_no_stash for ip in ips),
        "switch.output.flits_sent": sum(op.flits_sent for op in ops),
        "switch.output.credit_stalls": sum(op.credit_stalls for op in ops),
        "switch.damq.peak_committed_in": max(
            (ip.damq.peak_committed for ip in ips), default=0
        ),
        "switch.damq.peak_committed_out": max(
            (op.out_damq.peak_committed for op in ops), default=0
        ),
        "switch.tile.flits_switched": sum(
            tile.flits_switched for sw in switches for row in sw.tiles for tile in row
        ),
        "switch.datapath.flits_in_flight": sum(sw.inflight for sw in switches),
        "switch.link.flits_replayed": sum(tx.flits_replayed for tx in txs),
        "switch.link.nacks_received": sum(tx.nacks_received for tx in txs),
        "switch.link.flits_discarded": sum(rx.flits_discarded for rx in rxs),
        "switch.link.flits_accepted": sum(rx.flits_accepted for rx in rxs),
        "switch.stash.capacity_flits": sum(part.capacity for part in parts),
        "switch.stash.committed_flits": sum(part.committed_flits for part in parts),
        "switch.stash.stores": sum(part.stored_total for part in parts),
        "switch.stash.deletes": sum(part.deleted_total for part in parts),
        "switch.stash.retrieves": sum(part.retrieved_total for part in parts),
        "switch.stash.peak_committed": max(
            (part.peak_committed for part in parts), default=0
        ),
        "switch.stash.retransmits_issued": sum(
            sw.retransmits_issued for sw in stashing
        ),
        "switch.stash.deletes_applied": sum(sw.deletes_applied for sw in stashing),
        "switch.sideband.messages_sent": sum(
            sw.sideband.sent_total for sw in switches if sw.sideband is not None
        ),
    }
    return dict(sorted(counters.items()))


def merge_snapshots(snapshots: list[dict[str, int]]) -> dict[str, int]:
    """Combine per-run :func:`harvest` snapshots: counters sum, peaks
    take the max.

    >>> merge_snapshots([{"a.b.c": 1, "a.b.peak_x": 5},
    ...                  {"a.b.c": 2, "a.b.peak_x": 3}])
    {'a.b.c': 3, 'a.b.peak_x': 5}

    High-water marks are recognized by a ``peak_`` prefix on the metric
    segment.
    """
    merged: dict[str, int] = {}
    for snap in snapshots:
        for name, value in snap.items():
            if name not in merged:
                merged[name] = value
            elif name.rsplit(".", 1)[-1].startswith("peak_"):
                merged[name] = max(merged[name], value)
            else:
                merged[name] += value
    return {k: merged[k] for k in sorted(merged)}


# -- process-local capture plumbing ------------------------------------

_LIVE: list[NetworkObserver] = []


def live_mark() -> int:
    """Bookmark the live-observer list (see :func:`take_captures`)."""
    return len(_LIVE)


def take_captures(since: int = 0) -> list[ObsCapture]:
    """Drain observers registered at or after bookmark ``since``.

    The sweep executor brackets each point with ``live_mark()`` /
    ``take_captures(mark)`` so a point only collects the networks *it*
    built; code that builds an observed network outside any sweep drains
    it with the default ``since=0``.
    """
    taken = _LIVE[since:]
    del _LIVE[since:]
    return [obs.capture() for obs in taken]


def merge_entries(entries: list[tuple[str, ObsCapture]]) -> list[str]:
    """Render labelled captures as JSONL lines (header first).

    ``entries`` must already be in deterministic order — (sweep
    sequence, spec index) for pooled points, construction order for
    in-process networks.  Records within a capture keep emit order.
    """
    from repro.obs.events import trace_header_line, trace_record_line

    dropped = sum(cap.dropped for _run, cap in entries)
    lines = [trace_header_line(len(entries), dropped)]
    for run, cap in entries:
        for record in cap.records:
            lines.append(trace_record_line(run, record))
    return lines

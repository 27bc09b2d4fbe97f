"""Flow-level fastpath engine: fluid bandwidth allocation over the
scenario topology.

Where the cycle engine moves individual flits through a modelled switch
microarchitecture, :class:`FlowEngine` treats traffic as fluid flows and
solves for the steady state directly:

* **Topology graph** — the *same* topology objects the cycle engine
  wires (:mod:`repro.topology`), flattened into directed unit-capacity
  links (injection, ejection, local, global).  Routes are minimal,
  walked one hop per numpy pass for every switch pair at once; the
  fat-tree splits flows evenly across spines (fluid ECMP).
* **Max-min fair sharing** — progressive filling: all unfrozen flows
  share one water level, which rises until a link saturates or a flow
  reaches its demand, the allocation a fair per-flit arbiter converges
  to.  Run to completion: every flow ends at its demand or on a full
  link.
* **ACK background traffic** — the cycle engine acknowledges every
  delivered data packet with a priority single-flit ACK on the reverse
  path, so each link's data capacity is derated by the ACK load it
  carries (``rate / msg_flits`` per crossing flow).  Solved as a damped
  fixed point alongside the allocation.
* **Stash as a fluid buffer pool** — with end-to-end reliability each
  source switch holds a retransmission copy of every in-flight packet,
  so Little's law bounds its endpoints' aggregate rate:
  ``sum(rate_f * rtt_f) <= stash_pool_flits``.  The pool is a virtual
  link whose per-flow consumption coefficient is the flow's round-trip
  time — the same arithmetic as :mod:`repro.analysis.littles_law`, per
  switch instead of averaged, and the RTT includes the queueing delay
  of the current allocation (congestion inflates RTT, which tightens
  the pool, which throttles injection — the feedback loop behind the
  stash-variant throughput curves).
* **ECN as coarse time-stepped window dynamics** — each traffic class
  carries one fluid congestion window; every step the allocation is
  re-solved under ``rate <= window / rtt`` caps, then windows do
  multiplicative decrease (times ``window_decrease``) when a route link
  exceeds the congestion threshold and additive recovery otherwise.
  The reported numbers average the post-convergence tail of the steps.

The flow table is a set of numpy arrays built once per run (flows in
source-switch, destination, route order): float64 values, int32 for
the per-flow index columns and the link-to-flow map (:data:`Gathers`),
intp for the rest (the CSR, the per-flow ACK link counts ``acks``);
per-flow values reach their entries by ``np.repeat``.  The solver sums
only by sequential ``bincount`` / ``cumsum`` in input order;
``_summarise`` sums the loads and weighted latency means pairwise
(``ndarray.sum()``), as fixed an order but not a sequential one.  Sorts
are stable, nothing calls into BLAS, and no RNG, dict order or thread
count is read, so results are a pure function of the
:class:`~repro.scenario.spec.ScenarioSpec`, hence byte-identical for
any ``--jobs`` value.

Accuracy envelope (measured by :mod:`repro.analysis.crosscheck`; see
docs/FASTPATH.md): mean throughput within 10 % of the cycle engine on
the cross-validation presets; latency is trend-level only.  Transient
time-series experiments (fig7/fig8), trace replay (fig6), and
microarchitecture probes (occupancy, placement/speedup ablations)
remain cycle-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np
from numpy.typing import NDArray

from repro.engine.base import EngineResult, EngineUnsupported, GroupStats
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.fattree import FatTreeTopology
from repro.topology.single_switch import SingleSwitchTopology

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.config import NetworkConfig
    from repro.scenario.spec import ScenarioSpec
    from repro.topology.topology import Topology

__all__ = ["FlowEngine"]

Floats = NDArray[np.float64]
Ints = NDArray[np.intp]
#: an int32 index column; bincount inputs and the entry-sized indices the
#: solver gathers through every step stay intp (docs/FASTPATH.md, Memory)
Gathers = NDArray[np.int32]

#: per-switch-traversal pipeline cost (route + arbitration + crossbar),
#: calibrated against the cycle engine's zero-load latency
_HOP_CYCLES = 5.0

#: link utilization above which the fluid model reports ECN congestion
#: (occupancy thresholds only bind near saturation in steady state)
_ECN_UTILIZATION = 0.95

#: solver steps: ECN window dynamics need the longer schedule; plain
#: ack/rtt fixed points converge in a few damped iterations
_ECN_STEPS = 48
_FP_STEPS = 12

_EPS = 1e-12


class _LinkTable:
    """Directed links with capacities, addressed by stable string keys."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self.caps: list[float] = []

    def add(self, key: str, capacity: float) -> int:
        if key in self._ids:
            raise ValueError(f"duplicate link {key!r}")
        self._ids[key] = len(self.caps)
        self.caps.append(capacity)
        return self._ids[key]

    def ensure(self, key: str, capacity: float) -> int:
        if key not in self._ids:
            return self.add(key, capacity)
        return self._ids[key]


def _ragged(ptr: Ints, rows: Ints) -> Ints:
    """The index ranges ``ptr[r]:ptr[r + 1]`` of each row, concatenated."""
    starts = ptr[rows]
    lens = ptr[rows + 1] - starts
    ends = np.cumsum(lens)
    out = np.repeat(starts - (ends - lens), lens)
    out += np.arange(len(out))
    return out


def _entry_values(ptr: Ints, rows: Ints, values: Floats) -> Floats:
    """``values[r]`` for each index of ``_ragged(ptr, rows)``, in order."""
    return values[rows].repeat(ptr[rows + 1] - ptr[rows])


def _next_ports(topo: "Topology") -> Ints:
    """The minimal next output port by ``(choice, current switch,
    destination switch)``, -1 where no route passes: one choice on a
    dragonfly or a single switch, one per spine (fluid ECMP) on a
    fat-tree."""
    n = topo.num_switches
    if isinstance(topo, SingleSwitchTopology):
        return np.full((1, n, n), -1, dtype=np.intp)
    if isinstance(topo, FatTreeTopology):
        leaves = topo.num_leaves
        table = np.full((topo.num_spines, n, n), -1, dtype=np.intp)
        for k in range(topo.num_spines):
            for leaf in range(leaves):
                table[k, leaf] = topo.uplink_port(leaf, k)
                table[:, leaves + k, leaf] = topo.downlink_port(leaves + k, leaf)
        return table
    if isinstance(topo, DragonflyTopology):
        group = np.array([topo.group_of(s) for s in range(n)], dtype=np.intp)
        to_group = np.array([
            [-1 if t == g else topo.route_to_group(s, t) for t in range(topo.g)]
            for s, g in enumerate(group.tolist())
        ], dtype=np.intp)
        table = to_group[:, group]
        same = group[:, None] == group
        np.fill_diagonal(same, False)
        for s, peer in np.argwhere(same).tolist():
            table[s, peer] = topo.local_port(s, peer)
        return table[None]
    raise EngineUnsupported(
        f"flow engine has no routes for {type(topo).__name__}"
    )


@dataclass(frozen=True)
class _Incidence:
    """Which links each flow crosses, in CSR form both ways round."""

    #: flow ``f`` owns entries ``flow_ptr[f]:flow_ptr[f + 1]``
    flow_ptr: Ints
    entry_flow: Ints
    entry_link: Ints
    #: the flows of link ``l``'s entries, in entry order:
    #: ``link_flow[link_ptr[l]:link_ptr[l + 1]]``
    link_ptr: Ints
    link_flow: Gathers

    @classmethod
    def build(
        cls, entries_per_flow: Ints, entry_link: Ints, n_links: int
    ) -> "_Incidence":
        zero = np.zeros(1, dtype=np.intp)
        per_link = np.bincount(entry_link, minlength=n_links)
        entry_flow = np.repeat(
            np.arange(len(entries_per_flow)), entries_per_flow
        )
        # stable: one order in any dtype that holds the ids (uint16: radix)
        narrow = entry_link.astype(np.min_scalar_type(n_links))
        by_link = entry_flow[np.argsort(narrow, kind="stable")]
        return cls(
            flow_ptr=np.concatenate((zero, np.cumsum(entries_per_flow))),
            entry_flow=entry_flow,
            entry_link=entry_link,
            link_ptr=np.concatenate((zero, np.cumsum(per_link))),
            link_flow=by_link.astype(np.int32),
        )


def _maxmin(
    inc: _Incidence, entry_weight: Floats, caps: Floats, demand_caps: Floats
) -> Floats:
    """Progressive-filling max-min fair allocation, run to completion.

    Returns the per-unit rate of each flow.  ``demand_caps`` bounds each
    flow's per-unit rate; link ``l`` constrains the sum over its entries
    of ``entry_weight * rate`` to ``caps[l]``.

    All unfrozen flows sit at one water level, so link ``l`` fills at
    level ``(caps[l] - frozen load) / (unfrozen entry weight)``.  Each
    round either freezes, at their demands, the flows whose demand comes
    before the first such level, or freezes the flows of the link(s) at
    that level.  A link stops constraining when its *integer* count of
    unfrozen entries reaches zero, so the float residue its weight sum
    keeps after subtraction is never compared against anything.  It
    stops at the freeze that empties the active set.
    """
    n_links = len(caps)
    alloc = np.zeros(len(demand_caps))
    order = np.argsort(demand_caps, kind="stable")
    sorted_caps = demand_caps[order]
    # flows with no demand stay at zero: they sort first
    done = int(np.searchsorted(sorted_caps, _EPS, side="right"))
    active = demand_caps > _EPS
    remaining = len(order) - done
    live_links, live_weight = inc.entry_link, entry_weight
    link_count = np.diff(inc.link_ptr)  # every entry is live
    if done:
        live = np.repeat(active, np.diff(inc.flow_ptr))
        live_links, live_weight = live_links[live], live_weight[live]
        link_count = np.bincount(live_links, minlength=n_links)
    link_weight = np.bincount(live_links, live_weight, minlength=n_links)
    del live_links, live_weight
    frozen_load = np.zeros(n_links)
    while remaining:
        fill = np.full(n_links, math.inf)
        np.divide(
            caps - frozen_load, link_weight, out=fill, where=link_count > 0
        )
        level = max(float(fill.min(initial=math.inf)), 0.0)
        upto = int(np.searchsorted(sorted_caps, level + _EPS, side="right"))
        if upto > done:
            flows = order[done:upto]
            flows = flows[active[flows]]
            done = upto
            alloc[flows] = demand_caps[flows]
        else:
            # saturated: fills at this round's level to _EPS in rate units
            full = np.flatnonzero(fill <= level + _EPS)
            # their entries' flows, widened once: they index below
            flows = inc.link_flow[_ragged(inc.link_ptr, full)].astype(np.intp)
            flows = np.sort(flows[active[flows]])
            # once each, though a flow may cross two links filling together
            flows = flows[np.diff(flows, prepend=-1) > 0]
            alloc[flows] = level
        active[flows] = False
        remaining -= len(flows)
        if not remaining:
            break  # the link sums below feed only a next round's fill
        gone = _ragged(inc.flow_ptr, flows)
        links, weight = inc.entry_link[gone], entry_weight[gone]
        del gone
        link_weight -= np.bincount(links, weight, minlength=n_links)
        link_count -= np.bincount(links, minlength=n_links)
        weight *= _entry_values(inc.flow_ptr, flows, alloc)
        frozen_load += np.bincount(links, weight, minlength=n_links)
    return alloc


def _weighted_percentiles(
    values: Floats, weights: Floats, pcts: Sequence[float]
) -> list[float]:
    """Nearest-rank percentiles of weighted samples."""
    if not len(values):
        return [math.nan] * len(pcts)
    order = np.argsort(values, kind="stable")
    acc = np.cumsum(weights[order])
    targets = np.array(pcts) / 100.0 * acc[-1] - _EPS
    ranks = np.searchsorted(acc, targets, side="left")
    return values[order[np.minimum(ranks, len(order) - 1)]].tolist()


@dataclass(frozen=True)
class _FlowTable:
    """Every aggregated fluid flow of a run, one array element each: a
    flow is ``weight`` unit sources on one switch sharing a route, each
    offering ``demand`` flits/cycle."""

    #: links crossed, the source switch's stash pool (if any) last
    inc: _Incidence
    weight: Floats
    demand: Floats
    base_latency: Floats
    msg_flits: Floats
    klass: Gathers  # ECN window class index
    group: Gathers  # index into ``groups``
    #: virtual stash-pool link (consumed at coefficient rtt), or -1
    stash_link: Gathers
    #: per flow, its ACKs' link count; those links and their ACK-rate share ...
    acks: Ints
    ack_link: Ints
    ack_share: Floats
    #: ... and, per injection link, the ejection channels that take a
    #: share of the ACKs of every flow through it
    member_inj: Ints
    member_eject: Ints
    member_share: Floats
    caps: Floats
    classes: tuple[str, ...]
    groups: tuple[str, ...]


class _FlowBuilder:
    """Capacity graph and flow table for one run, emitted a traffic
    class at a time."""

    _COLUMNS = (
        "entries_per_flow", "entry_link", "weight", "demand", "base_latency",
        "msg_flits", "klass", "group", "stash_link", "acks", "ack_link",
        "ack_share", "member_inj", "member_eject", "member_share",
    )

    def __init__(self, topo: "Topology", cfg: "NetworkConfig") -> None:
        self.topo = topo
        self.links = links = _LinkTable()
        #: per (switch, port): its link and far-end switch (each -1 if
        #: none) and its channel latency
        shape = (topo.num_switches, topo.num_ports)
        self.port_link = np.full(shape, -1, dtype=np.intp)
        self.port_peer = np.full(shape, -1, dtype=np.intp)
        self.port_latency = np.zeros(shape)
        # one directed unit-capacity link per wired switch port
        for s in range(topo.num_switches):
            for spec in topo.switch_ports(s):
                at = s, spec.port
                if spec.link_class in ("local", "global"):
                    self.port_link[at] = links.add(f"l:{s}.{spec.port}", 1.0)
                if spec.peer is not None and spec.peer[0] == "switch":
                    self.port_peer[at] = spec.peer[1]
                self.port_latency[at] = spec.latency
        self.next_port = _next_ports(topo)
        nodes = range(topo.num_nodes)
        self.node_switch = np.array(
            [topo.node_switch(u) for u in nodes], dtype=np.intp
        )
        self.node_latency = np.array([
            float(topo.port_spec(topo.node_switch(u), topo.node_port(u)).latency)
            for u in nodes
        ])
        self.eject = np.array(
            [links.add(f"ej:{u}", 1.0) for u in nodes], dtype=np.intp
        )
        #: node -> its class injection link (for ACK contention), or -1
        #: until a class sourcing from the node's switch has been emitted
        self.node_inj = np.full(topo.num_nodes, -1, dtype=np.intp)
        self.pool = np.full(topo.num_switches, -1, dtype=np.intp)
        if cfg.reliability.enabled and cfg.stash.enabled:
            self._add_stash_pools(cfg)
        self.classes: list[str] = []
        self.groups: list[str] = []
        self.n_flows = 0
        self._chunks: dict[str, list[NDArray]] = {c: [] for c in self._COLUMNS}

    def _add_stash_pools(self, cfg: "NetworkConfig") -> None:
        """Bound each source switch's in-flight flits by its stash pool:
        ``sum(rate * rtt) <= pool`` (Little's law), encoded as a virtual
        link consumed at coefficient ``rtt`` per unit rate."""
        st = cfg.stash
        pooled = cfg.switch.input_buffer_flits + cfg.switch.output_buffer_flits
        for s in range(self.topo.num_switches):
            pool = 0.0
            for pspec in self.topo.switch_ports(s):
                if pspec.link_class in ("endpoint", "local", "global"):
                    pool += st.fraction_for(pspec.link_class) * pooled
            pool *= st.capacity_scale
            if pool > 0.0:
                self.pool[s] = self.links.add(f"stash:{s}", pool)

    # ------------------------------------------------------------------
    # routes and flow construction
    # ------------------------------------------------------------------

    def _route_tables(
        self, src: Ints, dst: Ints
    ) -> tuple[Ints, Ints, Floats, Floats, Ints, Floats]:
        """Each switch pair's routes, one per next-port choice, walked a
        hop per pass for every pair both ways at once: pair ``i`` owns
        rows ``ptr[i]:ptr[i + 1]`` of the forward tables (hop links
        padded with -1, hop latency, switch count) and row ``i`` of the
        reverse ones (every reverse route's links, a slot per choice,
        and the share of the ACKs each route carries)."""
        choices = len(self.next_port)
        splits = np.where(src == dst, 1, choices)
        ptr = np.concatenate(([0], np.cumsum(splits)))
        pair = np.repeat(np.arange(len(src)), splits)
        choice = np.arange(len(pair)) - ptr[pair]
        n = len(pair)  # forward rows, then the same rows reversed
        via = np.concatenate((choice, choice))
        at = np.concatenate((src[pair], dst[pair]))
        goal = np.concatenate((dst[pair], src[pair]))
        latency = np.zeros(2 * n)
        hops: list[Ints] = []
        live = np.flatnonzero(at != goal)
        while len(live):
            if len(hops) == 8:  # minimal dragonfly paths are <= 3 hops
                raise EngineUnsupported(
                    "flow routing failed to converge on this topology"
                )
            cur = at[live]
            port = self.next_port[via[live], cur, goal[live]]
            peer = self.port_peer[cur, port]
            assert (peer >= 0).all()
            hop = np.full(2 * n, -1, dtype=np.intp)
            hop[live] = self.port_link[cur, port]
            hops.append(hop)
            latency[live] += self.port_latency[cur, port]
            at[live] = peer
            live = live[peer != goal[live]]
        table = np.array(hops, dtype=np.intp).reshape(len(hops), 2 * n).T
        back = np.full((len(src), choices, len(hops)), -1, dtype=np.intp)
        back[pair, choice] = table[n:]
        return (
            ptr, table[:n], latency[:n], (table[:n] >= 0).sum(axis=1) + 1.0,
            back.reshape(len(src), -1), 1.0 / splits,
        )

    def spread(
        self, nodes: Sequence[int], dsts: Sequence[int], rate: float,
        fanout: int, msg_flits: int, group: str, name: str,
        outstanding_flits: int | None = None,
    ) -> None:
        """Traffic class ``name``: each of ``nodes`` sends ``rate``
        spread evenly over ``fanout`` of the ``dsts`` (all of them but
        itself).  Emits one flow per (source switch, destination node,
        route), in that order; fat-trees get one per ECMP spine split.

        ACKs for a flow ride the reverse path back to the source
        members: the destination's injection channel (when it also
        sources data, see below), the reverse switch hops, and the
        members' ejection channels.
        """
        if rate <= 0.0 or not nodes or fanout < 1:
            return
        if name not in self.classes:
            self.classes.append(name)
        if group not in self.groups:
            self.groups.append(group)
        home, n_switches = self.node_switch, self.topo.num_switches
        senders = np.asarray(nodes, dtype=np.intp)
        targets = np.asarray(dsts, dtype=np.intp)
        sends = np.zeros(len(home), dtype=bool)
        sends[senders] = True
        size = np.bincount(home[senders], minlength=n_switches)
        sources = np.flatnonzero(size)
        first_new = len(self.links.caps)
        inj_of = np.full(n_switches, -1, dtype=np.intp)
        for a in sources.tolist():
            inj_of[a] = self.links.ensure(f"inj:{name}:{a}", float(size[a]))
        sender_inj = inj_of[home[senders]]
        fresh = sender_inj >= first_new  # not a class name seen before

        # one row per (source switch, destination) with a sender to serve it
        src = np.repeat(sources, len(targets))
        dst = np.tile(targets, len(sources))
        weight = (size[src] - (sends[dst] & (home[dst] == src))).astype(float)
        served = weight > 0
        src, dst, weight = src[served], dst[served], weight[served]
        # a destination's injection link is charged for its ACKs only if
        # its class was registered by the time the source switch is
        # visited, and switches are visited in ascending order
        dst_inj = np.where(
            sends[dst] & (home[dst] <= src), inj_of[home[dst]],
            self.node_inj[dst],
        )
        self.node_inj[senders] = sender_inj

        # route tables over the switch pairs in use, indexed by ``via``
        # (np.unique with return_inverse, minus its numpy.ma import)
        pair = src * n_switches + home[dst]
        used = np.zeros(n_switches * n_switches, dtype=bool)
        used[pair] = True
        via = (np.cumsum(used) - 1)[pair]
        fwd_ptr, hops, path_latency, path_switches, back_hops, back_share = (
            self._route_tables(*np.divmod(np.flatnonzero(used), n_switches))
        )

        def latency(node: Ints, path: Ints) -> Floats:
            return (
                self.node_latency[node] * 2.0  # injection + ejection channels
                + path_latency[path]
                + path_switches[path] * _HOP_CYCLES
                + float(msg_flits)
            )

        demand = np.full(len(dst), rate / fanout)
        if outstanding_flits is not None:
            # closed loop: at most outstanding_flits in flight per
            # source, spread over its destinations; rtt of the first route
            rtt = 2.0 * latency(dst, fwd_ptr[via])
            demand = np.minimum(demand, outstanding_flits / rtt / fanout)
        splits = fwd_ptr[via + 1] - fwd_ptr[via]
        row = np.repeat(np.arange(len(dst)), splits)  # flow -> (src, dst) row
        route = _ragged(fwd_ptr, via)
        n = len(route)
        pool = self.pool[src[row]]
        crossed = np.column_stack(
            (inj_of[src[row]], hops[route], self.eject[dst[row]], pool)
        )
        acked = np.column_stack((dst_inj[row], back_hops[via[row]]))
        ack_share = np.column_stack((np.ones(n), np.broadcast_to(
            back_share[via[row], None], (n, back_hops.shape[1])
        )))
        put = self._chunks
        put["entries_per_flow"].append((crossed >= 0).sum(axis=1))
        put["entry_link"].append(crossed[crossed >= 0])
        put["weight"].append((weight * (1.0 / splits))[row])
        put["demand"].append(demand[row])
        put["base_latency"].append(latency(dst[row], route))
        put["msg_flits"].append(np.full(n, float(msg_flits)))
        put["klass"].append(np.full(n, self.classes.index(name), dtype=np.int32))
        put["group"].append(np.full(n, self.groups.index(group), dtype=np.int32))
        put["stash_link"].append(pool.astype(np.int32))
        put["acks"].append((acked >= 0).sum(axis=1))
        put["ack_link"].append(acked[acked >= 0])
        put["ack_share"].append(ack_share[acked >= 0])
        # every flow through an injection link also sends its ACKs, in
        # equal shares, down the ejection channels of the link's members
        put["member_inj"].append(sender_inj[fresh])
        put["member_eject"].append(self.eject[senders][fresh])
        put["member_share"].append(1.0 / size[home[senders]][fresh])
        self.n_flows += n

    def table(self) -> _FlowTable:
        """The finished flow table (call once: it consumes the chunks)."""
        col: dict[str, Any] = {
            c: np.concatenate(self._chunks.pop(c)) for c in self._COLUMNS
        }
        inc = _Incidence.build(
            col.pop("entries_per_flow"), col.pop("entry_link"),
            len(self.links.caps),
        )
        return _FlowTable(
            inc=inc, caps=np.array(self.links.caps),
            classes=tuple(self.classes), groups=tuple(self.groups), **col,
        )


class FlowEngine:
    """Flow-level fastpath behind the Engine protocol."""

    name = "flow"
    reads_seed = False

    def run(self, spec: "ScenarioSpec") -> EngineResult:
        """Solve the scenario's fluid steady state and aggregate stats
        in the shared :class:`EngineResult` schema."""
        from repro.scenario.spec import build_topology

        if spec.probes:
            raise EngineUnsupported(
                f"flow engine cannot record probes {list(spec.probes)}: "
                "a steady-state solve has no time series to sample"
            )
        cfg = spec.resolved_config()
        topo, cfg = build_topology(spec, cfg)
        if topo is None:
            topo = DragonflyTopology(cfg.dragonfly, cfg.switch.num_ports)
        table = self._flow_table(spec, cfg, topo)
        if table is None:
            return self._empty_result(cfg)
        alloc, util, qdelay = self._solve(cfg, table)
        return self._summarise(cfg, topo, table, alloc, util, qdelay)

    def _flow_table(
        self, spec: "ScenarioSpec", cfg: "NetworkConfig", topo: "Topology"
    ) -> _FlowTable | None:
        """The scenario's traffic as fluid flows, or ``None`` if it
        offers no load."""
        from repro.scenario.spec import (
            HotspotTraffic,
            UniformAggressorTraffic,
            UniformTraffic,
        )

        total = topo.num_nodes
        everyone = range(total)
        flows = _FlowBuilder(topo, cfg)
        for traffic in spec.traffic:
            if isinstance(traffic, UniformTraffic):
                msg = traffic.msg_flits or cfg.switch.max_packet_flits
                flows.spread(
                    everyone, everyone, traffic.rate, total - 1,
                    msg_flits=msg, group="", name="uniform",
                )
            elif isinstance(traffic, HotspotTraffic):
                msg = cfg.switch.max_packet_flits
                num_hot = traffic.num_hotspots
                if num_hot is None:
                    num_hot = max(1, round(total * 12 / 3080))
                n_aggr = num_hot * traffic.oversubscription
                if n_aggr + num_hot >= total:
                    raise EngineUnsupported(
                        "network too small for this hotspot configuration"
                    )
                hot = range(total - num_hot, total)
                aggr = range(total - num_hot - n_aggr, total - num_hot)
                victims = range(total - num_hot - n_aggr)
                flows.spread(
                    victims, everyone, traffic.victim_rate, total - 1,
                    msg_flits=msg, group="victim", name="victim",
                )
                flows.spread(
                    aggr, hot, 1.0, len(hot),
                    msg_flits=msg, group="aggressor", name="aggressor",
                )
            elif isinstance(traffic, UniformAggressorTraffic):
                msg = cfg.switch.max_packet_flits
                half = total // 2
                flows.spread(
                    range(half), everyone, traffic.victim_rate, total - 1,
                    msg_flits=msg, group="victim", name="victim",
                )
                # closed-loop burst source: two messages outstanding, so
                # its open-loop equivalent demand is window / rtt
                flows.spread(
                    range(half, total), everyone, 1.0, total - 1,
                    msg_flits=traffic.burst_flits, group="aggressor",
                    name="aggressor",
                    outstanding_flits=2 * traffic.burst_flits,
                )
            else:
                raise EngineUnsupported(
                    f"flow engine cannot model traffic {traffic!r}"
                )

        return flows.table() if flows.n_flows else None

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------

    def _solve(
        self, cfg: "NetworkConfig", t: _FlowTable
    ) -> tuple[Floats, Floats, Floats]:
        """Damped fixed point over (allocation, ACK load, queueing RTT),
        with the ECN window schedule layered on when ECN is enabled.

        Returns per-unit allocations, per-link utilizations and the
        per-flow queueing delays of the last step.
        """
        ecn = cfg.ecn
        steps = _ECN_STEPS if ecn.enabled else _FP_STEPS
        keep_from = steps - max(1, steps // 4)
        inc, n_links = t.inc, len(t.caps)
        windows = np.full(len(t.classes), float(ecn.window_max_flits))
        # only the stash entries' coefficients (rtt) change between steps
        pooled = np.flatnonzero(t.stash_link >= 0)
        pool_entry = inc.flow_ptr[pooled + 1] - 1
        pool_of = t.stash_link[pooled]
        flow_inj = inc.entry_link[inc.flow_ptr[:-1]]  # a flow's first link
        per_flow = np.diff(inc.flow_ptr)  # entries per flow, for np.repeat
        rtt = 2.0 * t.base_latency
        ack_load = np.zeros(n_links)
        buffer_cap = float(cfg.switch.input_buffer_flits)
        tail: list[Floats] = []
        for step in range(steps):
            entry_weight = np.repeat(t.weight, per_flow)
            entry_weight[pool_entry] = t.weight[pooled] * rtt[pooled]
            demand_caps = t.demand
            if ecn.enabled:
                demand_caps = np.minimum(demand_caps, windows[t.klass] / rtt)
            alloc = _maxmin(
                inc, entry_weight, np.maximum(_EPS, t.caps - ack_load),
                demand_caps,
            )
            del entry_weight  # not held under the queueing and ACK passes
            # total (data + ACK) load per link under this allocation; a
            # stash pool is a constraint, not a channel: no load, no queue
            rate = t.weight * alloc
            util = (ack_load + np.bincount(
                inc.entry_link, np.repeat(rate, per_flow), minlength=n_links
            )) / t.caps
            util[pool_of] = 0.0
            # queueing delay -> damped RTT update (feeds the stash pool
            # coefficients and the ECN window caps next step)
            rho = np.minimum(util, 0.999999)
            wait = 0.5 * rho / (1.0 - rho)
            queued = wait[inc.entry_link]
            queued *= np.repeat(t.msg_flits, per_flow)
            np.minimum(queued, buffer_cap, out=queued)
            qdelay = np.bincount(inc.entry_flow, queued, minlength=len(alloc))
            del queued
            rtt = 0.5 * rtt + 0.5 * (2.0 * (t.base_latency + qdelay))
            # next step's ACK background load (priority traffic)
            ack_rate = rate / t.msg_flits
            per_inj = np.bincount(flow_inj, ack_rate, minlength=n_links)
            ack_load = np.bincount(
                t.ack_link, np.repeat(ack_rate, t.acks) * t.ack_share,
                minlength=n_links,
            ) + np.bincount(
                t.member_eject, per_inj[t.member_inj] * t.member_share,
                minlength=n_links,
            )
            if ecn.enabled:
                hot = (util >= _ECN_UTILIZATION)[inc.entry_link]
                congested = np.zeros(len(windows), dtype=bool)
                congested[np.repeat(t.klass, per_flow)[hot]] = True
                windows = np.where(
                    congested,
                    np.maximum(float(ecn.window_min_flits),
                               windows * ecn.window_decrease),
                    np.minimum(float(ecn.window_max_flits),
                               windows + float(ecn.recovery_flits)),
                )
            if step >= keep_from:
                tail.append(alloc)
        return sum(tail[1:], tail[0]) / len(tail), util, qdelay

    # ------------------------------------------------------------------
    # result assembly
    # ------------------------------------------------------------------

    def _summarise(
        self, cfg: "NetworkConfig", topo: "Topology", t: _FlowTable,
        alloc: Floats, util: Floats, qdelay: Floats,
    ) -> EngineResult:
        nodes = max(1, topo.num_nodes)
        sim = cfg.sim
        rate = t.weight * alloc
        latency = t.base_latency + qdelay
        sample_weight = np.maximum(rate, _EPS)
        pkt_rate = rate / t.msg_flits

        def stats(pick: "slice | NDArray[np.bool_]") -> GroupStats:
            lat, w = latency[pick], sample_weight[pick]
            p50, p90, p99 = _weighted_percentiles(lat, w, (50, 90, 99))
            # summed in flow order (cumsum), as a Python loop would: the
            # count truncates a product that is an exact integer below
            # saturation, and a pairwise sum rounds to the other side of
            # it on a third of a load grid
            packets = float(np.cumsum(pkt_rate[pick])[-1])
            return GroupStats(
                count=int(packets * sim.measure_cycles),
                mean=float((lat * w).sum() / w.sum()),
                p50=p50, p90=p90, p99=p99, max=float(lat.max()),
            )

        overall = stats(slice(None))
        return EngineResult(
            engine=self.name,
            offered_load=float((t.weight * t.demand).sum()) / nodes,
            accepted_load=float(rate.sum()) / nodes,
            avg_latency=overall.mean,
            p90_latency=overall.p90,
            p99_latency=overall.p99,
            max_latency=overall.max,
            packets_measured=overall.count,
            cycles=sim.warmup_cycles + sim.measure_cycles,
            groups=tuple(
                (name, stats(t.group == t.groups.index(name)))
                for name in sorted(t.groups) if name
            ),
            extras=(
                ("bottleneck_utilization", float(util.max())),
                ("ecn_steps", float(_ECN_STEPS if cfg.ecn.enabled else 0)),
            ),
        )

    def _empty_result(self, cfg: "NetworkConfig") -> EngineResult:
        sim = cfg.sim
        return EngineResult(
            engine=self.name,
            offered_load=0.0,
            accepted_load=0.0,
            avg_latency=math.nan,
            p90_latency=math.nan,
            p99_latency=math.nan,
            max_latency=math.nan,
            packets_measured=0,
            cycles=sim.warmup_cycles + sim.measure_cycles,
            groups=(),
            extras=(("bottleneck_utilization", 0.0), ("ecn_steps", 0.0)),
        )

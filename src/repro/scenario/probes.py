"""Recorders a scenario can name in ``ScenarioSpec.probes``.

A probe is installed once on the freshly built :class:`Network`, before
the run starts, and only when the spec names it — a probe-less spec
pays nothing.  Installing returns a reader the cycle engine calls after
the run; it yields ``(name, value)`` extras whose values are floats or
float tuples (``EngineResult.series``), so a probed result persists in a
campaign store like any other.

Sampling probes tick every ``config.sim.sample_period`` cycles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.engine.stats import TimeSeries
from repro.obs.timeline import Timeline

if TYPE_CHECKING:  # pragma: no cover
    from repro.network import Network

__all__ = ["LINK_CLASSES", "PROBES"]

Extras = tuple[tuple[str, float | tuple[float, ...]], ...]
Reader = Callable[[], Extras]

#: the port classes the occupancy census reports, in table order
LINK_CLASSES = ("endpoint", "local", "global")


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _victim_latency(net: "Network") -> Reader:
    """Fig. 7: the victim group's delivered-packet latency, binned over
    the whole run (``victim_time`` / ``victim_avg_latency``), and the
    200-point inverse CDF of its measurement-window samples
    (``victim_icdf_latency`` / ``victim_icdf_fraction``)."""
    victims = frozenset(net.built_scenarios[0].victim_nodes)
    series = TimeSeries(period=net.config.sim.sample_period)

    def on_delivered(pkt, cycle: int) -> None:
        if pkt.src in victims:
            series.record(cycle, cycle - pkt.birth_cycle)

    net.on_packet_delivered_hooks.append(on_delivered)

    def read() -> Extras:
        time, latency = series.series()
        x, fraction = net.group_latency["victim"].inverse_cdf()
        return (
            ("victim_time", _floats(time)),
            ("victim_avg_latency", _floats(latency)),
            ("victim_icdf_latency", _floats(x)),
            ("victim_icdf_fraction", _floats(fraction)),
        )

    return read


def _hotspot_stash(net: "Network") -> Reader:
    """Fig. 8: per sample, the aggressors' injected flits/cycle
    (``aggressor_load``) and the stash utilization of the switch serving
    the first hotspot node (``stash_utilization``), at ``stash_time``;
    that switch's id is the scalar ``hotspot_switch``."""
    scenario = net.built_scenarios[0]
    switch = net.topology.node_switch(scenario.hotspot_nodes[0])
    aggressors = [net.endpoints[n] for n in scenario.aggressor_nodes]
    times: list[float] = []
    loads: list[float] = []
    utils: list[float] = []
    last_cycle = last_flits = 0

    def sample(cycle: int) -> None:
        nonlocal last_cycle, last_flits
        flits = sum(ep.flits_injected for ep in aggressors)
        dt = cycle - last_cycle
        if dt > 0:
            times.append(float(cycle))
            loads.append((flits - last_flits) / dt)
            utils.append(net.stash_utilization(switch))
        last_cycle, last_flits = cycle, flits

    net.sim.add_sampler(net.config.sim.sample_period, sample)

    def read() -> Extras:
        return (
            ("hotspot_switch", float(switch)),
            ("stash_time", tuple(times)),
            ("aggressor_load", tuple(loads)),
            ("stash_utilization", tuple(utils)),
        )

    return read


def _port_occupancy(net: "Network") -> Reader:
    """The occupancy census: every active port's committed input +
    output flits, sampled; reported as each port's peak, grouped by link
    class (``port_peaks_endpoint`` / ``_local`` / ``_global``)."""
    timeline = Timeline(net.config.sim.sample_period)
    names: dict[str, list[str]] = {cls: [] for cls in LINK_CLASSES}
    topo = net.topology
    for s in range(topo.num_switches):
        for port in topo.switch_ports(s):
            if port.link_class in names:
                ip = net.switches[s].in_ports[port.port]
                op = net.switches[s].out_ports[port.port]
                name = f"occ.{s}.{port.port}"
                names[port.link_class].append(name)
                timeline.track(
                    name,
                    lambda ip=ip, op=op: (
                        ip.damq.total_committed + op.out_damq.total_committed
                    ),
                )

    def sample(cycle: int) -> None:
        # a sleeping switch holds retention releases back until its
        # next step; apply the ones due before reading output space
        for sw in net.switches:
            sw.settle(cycle)
        timeline.sample(cycle)

    net.sim.add_sampler(timeline.period, sample)

    def read() -> Extras:
        return tuple(
            (f"port_peaks_{cls}", _floats(timeline.peak(n) for n in ports))
            for cls, ports in names.items()
        )

    return read


#: probe name -> installer (``Network`` -> reader of its extras)
PROBES: dict[str, Callable[["Network"], Reader]] = {
    "victim_latency": _victim_latency,
    "hotspot_stash": _hotspot_stash,
    "port_occupancy": _port_occupancy,
}

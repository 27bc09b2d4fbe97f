"""Injection processes.

``BernoulliSource`` posts fixed-size messages with a per-cycle
probability such that the average offered load equals ``rate`` flits per
cycle per node.  ``BurstSource`` is the Fig. 9 aggressor: it keeps a
bounded number of large messages outstanding, so burstiness scales with
the message size while average demand stays saturated.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from repro.traffic.patterns import Pattern

if TYPE_CHECKING:  # pragma: no cover
    from repro.endpoints.endpoint import Endpoint

__all__ = ["BernoulliSource", "BurstSource", "TrafficSource"]

#: how many cycles ahead a Bernoulli source that owns its endpoint's RNG
#: stream draws before giving up on a hit and letting the endpoint wake
DRAW_AHEAD_HORIZON = 4096


class TrafficSource(Protocol):
    """Structural interface every injection process implements.

    ``Endpoint`` polls ``active``/``generate`` each cycle it runs and
    consults ``next_active_cycle`` when deciding whether it may sleep, so
    a source's schedule participates in the wake contract
    (docs/WAKE_CONTRACT.md): the answer must be a pure function of the
    source's current state.
    """

    def active(self, cycle: int) -> bool:
        """True when the source may inject at ``cycle``."""
        ...

    def next_active_cycle(self, endpoint: Endpoint, cycle: int) -> int | None:
        """Earliest cycle > ``cycle`` with work here, or None to idle."""
        ...

    def generate(self, endpoint: "Endpoint", cycle: int) -> None:
        """Inject this cycle's traffic into ``endpoint``."""
        ...


class BernoulliSource:
    """Open-loop Bernoulli message injection."""

    def __init__(
        self,
        rate: float,
        msg_flits: int,
        pattern: Pattern,
        start: int = 0,
        stop: int | None = None,
        tag: int = 0,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1] flits/cycle/node")
        if msg_flits < 1:
            raise ValueError("messages need at least one flit")
        self.rate = rate
        self.msg_flits = msg_flits
        self.pattern = pattern
        self.start = start
        self.stop = stop
        self.tag = tag
        self.prob = rate / msg_flits
        # endpoint -> (hit cycle, dst) waiting to be posted, or (last
        # cycle drawn, None) after a horizon of misses
        self._next: dict[Endpoint, tuple[int, int | None]] = {}

    def active(self, cycle: int) -> bool:
        return cycle >= self.start and (self.stop is None or cycle < self.stop)

    def next_active_cycle(self, endpoint: Endpoint, cycle: int) -> int | None:
        """Wake-list contract: a pure read of the schedule entry — the
        pending hit's cycle, else the first cycle not drawn yet."""
        if self.prob <= 0.0:
            return None
        when, dst = self._next.get(endpoint, (-1, None))
        if when > cycle:
            if dst is not None:
                return when  # the drawn hit
            cycle = when  # a horizon of misses: drawn through ``when``
        nxt = cycle + 1
        if nxt < self.start:
            return self.start
        if self.stop is not None and nxt >= self.stop:
            return None
        return nxt

    def generate(self, endpoint: "Endpoint", cycle: int) -> None:
        if not self.active(cycle) or self.prob <= 0.0:
            return
        when, dst = self._next.get(endpoint, (-1, None))
        if when < cycle:
            when, dst = self._next[endpoint] = self._draw_ahead(endpoint, cycle)
        if when == cycle and dst is not None:
            endpoint.post_message(dst, self.msg_flits, cycle, tag=self.tag)

    def _draw_ahead(
        self, endpoint: Endpoint, cycle: int
    ) -> tuple[int, int | None]:
        """Draw the uniforms of ``cycle, cycle + 1, ...`` in per-cycle
        order up to the first hit (its destination drawn right after it)
        or the horizon.  The sequence is the per-cycle process's only
        while this source is the stream's sole consumer; on a shared
        stream the horizon is one cycle — that process itself."""
        end = cycle + (1 if endpoint.rng_shared else DRAW_AHEAD_HORIZON)
        if self.stop is not None and end > self.stop:
            end = self.stop
        draw = endpoint.rng.random
        prob = self.prob
        for when in range(cycle, end):
            if draw() < prob:
                return when, self.pattern(endpoint.node, endpoint.rng)
        return end - 1, None


class BurstSource:
    """Closed-loop saturating source with configurable burst size.

    Keeps up to ``outstanding`` messages of ``msg_flits`` flits queued at
    the NIC; a new message is posted whenever the NIC backlog falls below
    that bound.  Larger ``msg_flits`` with the same aggregate demand
    produces burstier arrivals at each destination, reproducing the
    paper's Fig. 9 sweep ("1 to 512 packets per message").
    """

    def __init__(
        self,
        msg_flits: int,
        pattern: Pattern,
        outstanding: int = 2,
        start: int = 0,
        stop: int | None = None,
        tag: int = 0,
    ) -> None:
        if msg_flits < 1 or outstanding < 1:
            raise ValueError("msg_flits and outstanding must be positive")
        self.msg_flits = msg_flits
        self.pattern = pattern
        self.outstanding = outstanding
        self.start = start
        self.stop = stop
        self.tag = tag

    def active(self, cycle: int) -> bool:
        return cycle >= self.start and (self.stop is None or cycle < self.stop)

    def next_active_cycle(self, endpoint: Endpoint, cycle: int) -> int | None:
        """Wake-list contract: a closed-loop source refills the NIC
        backlog on any active cycle, so it keeps the endpoint awake for
        the whole active window."""
        nxt = cycle + 1
        if nxt < self.start:
            return self.start
        if self.stop is not None and nxt >= self.stop:
            return None
        return nxt

    def generate(self, endpoint: "Endpoint", cycle: int) -> None:
        if not self.active(cycle):
            return
        while endpoint.backlog_flits < self.outstanding * self.msg_flits:
            dst = self.pattern(endpoint.node, endpoint.rng)
            endpoint.post_message(dst, self.msg_flits, cycle, tag=self.tag)

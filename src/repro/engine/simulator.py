"""The cycle loop.

The simulator advances global time one channel-clock cycle at a time and
calls ``step(cycle)`` on every registered component in registration order.
Determinism rules:

* components only read channel items whose delivery time has arrived, and
  every channel has latency >= 1, so intra-cycle step order never changes
  what a component can observe from another component;
* all randomness flows through :class:`repro.engine.rng.DeterministicRng`.

Two kernels share those rules (``docs/PERFORMANCE.md``):

* ``polling`` steps every component every cycle — the original loop,
  kept as a byte-identical reference;
* ``event`` (default) keeps a *wake list*: components that implement
  ``next_active_cycle(cycle)`` may report the next cycle at which their
  ``step`` would do anything (or None for "only an external wake can
  revive me"), and the kernel skips them — and, when nothing at all is
  runnable, skips whole stretches of cycles — until that time.  A
  component may only report a cycle later than ``cycle + 1`` if every
  skipped ``step`` would have been a provable no-op (no state change, no
  RNG draw, no counter increment), which is what makes the two kernels
  byte-identical.  Components without the method are stepped every cycle.

Wakes from the outside (a channel ``send`` targeting a sleeping
consumer, a message posted by trace replay) arrive through
:meth:`Simulator.wake` / :meth:`Simulator.wake_component`.

Internal switch speedup (the paper's 1.3x core overclock) is handled inside
the switch component itself via a pass schedule derived from the absolute
cycle number, not by a second clock domain here.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from heapq import heappop, heappush
from typing import Callable, Protocol

__all__ = ["Component", "Simulator", "WakeContractError"]

#: sleeping with no self-scheduled wake (only an external wake revives)
_NEVER = 1 << 62

#: status sentinel: the component is on the active list (stepped every cycle)
_ACTIVE = -1


class Component(Protocol):
    """Anything the simulator steps once per cycle."""

    def step(self, cycle: int) -> None:
        """Advance this component to the end of ``cycle``."""
        ...


class WakeContractError(RuntimeError):
    """A sleeping component turned out to have work earlier than its
    declared wake cycle: some mutation of its wake-relevant state was not
    paired with a :meth:`Simulator.wake`.  Raised only under
    ``Simulator(verify_wake=True)`` (docs/WAKE_CONTRACT.md)."""


def _pending_state(component: Component) -> str:
    """Names and sizes of the component's non-empty containers — the
    attribute context for a wake-contract violation report."""
    names: list[str] = []
    for klass in type(component).__mro__:
        names.extend(getattr(klass, "__slots__", ()))
    if not names:
        names = list(getattr(component, "__dict__", {}))
    parts: list[str] = []
    for name in names:
        try:
            value = getattr(component, name)
        except AttributeError:
            continue
        if isinstance(value, (list, deque, dict, set, frozenset)) and value:
            parts.append(f"{name}[{len(value)}]")
        if len(parts) >= 8:
            break
    return ", ".join(parts) if parts else "(no non-empty containers)"


class Simulator:
    """Owns global time and the ordered component list."""

    def __init__(self, kernel: str = "event", verify_wake: bool = False) -> None:
        if kernel not in ("polling", "event"):
            raise ValueError(f"unknown kernel {kernel!r}")
        self.kernel = kernel
        #: shadow mode: re-probe sleeping components' next_active_cycle on
        #: every executed cycle and raise WakeContractError on a missed
        #: wake.  Debug-only; the event kernel pays nothing when False.
        self.verify_wake = verify_wake
        self.cycle = 0
        self._components: list[Component] = []
        self._samplers: list[tuple[int, int, Callable[[int], None]]] = []
        # event-kernel state, all indexed by registration order:
        self._nac: list[Callable[[int], "int | None"] | None] = []
        self._status: list[int] = []  # _ACTIVE | scheduled wake | _NEVER
        self._active: list[int] = []  # sorted indices stepped every cycle
        self._heap: list[tuple[int, int]] = []  # (wake cycle, idx), lazy
        self._index: dict[int, int] = {}  # id(component) -> idx
        # self-telemetry (harvested as engine.sim.*): component steps
        # executed, wake-heap entries pushed (a sleeper's own deadline
        # or an external wake), entries popped stale, idle-skip jumps
        self.steps = 0
        self.wakes = 0
        self.stale_pops = 0
        self.skips = 0

    def add(self, component: Component) -> None:
        """Register a component; step order is registration order."""
        idx = len(self._components)
        self._components.append(component)
        self._index[id(component)] = idx
        self._nac.append(getattr(component, "next_active_cycle", None))
        self._status.append(_ACTIVE)
        self._active.append(idx)  # indices grow, so append keeps it sorted

    def index_of(self, component: Component) -> "int | None":
        """The registration index of ``component`` (wake target), or None."""
        return self._index.get(id(component))

    # -- wake list -----------------------------------------------------

    def wake(self, idx: int, cycle: int) -> None:
        """Schedule component ``idx`` to step at ``cycle`` (or earlier if
        already scheduled sooner).  No-op for active components and under
        the polling kernel (everything is always stepped there).

        ``cycle`` must not be earlier than the current cycle: a stale
        wake means the caller discovered work the target should already
        have processed — a wake-contract violation
        (docs/WAKE_CONTRACT.md), not something to silently clamp.
        """
        if cycle < self.cycle:
            raise ValueError(
                f"stale wake: component {idx} woken for cycle {cycle}, "
                f"behind the current cycle {self.cycle} (wake-contract "
                "violation; see docs/WAKE_CONTRACT.md)"
            )
        status = self._status
        if status[idx] <= cycle:  # _ACTIVE, or an equal/earlier wake
            return
        status[idx] = cycle
        heappush(self._heap, (cycle, idx))
        self.wakes += 1

    def wake_component(self, component: Component, cycle: int) -> None:
        """:meth:`wake` by object; unregistered components are ignored."""
        idx = self._index.get(id(component))
        if idx is not None:
            self.wake(idx, cycle)

    # -- samplers ------------------------------------------------------

    def add_sampler(self, period: int, fn: Callable[[int], None]) -> None:
        """Call ``fn(cycle)`` every ``period`` cycles (probes, monitors).

        The sampler's phase is anchored to the cycle it is registered:
        the first call happens at the current cycle (if the simulator is
        about to execute it) and then every ``period`` cycles after, so
        a probe added mid-run (e.g. after warmup) samples aligned with
        its registration point rather than with absolute cycle zero.
        """
        if period < 1:
            raise ValueError("sampler period must be >= 1")
        self._samplers.append((period, self.cycle, fn))

    # -- run control ---------------------------------------------------

    def run(self, cycles: int) -> None:
        """Advance exactly ``cycles`` cycles."""
        end = self.cycle + cycles
        if self.kernel == "event":
            self._run_event(end, None)
        else:
            self._run_polling(end, None)

    def run_until(
        self, predicate: Callable[[], bool], max_cycles: int
    ) -> bool:
        """Run until ``predicate()`` holds or ``max_cycles`` elapse.

        The predicate is evaluated before running and then after every
        *executed* cycle, so the loop stops at the first cycle boundary
        where it holds.  Under the event kernel, cycles skipped as
        globally idle are not re-checked: component state cannot change
        across a skip, so a state-based predicate (the only kind used
        here) holds at the first executed cycle if it holds at all.
        Returns True if the predicate held.
        """
        if predicate():
            return True
        deadline = self.cycle + max_cycles
        if self.kernel == "event":
            return self._run_event(deadline, predicate)
        return self._run_polling(deadline, predicate)

    # -- kernels -------------------------------------------------------

    def _run_polling(
        self, end: int, until: "Callable[[], bool] | None"
    ) -> bool:
        """Reference kernel: every component, every cycle."""
        components = self._components
        samplers = self._samplers
        while self.cycle < end:
            cycle = self.cycle
            for component in components:
                component.step(cycle)
            self.steps += len(components)
            for period, anchor, fn in samplers:
                if (cycle - anchor) % period == 0:
                    fn(cycle)
            self.cycle = cycle + 1
            if until is not None and until():
                return True
        return False

    def _run_event(
        self, end: int, until: "Callable[[], bool] | None"
    ) -> bool:
        """Wake-list kernel: skip sleeping components and idle cycles."""
        components = self._components
        nacs = self._nac
        status = self._status
        active = self._active
        heap = self._heap
        samplers = self._samplers
        verify = self.verify_wake
        while self.cycle < end:
            cycle = self.cycle
            while heap and heap[0][0] <= cycle:
                c, idx = heappop(heap)
                if status[idx] == c:  # stale entries fail this check
                    status[idx] = _ACTIVE
                    insort(active, idx)
                else:
                    self.stale_pops += 1
            if active:
                for idx in active:
                    components[idx].step(cycle)
                self.steps += len(active)
            for period, anchor, fn in samplers:
                if (cycle - anchor) % period == 0:
                    fn(cycle)
            if active:
                # re-arm: busy components stay hot; the rest go to the
                # heap (or all the way to sleep) per next_active_cycle
                demoted: "list[int] | None" = None
                for idx in active:
                    nac = nacs[idx]
                    if nac is None:
                        continue  # no protocol: always stepped
                    wake = nac(cycle)
                    if wake is not None and wake <= cycle + 1:
                        continue
                    if wake is None:
                        status[idx] = _NEVER
                    else:
                        status[idx] = wake
                        heappush(heap, (wake, idx))
                        self.wakes += 1
                    if demoted is None:
                        demoted = []
                    demoted.append(idx)
                if demoted is not None:
                    drop = set(demoted)
                    active[:] = [i for i in active if i not in drop]
            if verify:
                self._verify_sleepers(cycle)
            self.cycle = cycle + 1
            if until is not None and until():
                return True
            if not active:
                # globally idle: jump to the next wake, the next sampler
                # firing, or the end of the span — whichever comes first
                target = end
                if heap and heap[0][0] < target:
                    target = heap[0][0]
                now = self.cycle
                for period, anchor, _fn in samplers:
                    rem = (now - anchor) % period
                    fire = now if rem == 0 else now + period - rem
                    if fire < target:
                        target = fire
                if target > now:
                    self.cycle = target
                    self.skips += 1
        return False

    def _verify_sleepers(self, cycle: int) -> None:
        """Shadow check (``verify_wake=True``): every sleeping component's
        ``next_active_cycle``, re-evaluated now, must not be earlier than
        the wake it declared when it went to sleep.  If it is, some state
        mutation since then was not paired with a wake, and the component
        would have slept through real work."""
        nacs = self._nac
        components = self._components
        for idx, declared in enumerate(self._status):
            if declared <= cycle + 1:
                continue  # active, or due at the very next cycle anyway
            nac = nacs[idx]
            if nac is None:
                continue
            fresh = nac(cycle)
            if fresh is not None and fresh < declared:
                component = components[idx]
                declared_text = (
                    "never (external wake only)"
                    if declared >= _NEVER else f"cycle {declared}"
                )
                raise WakeContractError(
                    f"missed wake at cycle {cycle}: "
                    f"{type(component).__name__} (component #{idx}) "
                    f"declared its next work at {declared_text}, but "
                    f"next_active_cycle({cycle}) now reports {fresh}; "
                    f"pending state: {_pending_state(component)}. "
                    "A mutation of its wake-relevant state was not paired "
                    "with Simulator.wake (docs/WAKE_CONTRACT.md)."
                )

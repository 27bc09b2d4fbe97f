"""Periodic occupancy sampling: the generic probe behind timelines.

A :class:`Timeline` tracks any number of named integer-valued probes
(per-port DAMQ occupancy, per-tile buffered flits, stash commitment...)
and samples them all every ``period`` cycles through one simulator
sampler.  It replaces the ad-hoc closures experiments used to register
directly with :meth:`repro.engine.simulator.Simulator.add_sampler`; the
``port_occupancy`` probe (:mod:`repro.scenario.probes`) reads its peaks.

Probes are ordinary callables; closures are fine here because samplers
run at ``period`` granularity, outside the per-component cycle loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.simulator import Simulator

__all__ = ["Timeline"]


class Timeline:
    """Named probes sampled on a common period.

    >>> from repro.engine.simulator import Simulator
    >>> sim = Simulator()
    >>> tl = Timeline(period=10)
    >>> tl.track("engine.sim.cycle", lambda: sim.cycle)
    >>> tl.install(sim)
    >>> sim.run(25)
    >>> tl.cycles
    [0, 10, 20]
    >>> tl.series("engine.sim.cycle")
    [0, 10, 20]
    >>> tl.peak("engine.sim.cycle")
    20
    """

    __slots__ = ("period", "cycles", "_names", "_probes", "_values")

    def __init__(self, period: int) -> None:
        if period < 1:
            raise ValueError("timeline period must be >= 1")
        self.period = period
        self.cycles: list[int] = []
        self._names: list[str] = []
        self._probes: list[Callable[[], int]] = []
        self._values: dict[str, list[int]] = {}

    def track(self, name: str, probe: Callable[[], int]) -> None:
        """Register ``probe`` to be read at every sample point."""
        if name in self._values:
            raise ValueError(f"timeline already tracks {name!r}")
        self._names.append(name)
        self._probes.append(probe)
        self._values[name] = []

    def install(self, sim: "Simulator") -> None:
        """Attach to ``sim``: sample every ``period`` cycles from now on."""
        sim.add_sampler(self.period, self.sample)

    def sample(self, cycle: int) -> None:
        """Read every probe once; called by the simulator's sampler."""
        self.cycles.append(cycle)
        values = self._values
        for name, probe in zip(self._names, self._probes):
            values[name].append(probe())

    @property
    def names(self) -> list[str]:
        """Tracked probe names, in registration order."""
        return list(self._names)

    def series(self, name: str) -> list[int]:
        """All samples of ``name``, aligned with :attr:`cycles`."""
        return self._values[name]

    def peak(self, name: str) -> int:
        """Largest sample of ``name`` (0 if never sampled)."""
        values = self._values[name]
        return max(values) if values else 0

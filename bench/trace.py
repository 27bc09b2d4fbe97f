"""The traced pass: spans around each layer's public functions.

:class:`Tracer` wraps, for the duration of one ``with tracer.installed``
block, the methods named in :data:`TARGETS` — at class (or module
binding) level, so nothing under ``src/`` changes and networks built
inside the block pick the wrappers up.  Two kinds of wrapper:

* **coarse** targets (engine runs, simulator phases, builders, store
  operations: at most a few thousand calls) record one span each —
  name, start, end, the span that caused it, and the point it belongs
  to;
* **hot** targets (switch/port/tile/endpoint stage methods: 10^5 to
  10^7 calls) add to a ``[seconds, calls, child seconds]`` accumulator
  owned by the enclosing coarse span, so a trace stays small and the
  per-phase breakdown survives.

Every frame credits its duration to its caller's ``child seconds``, so
a frame's self time is its duration minus what its traced callees took,
and the self times of a whole trace add up to the root span exactly.
A wrapper's own cost lands partly in the callee's reading and partly in
the caller's self time; ``trace.overhead_pct`` reports the total.

A target whose module, class or attribute no longer exists is skipped:
:attr:`Tracer.problems` gets one line saying so, and a span name left
with no target at all is listed in :attr:`Tracer.missing`, where the
ledger queries answer ``None``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types
from contextlib import contextmanager
from typing import Any, Callable, Iterator, NamedTuple

__all__ = ["TARGETS", "Span", "Target", "Tracer"]


class Target(NamedTuple):
    """One wrapped callable: ``module.owner.attr`` (``owner`` is a class
    name, or ``None`` for a module-level binding) traced as ``span``."""

    span: str
    module: str
    owner: str | None
    attr: str
    hot: bool = False
    #: keep what the call returns (the built networks, for model counts)
    capture: bool = False


TARGETS: tuple[Target, ...] = (
    # engine.simulator: the phases of Network.run_standard
    Target("simulator.run", "repro.engine.simulator", "Simulator", "run"),
    Target("simulator.run_until", "repro.engine.simulator", "Simulator", "run_until"),
    # switch.tiled_switch / switch.stashing_switch
    Target("switch.step", "repro.switch.tiled_switch", "TiledSwitch", "step", hot=True),
    Target("switch.nac", "repro.switch.tiled_switch", "TiledSwitch",
           "next_active_cycle", hot=True),
    Target("stash_switch.nac", "repro.switch.stashing_switch", "StashingSwitch",
           "next_active_cycle", hot=True),
    # switch.port
    Target("port.ingress", "repro.switch.port", "InputPort", "ingress", hot=True),
    Target("port.rowbus", "repro.switch.port", "InputPort", "rowbus_pass", hot=True),
    Target("port.mux", "repro.switch.port", "OutputPort", "mux_pass", hot=True),
    Target("port.egress", "repro.switch.port", "OutputPort", "egress", hot=True),
    Target("port.apply_credits", "repro.switch.port", "OutputPort",
           "apply_credits", hot=True),
    Target("port.release_retained", "repro.switch.port", "OutputPort",
           "release_retained", hot=True),
    Target("port.stash_drain", "repro.switch.port", "OutputPort",
           "stash_drain_pass", hot=True),
    # switch.tile
    Target("tile.crossbar", "repro.switch.tile", "Tile", "crossbar_pass", hot=True),
    # endpoints.endpoint
    Target("endpoint.step", "repro.endpoints.endpoint", "Endpoint", "step", hot=True),
    Target("endpoint.nac", "repro.endpoints.endpoint", "Endpoint",
           "next_active_cycle", hot=True),
    # network / scenario.spec / topology.dragonfly
    Target("network.result", "repro.network", "Network", "result"),
    Target("scenario.build_network", "repro.scenario.spec", None, "build_network",
           capture=True),
    Target("scenario.resolve", "repro.scenario.spec", "ScenarioSpec",
           "resolved_config"),
    Target("topology.build", "repro.scenario.spec", None, "build_topology"),
    Target("topology.build", "repro.topology.dragonfly", "DragonflyTopology",
           "__init__"),
    # engine.fastpath
    Target("fastpath.run", "repro.engine.fastpath", "FlowEngine", "run"),
    # campaign.service calls these through its own module bindings
    Target("campaign.expand", "repro.campaign.service", None, "expand_campaign"),
    Target("parallel.run_specs", "repro.campaign.service", None, "run_specs"),
    Target("store.put", "repro.campaign.store", "ResultStore", "put"),
    Target("store.load", "repro.campaign.store", "ResultStore", "load"),
)

# accumulator / frame slots
_SECONDS, _CALLS, _CHILD = 0, 1, 2


class Span:
    """One coarse span.  ``hot`` holds the accumulators of the hot
    targets called while this span was the innermost coarse one."""

    __slots__ = ("id", "name", "start", "end", "parent", "point", "frame", "hot")

    def __init__(
        self, id: int, name: str, start: float, parent: int | None,
        point: str | None, hot: list[list],
    ) -> None:
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.point = point
        self.frame: list = [0.0, 1, 0.0]
        self.hot = hot

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.frame[_CHILD]


class Tracer:
    """Installs the wrappers, collects spans, answers ledger queries."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.spans: list[Span] = []
        #: span names none of whose targets could be wrapped
        self.missing: list[str] = []
        #: one line per target that could not be wrapped
        self.problems: list[str] = []
        #: span name -> return values of ``capture`` targets
        self.captured: dict[str, list[Any]] = {}
        self._hot_names = list(dict.fromkeys(t.span for t in targets if t.hot))
        self._open: list[Span] = []
        self._stack: list[list] = []
        self._hot: list[list] | None = None

    # -- installation ----------------------------------------------------

    @contextmanager
    def installed(self, root: str) -> Iterator[Span]:
        """Wrap every resolvable target, open the ``root`` span, and on
        exit close it and put every original back."""
        undo: list[tuple[Any, str, Any, bool]] = []
        try:
            wrapped = {t.span for t in self.targets if self._install(t, undo)}
            # a span fed by several targets survives the loss of one
            self.missing = list(dict.fromkeys(
                t.span for t in self.targets if t.span not in wrapped
            ))
            with self.span(root) as span:
                yield span
        finally:
            for holder, attr, original, own in reversed(undo):
                if own:
                    setattr(holder, attr, original)
                else:
                    delattr(holder, attr)

    def _install(self, target: Target, undo: list) -> bool:
        where = ".".join(p for p in (target.module, target.owner, target.attr) if p)
        try:
            holder: Any = importlib.import_module(target.module)
            if target.owner is not None:
                holder = getattr(holder, target.owner)
            original = inspect.getattr_static(holder, target.attr)
        except (ImportError, AttributeError) as exc:
            return self._skip(target, f"{where} not found ({exc})")
        if not isinstance(original, types.FunctionType):
            return self._skip(target, f"{where} is not a plain function")
        if target.hot:
            wrapper = self._hot_wrapper(self._hot_names.index(target.span), original)
        else:
            wrapper = self._coarse_wrapper(target, original)
        functools.update_wrapper(wrapper, original)
        # an inherited attribute is shadowed, then un-shadowed on exit
        undo.append((holder, target.attr, original, target.attr in vars(holder)))
        setattr(holder, target.attr, wrapper)
        return True

    def _skip(self, target: Target, reason: str) -> bool:
        self.problems.append(
            f"{target.span}: {reason}; metrics fed only by it read null"
        )
        return False

    # -- wrappers -----------------------------------------------------------

    def _hot_wrapper(self, index: int, fn: Callable) -> Callable:
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            acc = tracer._hot[index]  # type: ignore[index]
            stack = tracer._stack
            stack.append(acc)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                # also when fn raises (EnginePlan.run goes on to the next
                # point): the frame stack must stay aligned with the calls
                dt = clock() - t0
                stack.pop()
                acc[_SECONDS] += dt
                acc[_CALLS] += 1
                stack[-1][_CHILD] += dt

        return wrapper

    def _coarse_wrapper(self, target: Target, fn: Callable) -> Callable:
        tracer = self
        name = target.span
        kept = self.captured.setdefault(name, []) if target.capture else None

        def wrapper(*args, **kwargs):
            span = tracer._begin(name, None)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._end(span)
            if kept is not None:
                kept.append(out)
            return out

        return wrapper

    @contextmanager
    def span(self, name: str, point: str | None = None) -> Iterator[Span]:
        """A coarse span opened from benchmark code (workload, point)."""
        span = self._begin(name, point)
        try:
            yield span
        finally:
            self._end(span)

    def _begin(self, name: str, point: str | None) -> Span:
        parent = self._open[-1] if self._open else None
        if point is None and parent is not None:
            point = parent.point
        span = Span(
            len(self.spans), name, time.perf_counter(),
            parent.id if parent is not None else None, point,
            [[0.0, 0, 0.0] for _ in self._hot_names],
        )
        self.spans.append(span)
        self._open.append(span)
        self._stack.append(span.frame)
        self._hot = span.hot
        return span

    def _end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()
        self._stack.pop()
        if self._stack:
            self._stack[-1][_CHILD] += span.seconds
        self._hot = self._open[-1].hot if self._open else None

    # -- ledger queries -------------------------------------------------------

    def _rows(self, name: str) -> Iterator[tuple[float, int, float]]:
        """(seconds, calls, child seconds) of every frame called ``name``."""
        hot_index = (
            self._hot_names.index(name) if name in self._hot_names else None
        )
        for span in self.spans:
            if span.name == name:
                yield span.seconds, 1, span.frame[_CHILD]
            if hot_index is not None:
                acc = span.hot[hot_index]
                if acc[_CALLS]:
                    yield acc[_SECONDS], acc[_CALLS], acc[_CHILD]

    def seconds(self, name: str) -> float | None:
        """Busy seconds under ``name``; ``None`` when it was not wrapped."""
        if name in self.missing:
            return None
        return sum(row[0] for row in self._rows(name))

    def calls(self, name: str) -> int | None:
        if name in self.missing:
            return None
        return sum(row[1] for row in self._rows(name))

    def self_seconds(self, name: str) -> float | None:
        if name in self.missing:
            return None
        return sum(row[0] - row[2] for row in self._rows(name))

    def durations(self, name: str) -> list[float]:
        """Per-call seconds of a coarse target, in call order."""
        return [span.seconds for span in self.spans if span.name == name]

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name over the whole trace; they add up
        to the root span's duration."""
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.self_seconds
            for name, acc in zip(self._hot_names, span.hot):
                if acc[_CALLS]:
                    out[name] = out.get(name, 0.0) + acc[_SECONDS] - acc[_CHILD]
        return out

    def children(self, parent: Span, name: str) -> list[Span]:
        """Descendant spans of ``parent`` called ``name``, in start order."""
        inside = {parent.id}
        out = []
        for span in self.spans[parent.id + 1:]:
            if span.parent in inside:
                inside.add(span.id)
                if span.name == name:
                    out.append(span)
        return out

    # -- export -----------------------------------------------------------------

    def to_json(self) -> dict:
        """The trace file body: times in seconds from the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        spans = []
        for span in self.spans:
            row: dict[str, Any] = {
                "id": span.id,
                "name": span.name,
                "start": span.start - origin,
                "end": span.end - origin,
                "child_seconds": span.frame[_CHILD],
                "parent": span.parent,
                "point": span.point,
            }
            hot = {
                name: {"seconds": acc[_SECONDS], "calls": acc[_CALLS],
                       "child_seconds": acc[_CHILD]}
                for name, acc in zip(self._hot_names, span.hot)
                if acc[_CALLS]
            }
            if hot:
                row["hot"] = hot
            spans.append(row)
        return {"missing": list(self.missing), "spans": spans}

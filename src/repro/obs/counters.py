"""End-of-run counters: the naming scheme, a registry, snapshot merging.

Every metric is an integer under a ``layer.component.metric`` name
(e.g. ``switch.stash.stores``) so that snapshots sort deterministically
and merge across runs without name collisions.  A network's counters
come from :func:`repro.obs.harvest`; services that count their own
events (the campaign executor) increment a :class:`CounterRegistry`.
"""

from __future__ import annotations

import re

__all__ = [
    "Counter",
    "CounterRegistry",
    "merge_snapshots",
    "metric_name_ok",
]

#: ``layer.component.metric``: at least three lowercase dotted segments.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*){2,}$")


def metric_name_ok(name: str) -> bool:
    """True if ``name`` follows the ``layer.component.metric`` convention.

    >>> metric_name_ok("switch.stash.stores")
    True
    >>> metric_name_ok("StashStores")
    False
    >>> metric_name_ok("switch.stores")
    False
    """
    return bool(_NAME_RE.match(name))


class Counter:
    """A monotonically increasing integer metric.

    >>> c = Counter("endpoint.nic.flits_injected")
    >>> c.add(3); c.add(2); c.value
    5
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        """Increase the counter; negative increments are rejected."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class CounterRegistry:
    """The named home of the counters one service run increments.

    :meth:`counter` is idempotent per name (asking twice returns the
    same object) and enforces the naming convention; ``snapshot()``
    returns a name-sorted plain dict ready to merge or serialize.

    >>> reg = CounterRegistry()
    >>> reg.counter("campaign.points.hit").add(4)
    >>> reg.counter("campaign.points.computed").add(1)
    >>> reg.snapshot()
    {'campaign.points.computed': 1, 'campaign.points.hit': 4}
    """

    __slots__ = ("_counters",)

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        if not metric_name_ok(name):
            raise ValueError(
                f"metric name {name!r} does not follow layer.component.metric"
            )
        return self._counters.setdefault(name, Counter(name))

    def snapshot(self) -> dict[str, int]:
        """All counters as a name-sorted plain dict."""
        return {name: self._counters[name].value for name in sorted(self._counters)}


def merge_snapshots(snapshots: list[dict[str, int]]) -> dict[str, int]:
    """Combine per-run snapshots: counters sum, peaks take the max.

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

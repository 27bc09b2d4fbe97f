"""Statistics collection: latency samples, rates, time series.

These collectors replace the paper's BookSim statistics output plus the
MATLAB post-processing scripts.  All of them are measurement-window aware:
samples recorded outside the active window are dropped, matching BookSim's
warmup handling.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np  # at run time, only inside the two users below

__all__ = ["LatencyStats", "RateMeter", "TimeSeries"]


class LatencyStats:
    """Per-packet latency samples with percentile and ICDF queries."""

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._sorted = True

    def record(self, value: float) -> None:
        """Add one latency sample."""
        self._samples.append(float(value))
        self._sorted = False

    def _ensure_sorted(self) -> list[float]:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        return self._samples

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return len(self._samples)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples (NaN when empty)."""
        if not self._samples:
            return math.nan
        return sum(self._samples) / len(self._samples)

    @property
    def max(self) -> float:
        """Largest sample (NaN when empty)."""
        return max(self._samples) if self._samples else math.nan

    @property
    def min(self) -> float:
        """Smallest sample (NaN when empty)."""
        return min(self._samples) if self._samples else math.nan

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile; ``pct`` in [0, 100]."""
        data = self._ensure_sorted()
        if not data:
            return math.nan
        if not 0.0 <= pct <= 100.0:
            raise ValueError("percentile must be within [0, 100]")
        rank = max(0, min(len(data) - 1, math.ceil(pct / 100.0 * len(data)) - 1))
        return data[rank]

    def inverse_cdf(self, num_points: int = 200) -> tuple[np.ndarray, np.ndarray]:
        """Inverse cumulative distribution: fraction of packets with
        latency > x, as plotted in the paper's Figure 7b.

        Returns ``(latencies, fractions)`` suitable for a semilog-y plot.
        """
        import numpy as np
        data = np.asarray(self._ensure_sorted(), dtype=float)
        if data.size == 0:
            return np.empty(0), np.empty(0)
        xs = np.linspace(data[0], data[-1], num_points)
        # fraction strictly greater than x
        counts = data.size - np.searchsorted(data, xs, side="right")
        return xs, counts / data.size

    def merged_with(self, other: "LatencyStats") -> "LatencyStats":
        """A new collector holding both sample sets."""
        out = LatencyStats()
        out._samples = self._samples + other._samples
        out._sorted = False
        return out


class RateMeter:
    """Counts events (e.g. ejected flits) over an explicit window."""

    def __init__(self) -> None:
        self.count = 0
        self._window_start: int | None = None
        self._window_end: int | None = None

    def open_window(self, cycle: int) -> None:
        """Start counting at ``cycle`` (resets the count)."""
        self._window_start = cycle
        self.count = 0

    def close_window(self, cycle: int) -> None:
        """Stop counting at ``cycle``; :meth:`rate` becomes defined."""
        self._window_end = cycle

    @property
    def active(self) -> bool:
        """True while a window is open (events are being counted)."""
        return self._window_start is not None and self._window_end is None

    def record(self, amount: int = 1) -> None:
        """Count ``amount`` events if the window is open."""
        if self.active:
            self.count += amount

    def rate(self) -> float:
        """Events per cycle over the closed window.

        NaN means "never measured" (no window was opened and closed);
        consumers must render it explicitly.  A degenerate
        zero-span window is 0.0 when empty and an error when events were
        somehow recorded into it — a rate over no time is meaningless.
        """
        if self._window_start is None or self._window_end is None:
            return math.nan
        span = self._window_end - self._window_start
        if span <= 0:
            if self.count:
                raise ValueError(
                    f"{self.count} events recorded in a zero-span window"
                )
            return 0.0
        return self.count / span


class TimeSeries:
    """Windowed averages over simulation time (Figures 7a and 8).

    Values are accumulated into fixed-width bins of ``period`` cycles;
    :meth:`series` returns (bin centre, bin mean) pairs.  Bins with no
    samples are carried forward (``hold_last=True``) or skipped.
    """

    def __init__(self, period: int, hold_last: bool = True) -> None:
        if period < 1:
            raise ValueError("period must be >= 1")
        self.period = period
        self.hold_last = hold_last
        self._sums: dict[int, float] = {}
        self._counts: dict[int, int] = {}

    def record(self, cycle: int, value: float) -> None:
        """Accumulate ``value`` into the bin containing ``cycle``."""
        bin_id = cycle // self.period
        self._sums[bin_id] = self._sums.get(bin_id, 0.0) + value
        self._counts[bin_id] = self._counts.get(bin_id, 0) + 1

    def series(self) -> tuple[np.ndarray, np.ndarray]:
        """(bin centre, bin mean) arrays over the recorded span."""
        import numpy as np
        if not self._sums:
            return np.empty(0), np.empty(0)
        first = min(self._sums)
        last = max(self._sums)
        times: list[float] = []
        values: list[float] = []
        prev: float | None = None
        for b in range(first, last + 1):
            if b in self._sums:
                prev = self._sums[b] / self._counts[b]
            elif not self.hold_last or prev is None:
                continue
            times.append((b + 0.5) * self.period)
            values.append(prev)
        return np.asarray(times), np.asarray(values)

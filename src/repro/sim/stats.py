"""Measurement primitives used by experiments.

These are intentionally simple — exact sample stores for percentile
queries at experiment scale, plus rate meters.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence


def percentile(samples: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile (0..100) by linear interpolation.

    Raises ValueError on an empty sample set, matching numpy semantics
    closely enough for our use (we only report, never branch, on these).
    """
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0,100], got {pct}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (pct / 100.0) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return float(ordered[lo])
    frac = rank - lo
    return float(ordered[lo] * (1 - frac) + ordered[hi] * frac)


class Histogram:
    """Sample store with summary statistics.

    Keeps every sample (exactly — percentile queries stay sample-exact)
    in an ``array('d')``: one packed C double per sample instead of a
    pointer plus a boxed float, which cuts the resident size of a
    5M-event run's latency histograms by ~4x and makes merges a
    ``memcpy``.  Values coerce to float on append, exactly as the old
    list-of-floats did, so digests hash identically.  Offers mean,
    percentiles, min/max and a fixed-bin distribution for plotting the
    paper's probability curves (Fig 9).
    """

    __slots__ = ("name", "_samples")

    def __init__(self, name: str = "histogram") -> None:
        self.name = name
        self._samples = array("d")

    def record(self, value: float) -> None:
        """Add one sample."""
        self._samples.append(value)

    def extend(self, values: Iterable[float]) -> None:
        """Add many samples."""
        self._samples.extend(float(v) for v in values)

    def merge(self, other: "Histogram") -> None:
        """Append another histogram's samples.

        Array-to-array extend is a single C copy: the per-run metric
        merges in ``collect_metrics`` walk every recorded sample, so
        this is the cheapest correct form.
        """
        self._samples.extend(other._samples)

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return len(self._samples)

    @property
    def samples(self) -> List[float]:
        """A copy of the raw samples."""
        return list(self._samples)

    def mean(self) -> float:
        """Arithmetic mean of the samples."""
        if not self._samples:
            raise ValueError(f"{self.name}: no samples")
        return sum(self._samples) / len(self._samples)

    def minimum(self) -> float:
        """Smallest sample."""
        return min(self._samples)

    def maximum(self) -> float:
        """Largest sample."""
        return max(self._samples)

    def stdev(self) -> float:
        """Sample standard deviation (0 for <2 samples)."""
        if len(self._samples) < 2:
            return 0.0
        mu = self.mean()
        var = sum((s - mu) ** 2 for s in self._samples) / (
            len(self._samples) - 1
        )
        return math.sqrt(var)

    def pct(self, p: float) -> float:
        """The p-th percentile of the samples."""
        return percentile(self._samples, p)

    def distribution(
        self, bin_width: float, max_value: Optional[float] = None
    ) -> Dict[float, float]:
        """Probability mass per bin of ``bin_width`` (Fig 9 style)."""
        if bin_width <= 0:
            raise ValueError("bin width must be positive")
        if not self._samples:
            return {}
        top = max_value if max_value is not None else max(self._samples)
        dist: Dict[float, float] = {}
        n = len(self._samples)
        for s in self._samples:
            if s > top:
                continue
            b = math.floor(s / bin_width) * bin_width
            dist[b] = dist.get(b, 0.0) + 1.0 / n
        return dict(sorted(dist.items()))

    def ccdf(self) -> List[tuple[float, float]]:
        """(value, P[X >= value]) points — the paper's queue-tail plots."""
        if not self._samples:
            return []
        ordered = sorted(self._samples)
        n = len(ordered)
        points: List[tuple[float, float]] = []
        seen = None
        for i, v in enumerate(ordered):
            if v != seen:
                points.append((v, (n - i) / n))
                seen = v
        return points


class RateMeter:
    """Bytes-per-interval meter; reports average goodput in bits/sec.

    Keeps cumulative totals *and* a deque-trimmed trailing window of
    recent observations, so windowed queries — what the telemetry
    probes poll every tick — sum only the retained samples instead of
    rescanning history.  The window is trimmed as samples arrive
    (amortized O(1) per :meth:`record`), bounding memory to one
    ``retention_ns`` of traffic regardless of run length.
    """

    __slots__ = (
        "name", "total_bytes", "first_ns", "last_ns", "retention_ns",
        "_window", "_window_bytes",
    )

    #: Default trailing-window retention: wide enough for the telemetry
    #: probes' cadences, narrow enough to stay a few hundred tuples per
    #: port at line rate.
    DEFAULT_RETENTION_NS = 1_000_000

    def __init__(
        self,
        name: str = "rate",
        retention_ns: int = DEFAULT_RETENTION_NS,
    ) -> None:
        if retention_ns <= 0:
            raise ValueError("retention must be positive")
        self.name = name
        self.total_bytes = 0
        self.first_ns: Optional[int] = None
        self.last_ns: Optional[int] = None
        self.retention_ns = retention_ns
        #: Samples newer than ``last_ns - retention_ns``, oldest first.
        self._window: deque[tuple[int, int]] = deque()
        self._window_bytes = 0

    def record(self, time_ns: int, nbytes: int) -> None:
        """Count ``nbytes`` observed at ``time_ns``."""
        if self.first_ns is None:
            self.first_ns = time_ns
        self.last_ns = time_ns
        self.total_bytes += nbytes
        window = self._window
        window.append((time_ns, nbytes))
        self._window_bytes += nbytes
        cutoff = time_ns - self.retention_ns
        while window and window[0][0] <= cutoff:
            self._window_bytes -= window.popleft()[1]

    def window_bytes(self, window_ns: int) -> int:
        """Bytes observed in the trailing ``(last - window, last]``.

        ``window_ns`` wider than the full observation span answers from
        the cumulative total; wider than :attr:`retention_ns` (but
        narrower than the span) cannot be answered exactly — raise
        rather than silently undercount.
        """
        if window_ns <= 0 or self.last_ns is None:
            return 0
        cutoff = self.last_ns - window_ns
        if self.first_ns is not None and cutoff < self.first_ns:
            return self.total_bytes
        if window_ns > self.retention_ns:
            raise ValueError(
                f"window {window_ns}ns exceeds retention "
                f"{self.retention_ns}ns"
            )
        # The deque holds at most retention_ns of samples, already
        # trimmed; sum the tail newer than the cutoff.
        return sum(nb for t, nb in self._window if t > cutoff)

    def rate_bps(self, window_ns: Optional[int] = None) -> float:
        """Average rate over the trailing ``window_ns``, or over the
        first..last observation span when no window is given."""
        if window_ns is None:
            if self.first_ns is None or self.last_ns is None:
                return 0.0
            span = self.last_ns - self.first_ns
            if span <= 0:
                return 0.0
            return self.total_bytes * 8 * 1e9 / span
        if window_ns <= 0:
            return 0.0
        return self.window_bytes(window_ns) * 8 * 1e9 / window_ns

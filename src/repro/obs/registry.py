"""Metric primitives and the process-wide registry switchboard.

The observability layer follows one rule everywhere: **handles are
resolved at construction time, recording is guarded at run time**.  A
component asks the module for its metric handles when it is built
(``counter("dv.pcie.bytes", path="dma", direction="write")``); if
observability is disabled the component receives the shared no-op
singletons and caches ``enabled() == False`` in a local boolean, so the
hot path pays one branch — no dictionary lookups, no string formatting,
no allocation.

Because simulations are constructed fresh per run (``run_spmd`` builds a
new engine and new device state every time), flipping the global switch
between runs is race-free: enable, build, run, snapshot.

Typical use::

    from repro.obs import registry as obs

    with obs.session() as reg:            # enabled, fresh registry
        run_gups(spec, "dv")
        print(reg.value("dv.pcie.bytes", path="dma", direction="write"))
"""

from __future__ import annotations

import math
from bisect import bisect_left
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "NULL_COUNTER", "NULL_GAUGE", "NULL_HISTOGRAM",
    "enabled", "active", "enable", "disable", "session",
    "counter", "gauge", "histogram",
]

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


# ------------------------------------------------------------- metrics ---

class Counter:
    """Monotonically increasing count (events, packets, bytes)."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    add = inc   # readability alias for byte counts

    def snapshot(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels),
                "value": self.value}


class Gauge:
    """Instantaneous level (queue depth, occupancy); tracks the peak."""

    __slots__ = ("name", "labels", "value", "max")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.max = 0.0

    def set(self, v: float) -> None:
        self.value = v
        if v > self.max:
            self.max = v

    def set_max(self, v: float) -> None:
        """Record ``v`` only as a candidate peak (cheapest hot-path form)."""
        if v > self.max:
            self.max = v
            self.value = v

    def inc(self, n: float = 1) -> None:
        self.set(self.value + n)

    def dec(self, n: float = 1) -> None:
        self.value -= n

    def snapshot(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels),
                "value": self.value, "max": self.max}


#: Default bucket upper bounds: powers of two covering a nanosecond to
#: ~17 minutes when observing seconds, and 1..2^40 when observing counts
#: (latency cycles, hop counts, message sizes).
DEFAULT_BOUNDS: Tuple[float, ...] = tuple(
    2.0 ** k for k in range(-30, 41))


class Histogram:
    """Fixed-bound exponential histogram with exact count/sum/min/max.

    Percentiles are resolved to a bucket upper bound clamped into the
    observed ``[min, max]`` range, which makes ``percentile`` monotone in
    the requested quantile; ``merge`` of same-bound histograms adds
    bucket counts, so merging is associative and commutative (the
    property tests pin both).
    """

    __slots__ = ("name", "labels", "bounds", "counts", "count", "total",
                 "min", "max")

    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey = (),
                 bounds: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.labels = labels
        self.bounds: Tuple[float, ...] = tuple(
            DEFAULT_BOUNDS if bounds is None else bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.counts = [0] * (len(self.bounds) + 1)  # +1 overflow bucket
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, v: float) -> None:
        self.counts[bisect_left(self.bounds, v)] += 1
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    def observe_many(self, values: Sequence[float]) -> None:
        """Batch :meth:`observe` — one pass for a whole array of values.

        Equivalent to calling :meth:`observe` on each element (the
        property tests pin the equivalence); used by vectorised hot
        paths that eject many packets per cycle.
        """
        n = len(values)
        if n == 0:
            return
        try:
            import numpy as np
            arr = np.asarray(values, dtype=float)
            idx = np.searchsorted(self.bounds, arr, side="left")
            for i, c in zip(*np.unique(idx, return_counts=True)):
                self.counts[int(i)] += int(c)
            # summed in element order, as observe() would: a pairwise
            # arr.sum() differs in the last bits
            total = self.total
            for v in arr.tolist():
                total += v
            lo = float(arr.min())
            hi = float(arr.max())
        except ImportError:  # pragma: no cover - numpy is a hard dep
            for v in values:
                self.observe(v)
            return
        self.count += n
        self.total = total
        if lo < self.min:
            self.min = lo
        if hi > self.max:
            self.max = hi

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Value at or below which ``q`` percent of observations fall
        (bucket-resolution upper bound; exact at the extremes)."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile {q} outside [0, 100]")
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(q / 100.0 * self.count))
        cum = 0
        for i, c in enumerate(self.counts):
            cum += c
            if cum >= target:
                if i == len(self.bounds):
                    return self.max
                return min(max(self.bounds[i], self.min), self.max)
        return self.max  # pragma: no cover - cum always reaches count

    def merge(self, other: "Histogram") -> "Histogram":
        """Combine two same-bound histograms into a new one."""
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        out = Histogram(self.name, self.labels, self.bounds)
        out.counts = [a + b for a, b in zip(self.counts, other.counts)]
        out.count = self.count + other.count
        out.total = self.total + other.total
        out.min = min(self.min, other.min)
        out.max = max(self.max, other.max)
        return out

    def snapshot(self) -> dict:
        empty = self.count == 0
        return {
            "name": self.name, "labels": dict(self.labels),
            "count": self.count, "total": self.total,
            "min": 0.0 if empty else self.min,
            "max": 0.0 if empty else self.max,
            "mean": self.mean,
            "p50": self.percentile(50), "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


# --------------------------------------------------------- null metrics ---

class _NullMetric:
    """Shared do-nothing stand-in handed out while obs is disabled."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass

    add = inc

    def dec(self, n: float = 1) -> None:
        pass

    def set(self, v: float) -> None:
        pass

    def set_max(self, v: float) -> None:
        pass

    def observe(self, v: float) -> None:
        pass

    def observe_many(self, values: Sequence[float]) -> None:
        pass


NULL_COUNTER = _NullMetric()
NULL_GAUGE = _NullMetric()
NULL_HISTOGRAM = _NullMetric()


# ------------------------------------------------------------- registry ---

class MetricsRegistry:
    """Get-or-create store of metric series keyed by (name, labels).

    Two components asking for the same series share one handle, so
    per-VIC or per-endpoint instrumentation aggregates cluster-wide for
    free (label with ``port=...`` etc. when a breakdown is wanted).
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelKey], object] = {}

    def _get(self, cls, name: str, labels: Dict[str, object], **kw):
        key = (name, _label_key(labels))
        m = self._metrics.get(key)
        if m is None:
            m = cls(name, key[1], **kw)
            self._metrics[key] = m
        elif not isinstance(m, cls):
            raise TypeError(
                f"metric {name!r} already registered as {m.kind}")
        return m

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, bounds: Optional[Sequence[float]] = None,
                  **labels) -> Histogram:
        return self._get(Histogram, name, labels, bounds=bounds)

    # -- inspection --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[object]:
        return iter(sorted(self._metrics.values(),
                           key=lambda m: (m.name, m.labels)))

    def get(self, name: str, **labels) -> Optional[object]:
        """Existing series or None (never creates)."""
        return self._metrics.get((name, _label_key(labels)))

    def value(self, name: str, **labels):
        """Counter/gauge value (0 if the series was never touched)."""
        m = self.get(name, **labels)
        return 0 if m is None else m.value

    def total(self, name: str):
        """Sum of a counter across all label combinations."""
        return sum(m.value for m in self._metrics.values()
                   if m.name == name and isinstance(m, Counter))

    def snapshot(self) -> dict:
        """Plain-data view of every series, grouped by metric kind."""
        out: Dict[str, List[dict]] = {"counters": [], "gauges": [],
                                      "histograms": []}
        for m in self:
            out[m.kind + "s"].append(m.snapshot())
        return out


# --------------------------------------------------------- global switch ---

_ACTIVE: Optional[MetricsRegistry] = None


def enabled() -> bool:
    """Is a registry currently collecting?"""
    return _ACTIVE is not None


def active() -> Optional[MetricsRegistry]:
    """The collecting registry, or None while disabled."""
    return _ACTIVE


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install ``registry`` (or a fresh one) as the process-wide sink."""
    global _ACTIVE
    _ACTIVE = registry if registry is not None else MetricsRegistry()
    return _ACTIVE


def disable() -> None:
    """Turn collection off; handles already resolved keep working but new
    components get the no-op singletons."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def session(enable_obs: bool = True):
    """Scoped enable/disable that restores the previous state.

    Yields the fresh registry (or None when ``enable_obs=False``) —
    the idiom every test and the CLI report use.
    """
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = MetricsRegistry() if enable_obs else None
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = prev


# Construction-time resolvers: live handle when enabled, singleton no-op
# when disabled.  Components must also cache ``enabled()`` in a local
# bool and guard hot-path recording with it.

def counter(name: str, **labels):
    # NB: ``is None`` — a fresh registry is empty and __len__ makes it falsy.
    if _ACTIVE is None:
        return NULL_COUNTER
    return _ACTIVE.counter(name, **labels)


def gauge(name: str, **labels):
    if _ACTIVE is None:
        return NULL_GAUGE
    return _ACTIVE.gauge(name, **labels)


def histogram(name: str, bounds: Optional[Sequence[float]] = None, **labels):
    if _ACTIVE is None:
        return NULL_HISTOGRAM
    return _ACTIVE.histogram(name, bounds=bounds, **labels)

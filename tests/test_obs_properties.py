"""Property-based hardening of the metric algebra.

Histograms: non-negative counts, conservation of observations,
percentile monotonicity in the quantile, percentile clamped into
``[min, max]``, and merge associativity/commutativity.  Figure metrics
(:mod:`repro.core.metrics`): mean inequalities, unit relations, and
speedup antisymmetry.

Uses ``hypothesis`` when importable and falls back to seeded random
sweeps otherwise (the checks themselves are shared), so the suite runs
on a bare interpreter without new dependencies."""

import math

import pytest

from repro.core import metrics
from repro.obs import Histogram
from repro.sim.rng import rng_for

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:            # pragma: no cover - image ships hypothesis
    HAVE_HYPOTHESIS = False


# ------------------------------------------------------- shared checks ---

def check_histogram_invariants(values):
    h = Histogram("t")
    for v in values:
        h.observe(v)
    assert all(c >= 0 for c in h.counts)
    assert h.count == len(values) == sum(h.counts)
    assert h.min == min(values) and h.max == max(values)
    assert math.isclose(h.total, math.fsum(values), rel_tol=1e-12)
    # percentile is monotone in q and clamped into [min, max]
    qs = [0, 1, 10, 25, 50, 75, 90, 95, 99, 100]
    ps = [h.percentile(q) for q in qs]
    assert all(a <= b for a, b in zip(ps, ps[1:]))
    assert all(h.min <= p <= h.max for p in ps)
    assert ps[-1] == h.max


def check_observe_many_equivalent(values):
    """Batch observation must land in the same registry state as
    per-value observation (the vectorised switch relies on this)."""
    one, many = Histogram("t"), Histogram("t")
    for v in values:
        one.observe(v)
    many.observe_many(values)
    assert many.counts == one.counts
    assert many.count == one.count
    assert (many.min, many.max) == (one.min, one.max)
    # summed in element order: bit for bit the per-value total
    assert many.total == one.total
    # incremental batches compose with per-value observation
    mixed = Histogram("t")
    mixed.observe_many(values[: len(values) // 2])
    for v in values[len(values) // 2:]:
        mixed.observe(v)
    assert mixed.counts == one.counts and mixed.count == one.count
    assert mixed.total == one.total


def check_merge_associative(xs, ys, zs):
    """(X + Y) + Z == X + (Y + Z) == Z + X + Y, bucket for bucket."""
    def hist(vals):
        h = Histogram("t")
        for v in vals:
            h.observe(v)
        return h

    a, b, c = hist(xs), hist(ys), hist(zs)
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    swapped = c.merge(a).merge(b)

    def key(h):
        # integer observations: totals are exact sums, no float slack
        return (h.counts, h.count, h.total, h.min, h.max)

    assert key(left) == key(right) == key(swapped)
    assert left.count == len(xs) + len(ys) + len(zs)


# ----------------------------------------------------- hypothesis forms ---

if HAVE_HYPOTHESIS:
    finite = st.floats(min_value=1e-9, max_value=1e12,
                       allow_nan=False, allow_infinity=False)
    naturals = st.lists(st.integers(0, 1 << 20), min_size=1, max_size=200)

    @given(st.lists(finite, min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_histogram_invariants(values):
        check_histogram_invariants(values)

    @given(naturals, naturals, naturals)
    @settings(max_examples=60, deadline=None)
    def test_histogram_merge_associative(xs, ys, zs):
        check_merge_associative(xs, ys, zs)

    @given(st.lists(finite, min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_observe_many_equivalent(values):
        check_observe_many_equivalent(values)

    @given(st.lists(st.floats(min_value=1e-6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_mean_inequality(values):
        hm = metrics.harmonic_mean(values)
        gm = metrics.geometric_mean(values)
        am = sum(values) / len(values)
        eps = 1e-9 * max(values)
        assert hm <= gm + eps and gm <= am + eps
        assert min(values) - eps <= hm and gm <= max(values) + eps

    @given(finite, finite)
    @settings(max_examples=60, deadline=None)
    def test_speedup_antisymmetric(a, b):
        s = metrics.speedup(a, b)
        assert s > 0
        assert math.isclose(s * metrics.speedup(b, a), 1.0, rel_tol=1e-9)

else:                           # pragma: no cover - fallback sweeps
    def _cases(label, n_cases=60):
        rng = rng_for(2017, "obs-properties", label)
        for _ in range(n_cases):
            size = int(rng.integers(1, 200))
            yield rng, size

    def test_histogram_invariants():
        for rng, size in _cases("hist"):
            check_histogram_invariants(
                list(rng.uniform(1e-9, 1e12, size)))

    def test_histogram_merge_associative():
        for rng, _ in _cases("merge"):
            xs, ys, zs = (list(rng.integers(0, 1 << 20,
                                            int(rng.integers(1, 200))))
                          for _ in range(3))
            check_merge_associative(xs, ys, zs)

    def test_observe_many_equivalent():
        for rng, size in _cases("observe-many"):
            check_observe_many_equivalent(
                list(rng.uniform(1e-9, 1e12, size)))

    def test_mean_inequality():
        for rng, size in _cases("means"):
            values = list(rng.uniform(1e-6, 1e6, min(size, 50)))
            hm = metrics.harmonic_mean(values)
            gm = metrics.geometric_mean(values)
            am = sum(values) / len(values)
            eps = 1e-9 * max(values)
            assert hm <= gm + eps and gm <= am + eps

    def test_speedup_antisymmetric():
        for rng, _ in _cases("speedup"):
            a, b = rng.uniform(1e-9, 1e12, 2)
            assert math.isclose(metrics.speedup(a, b)
                                * metrics.speedup(b, a), 1.0, rel_tol=1e-9)


# -------------------------------------------------- deterministic edges ---

def test_histogram_merge_empty_identity():
    h = Histogram("t")
    for v in (1, 2, 3):
        h.observe(v)
    merged = h.merge(Histogram("t"))
    assert merged.counts == h.counts
    assert merged.count == h.count and merged.total == h.total
    assert merged.min == h.min and merged.max == h.max


def test_histogram_merge_rejects_different_bounds():
    with pytest.raises(ValueError):
        Histogram("a").merge(Histogram("b", bounds=(1.0, 2.0)))


def test_histogram_bounds_must_increase():
    with pytest.raises(ValueError):
        Histogram("t", bounds=(2.0, 1.0))


def test_histogram_percentile_domain():
    h = Histogram("t")
    h.observe(1.0)
    with pytest.raises(ValueError):
        h.percentile(-1)
    with pytest.raises(ValueError):
        h.percentile(101)
    assert h.percentile(50) == 1.0


def test_empty_histogram_snapshot_is_zeroed():
    snap = Histogram("t").snapshot()
    assert snap["count"] == 0
    assert snap["min"] == snap["max"] == snap["mean"] == 0.0
    assert snap["p50"] == snap["p99"] == 0.0


def test_unit_relations():
    assert metrics.mups(1_000_000, 1.0) == pytest.approx(
        1000.0 * metrics.gups(1_000_000, 1.0))
    assert metrics.percent_of_peak(5.0, 5.0) == 100.0
    assert metrics.bandwidth_gbs(2e9, 2.0) == 1.0
    assert metrics.harmonic_mean([3.0]) == 3.0
    assert metrics.geometric_mean([4.0]) == pytest.approx(4.0)

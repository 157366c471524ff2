"""Destination-coalescing aggregation runtime (docs/aggregation.md).

Public surface: :class:`AggSpec` (hand it to
``ClusterSpec(aggregation=...)``), the scoped :func:`session` override
(mirrors :func:`repro.faults.session`),
and :func:`resolve_spec`, which the traffic-aware kernels consult.  The
frame/channel machinery lives in :mod:`repro.agg.runtime`; the
``fig_agg`` watermark-by-skew sweep in :mod:`repro.agg.experiments`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from repro.agg.spec import ROUTINGS, AggSpec

__all__ = ["AggSpec", "ROUTINGS", "session", "session_spec",
           "resolve_spec"]

# Scoped aggregation override, consulted by run_gups/run_bfs when the
# cluster spec leaves aggregation=None.  Mirrors faults.session.  The
# anonymous slot is single-occupancy by construction (one workload per
# process was the pre-tenancy invariant); co-scheduled tenants use the
# tenant-keyed mapping instead, so one tenant's override can never
# leak into another's kernels.
_SESSION_SPEC: Optional[AggSpec] = None
_TENANT_SPECS: dict = {}


def session_spec() -> Optional[AggSpec]:
    """The scoped anonymous override (``None`` when none is active)."""
    return _SESSION_SPEC


@contextmanager
def session(spec: Optional[AggSpec], tenant: Optional[str] = None):
    """Scoped aggregation override restoring the previous value.

    Lets the golden harness's ``agg`` axis aggregate existing
    experiment entry points without threading a parameter through
    every call site.  ``spec=None`` yields an aggregation-free scope.

    ``tenant`` keys the override to one tenant id (the co-scheduler's
    idiom): tenant-keyed sessions compose freely with each other and
    with the anonymous slot.  Nesting a second *anonymous* non-None
    session raises — the inner workload would silently aggregate under
    the outer tenant's spec, the exact shared-state hazard tenancy
    exposed; key the sessions instead.
    """
    global _SESSION_SPEC
    if spec is not None and not isinstance(spec, AggSpec):
        raise TypeError(
            f"session spec must be an AggSpec or None, "
            f"got {type(spec).__name__}")
    if tenant is not None:
        prev_t = _TENANT_SPECS.get(tenant, _MISSING)
        _TENANT_SPECS[tenant] = spec
        try:
            yield spec
        finally:
            if prev_t is _MISSING:
                del _TENANT_SPECS[tenant]
            else:
                _TENANT_SPECS[tenant] = prev_t
        return
    if spec is not None and _SESSION_SPEC is not None:
        raise RuntimeError(
            "nested anonymous agg.session: the scoped aggregation "
            "override is single-occupancy; key concurrent overrides "
            "with session(spec, tenant=<id>)")
    prev = _SESSION_SPEC
    _SESSION_SPEC = spec
    try:
        yield _SESSION_SPEC
    finally:
        _SESSION_SPEC = prev


_MISSING = object()


def resolve_spec(explicit: Optional[AggSpec],
                 tenant: Optional[str] = None) -> Optional[AggSpec]:
    """The aggregation spec in force: an explicit
    ``ClusterSpec.aggregation`` wins; then a ``tenant``-keyed session
    override; then the anonymous session override; otherwise ``None``
    (every legacy path, byte-for-byte)."""
    if explicit is not None:
        return explicit
    if tenant is not None and tenant in _TENANT_SPECS:
        return _TENANT_SPECS[tenant]
    return _SESSION_SPEC

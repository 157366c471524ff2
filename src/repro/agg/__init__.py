"""Destination-coalescing aggregation runtime (docs/aggregation.md).

Public surface: :class:`AggSpec`, handed to
``ClusterSpec(aggregation=...)`` (or ``TenantSpec(aggregation=...)``
for a co-tenant) — the one way to turn aggregation on.  The
frame/channel machinery lives in :mod:`repro.agg.runtime`; the
``fig_agg`` watermark-by-skew sweep in :mod:`repro.agg.experiments`.
"""

from __future__ import annotations

from repro.agg.spec import ROUTINGS, AggSpec

__all__ = ["AggSpec", "ROUTINGS"]

"""Multi-tenant co-scheduling over the shared fabrics.

Public surface:

* :class:`~repro.tenancy.spec.TenantSpec` — one workload plus its
  resource slice (rank window or share, counter / DV-memory windows,
  IB credit budget, per-tenant traffic / faults / aggregation).
* :func:`~repro.tenancy.runner.run_cotenants` — run N tenants
  concurrently on one cluster; returns a
  :class:`~repro.tenancy.runner.TenancyResult` with per-tenant metrics
  and ``tenant.<id>.*``-style obs series reconciled against the
  cluster-wide totals.  It shares :func:`~repro.core.cluster.run_spmd`'s
  cluster builder and the kernels' own job builders, so a tenant runs
  the untenanted code behind its partition's views.
* :func:`~repro.tenancy.experiments.interference_table` /
  ``fig_interference`` — the slowdown matrix (co-scheduled runtime over
  solo runtime, per fabric, across regular x irregular pairs).
* :func:`shadow_session` — scope under which every
  :func:`~repro.core.cluster.run_spmd` call is routed through the
  tenancy stack as a single identity tenant; the ``tenancy`` golden
  determinism axis runs every pinned figure inside one and demands
  bit-identity.

See docs/tenancy.md.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.tenancy.spec import (TenancyError, TenantIsolationError,
                                TenantPartition, TenantSpec, WORKLOADS,
                                merge_fault_plans, resolve_partitions)

__all__ = [
    "TenancyError",
    "TenantIsolationError",
    "TenantPartition",
    "TenantSpec",
    "WORKLOADS",
    "merge_fault_plans",
    "resolve_partitions",
    "run_cotenants",
    "TenancyResult",
    "shadow_session",
    "shadow_active",
]

_SHADOW_SOLO = False


@contextmanager
def shadow_session(enabled: bool = True):
    """Route every ``run_spmd`` call in scope through the tenancy stack
    as a single full-width identity tenant (the ``tenancy`` axis)."""
    global _SHADOW_SOLO
    prev = _SHADOW_SOLO
    _SHADOW_SOLO = bool(enabled)
    try:
        yield
    finally:
        _SHADOW_SOLO = prev


def shadow_active() -> bool:
    """True inside a :func:`shadow_session`."""
    return _SHADOW_SOLO


def __getattr__(name: str):
    # runner/experiments import kernels and agg; keep `import
    # repro.tenancy` light by resolving them lazily.
    if name in ("run_cotenants", "TenancyResult", "run_solo_shadow"):
        from repro.tenancy import runner
        return getattr(runner, name)
    if name in ("interference_point", "interference_table",
                "default_pairs"):
        from repro.tenancy import experiments
        return getattr(experiments, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""The co-scheduler: N tenants, one engine, one fabric.

:func:`run_cotenants` resolves a tenant list into contiguous rank
windows on a single :class:`~repro.core.cluster.ClusterSpec`-sized
fabric and runs every tenant's program concurrently on one shared
:class:`~repro.sim.engine.Engine`, so tenants contend for injection
ports, switch load and spine uplinks physically.  It shares
:func:`repro.core.cluster.run_spmd`'s cluster builder — one rank group
per tenant, wrapped in its partition's views — and the kernels' own job
builders (:class:`~repro.core.cluster.KernelJob`), so a single tenant
spanning the whole cluster runs the untenanted path's code, behind
identity views: the ``tenancy`` determinism axis pins on every golden
figure, via :func:`run_solo_shadow`, that those views are transparent.
"""

from __future__ import annotations

import importlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.core.cluster import (ClusterSpec, KernelJob, RankGroup,
                                RunResult, _run_groups)
from repro.core.trace import Tracer
from repro.obs import registry as obsreg
from repro.sim.engine import Engine
from repro.tenancy.spec import (TenantPartition, TenantSpec, TenancyError,
                                merge_fault_plans, resolve_partitions,
                                tenant_seed)

__all__ = ["TenancyResult", "run_cotenants", "run_solo_shadow"]

#: Each workload's kernel job builder, and the parameters a tenant runs
#: with unless its ``TenantSpec.params`` say otherwise (smaller than the
#: kernels' paper-sized defaults; a BFS tenant searches from one root).
_JOBS: Dict[str, tuple] = {
    "gups": ("repro.kernels.gups", "gups_job",
             {"table_words": 1 << 10, "window": 256}),
    "bfs": ("repro.kernels.bfs", "bfs_job",
            {"scale": 8, "edgefactor": 8, "window": 256, "n_roots": 1}),
    "fft": ("repro.kernels.fft1d", "fft1d_job", {"log2_points": 10}),
    "scan": ("repro.apps.snap", "snap_job",
             {"nx": 8, "ny_per_rank": 2, "nz": 8, "n_angles": 8}),
}


@dataclass
class TenancyResult:
    """Outcome of one co-scheduled run."""

    fabric: str
    #: per-tenant metrics: the kernel's own dict plus ``workload`` and
    #: ``n_ranks``, keyed by tenant id
    tenants: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: raw per-rank values, keyed by tenant id
    values: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)
    #: simulated cluster time when the last tenant finished
    elapsed: float = 0.0
    net_stats: Any = None
    engine: Optional[Engine] = None
    tracer: Optional[Tracer] = None


def _tenant_job(t: TenantSpec, fabric: str, n_ranks: int, seed: int,
                agg_spec) -> KernelJob:
    """``t``'s workload as a one-program kernel job."""
    module, name, defaults = _JOBS[t.workload]
    build = getattr(importlib.import_module(module), name)
    job = build(n_ranks, fabric, seed, t.traffic, agg_spec,
                **{**defaults, **dict(t.params)})
    if len(job.programs) != 1:
        raise TenancyError(
            f"tenant {t.tenant_id!r}: a tenant runs one program, "
            f"{t.workload} asks for {len(job.programs)} (n_roots=1)")
    return job


def run_cotenants(spec: ClusterSpec, tenants: Sequence[TenantSpec],
                  fabric: str = "dv",
                  max_events: Optional[int] = None) -> TenancyResult:
    """Co-schedule ``tenants`` on one ``spec``-sized cluster.

    Tenant rank windows are assigned contiguously in list order and
    must fit inside ``spec.n_nodes`` (ranks beyond the last window sit
    idle, which keeps solo baselines and co-scheduled runs on
    identically sized fabrics).  Per-tenant fault plans are merged into
    one cluster-wide plan (outages translated to global ports;
    conflicting probabilistic knobs raise
    :class:`~repro.tenancy.spec.TenancyError`).  A tenant with no
    explicit ``seed`` inherits ``spec.seed``.
    """
    if fabric not in ("dv", "mpi"):
        raise TenancyError(
            f'fabric must be "dv" or "mpi", got {fabric!r}')
    tenants = list(tenants)
    parts = resolve_partitions(tenants, spec.n_nodes, spec.dv)
    plan = merge_fault_plans(tenants, parts, spec.seed)

    jobs: List[KernelJob] = []
    groups: List[RankGroup] = []
    for t, part in zip(tenants, parts):
        seed = tenant_seed(t, spec.seed)
        job = _tenant_job(t, fabric, part.n_ranks, seed, t.aggregation)
        jobs.append(job)
        groups.append(RankGroup(job.programs[0], seed, f"{t.tenant_id}:",
                                part))

    session = nullcontext()
    if plan is not None:
        from repro import faults
        session = faults.session(plan)
    with session:
        runs = _run_groups(spec, groups, fabric, max_events)

    result = TenancyResult(fabric=fabric, elapsed=runs[0].elapsed,
                           net_stats=runs[0].net_stats,
                           engine=runs[0].engine, tracer=runs[0].tracer)
    obs_on = obsreg.enabled()
    for t, part, job, run in zip(tenants, parts, jobs, runs):
        metrics = {"workload": t.workload, "n_ranks": part.n_ranks,
                   **job.finish([run.values])}
        result.values[t.tenant_id] = run.values
        result.tenants[t.tenant_id] = metrics
        if obs_on:
            obsreg.gauge("tenant.elapsed_s",
                         tenant=t.tenant_id).set(metrics["elapsed_s"])
    return result


def run_solo_shadow(spec: ClusterSpec, program,
                    fabric: str = "dv",
                    max_events: Optional[int] = None) -> RunResult:
    """Run an arbitrary ``run_spmd`` program through the tenancy stack.

    Builds a single identity partition spanning every rank — base 0,
    full counter and DV-memory windows, no credit budget — so every
    translation is the identity and every guard passes.  This is the
    ``tenancy`` determinism axis: every golden figure re-run through
    this path must be bit-identical to the untenanted run.
    """
    n_ctrs = spec.dv.group_counters
    part = TenantPartition(
        tenant_id="solo", base=0, n_ranks=spec.n_nodes,
        ctr_lo=0, ctr_hi=n_ctrs,
        mem_lo=0, mem_hi=spec.dv.dv_memory_words,
        ib_credits=None,
        allowed_counters=frozenset(range(n_ctrs)))
    (res,) = _run_groups(spec, [RankGroup(program, spec.seed, "", part)],
                         fabric, max_events)
    return res

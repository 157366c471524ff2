"""Tenant specifications and fabric partitioning.

A :class:`TenantSpec` names one workload plus the slice of shared fabric
resources it may touch: a contiguous rank window, an allowed VIC
counter range and DV-memory slot window on the Data Vortex side, and an
optional in-flight credit budget on the IB side.  The co-scheduler
(:mod:`repro.tenancy.runner`) resolves a list of tenant specs against a
:class:`~repro.core.cluster.ClusterSpec` into :class:`TenantPartition`
records — absolute rank bases plus enforcement windows — and runs every
tenant on ONE shared simulation engine and ONE shared fabric, so
contention between tenants is physical, not modelled.

Partitions are *enforcement-only*: counter indices and DV-memory
addresses are never remapped (the kernels, the aggregation runtime and
the hardware barriers all hard-code specific counters), they are only
checked against the tenant's allowed window.  Infrastructure counters
(the scratch counter, the hardware-barrier pair and the fast-barrier
defaults) are always permitted, because every tenant owns a private
barrier instance over its own rank window.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.faults.plan import FaultPlan
from repro.sim.rng import derive_seed
from repro.traffic.model import TrafficModel

__all__ = [
    "TenancyError",
    "TenantIsolationError",
    "TenantSpec",
    "TenantPartition",
    "WORKLOADS",
    "resolve_partitions",
    "merge_fault_plans",
    "tenant_seed",
]

#: Workloads the tenancy layer knows how to build (regular x irregular
#: per the paper's dichotomy): GUPS and BFS are irregular, FFT and the
#: SNAP-style transport scan are regular.
WORKLOADS = ("gups", "bfs", "fft", "scan")


class TenancyError(ValueError):
    """A tenant list cannot be scheduled (bad shares, overlap, ...)."""


class TenantIsolationError(RuntimeError):
    """A tenant touched a resource outside its partition."""


@dataclass(frozen=True)
class TenantSpec:
    """One co-scheduled workload and its resource slice.

    Exactly one of ``n_ranks`` (absolute rank count) or ``share``
    (fraction of the cluster) must be given.  ``seed=None`` inherits the
    cluster seed — which keeps a solo tenant byte-identical to the
    legacy untenanted path.  ``counters``/``dv_slots`` default to the
    full hardware ranges (no enforcement failures possible);
    ``ib_credits=None`` means an unbounded in-flight budget.
    """

    tenant_id: str
    workload: str
    params: Mapping[str, Any] = field(default_factory=dict)
    n_ranks: Optional[int] = None
    share: Optional[float] = None
    seed: Optional[int] = None
    traffic: Optional[TrafficModel] = None
    plan: Optional[FaultPlan] = None
    aggregation: Optional[object] = None  # repro.agg.AggSpec
    counters: Optional[Tuple[int, int]] = None
    dv_slots: Optional[Tuple[int, int]] = None
    ib_credits: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.tenant_id or not isinstance(self.tenant_id, str):
            raise TenancyError("tenant_id must be a non-empty string")
        if self.workload not in WORKLOADS:
            raise TenancyError(
                f"unknown workload {self.workload!r}; "
                f"expected one of {WORKLOADS}")
        if (self.n_ranks is None) == (self.share is None):
            raise TenancyError(
                f"tenant {self.tenant_id!r}: give exactly one of "
                "n_ranks or share")
        if self.n_ranks is not None and self.n_ranks < 1:
            raise TenancyError(
                f"tenant {self.tenant_id!r}: n_ranks must be >= 1")
        if self.share is not None and not 0.0 < self.share <= 1.0:
            raise TenancyError(
                f"tenant {self.tenant_id!r}: share must be in (0, 1]")
        for name in ("counters", "dv_slots"):
            rng = getattr(self, name)
            if rng is None:
                continue
            lo, hi = rng
            if lo < 0 or hi <= lo:
                raise TenancyError(
                    f"tenant {self.tenant_id!r}: bad {name} window {rng}")
        if self.ib_credits is not None and self.ib_credits < 1:
            raise TenancyError(
                f"tenant {self.tenant_id!r}: ib_credits must be >= 1")


@dataclass(frozen=True)
class TenantPartition:
    """A tenant's resolved slice of the shared fabric."""

    tenant_id: str
    base: int                     # first absolute rank
    n_ranks: int                  # contiguous window size
    ctr_lo: int                   # allowed user-counter range [lo, hi)
    ctr_hi: int
    mem_lo: int                   # allowed DV-memory window [lo, hi)
    mem_hi: int
    ib_credits: Optional[int]
    allowed_counters: frozenset = frozenset()

    def owns_rank(self, rank: int) -> bool:
        return self.base <= rank < self.base + self.n_ranks


def _infra_counters(dv_config) -> frozenset:
    """Counters every tenant may touch regardless of its window: the
    scratch counter, the hardware-barrier pair, and the two top user
    counters :class:`~repro.dv.barrier.FastBarrier` defaults to."""
    reserved = {dv_config.scratch_counter, *dv_config.barrier_counters}
    user = [i for i in range(dv_config.group_counters) if i not in reserved]
    return frozenset(reserved | {user[-1], user[-2]})


def resolve_partitions(tenants: Sequence[TenantSpec], n_nodes: int,
                       dv_config) -> List[TenantPartition]:
    """Assign contiguous rank windows (in tenant order) and resolve the
    counter / DV-memory enforcement windows against the hardware size."""
    if not tenants:
        raise TenancyError("need at least one tenant")
    ids = [t.tenant_id for t in tenants]
    if len(set(ids)) != len(ids):
        raise TenancyError(f"duplicate tenant ids in {ids}")

    infra = _infra_counters(dv_config)
    n_ctrs = dv_config.group_counters
    n_words = dv_config.dv_memory_words

    parts: List[TenantPartition] = []
    base = 0
    for t in tenants:
        n = t.n_ranks if t.n_ranks is not None else max(
            1, int(round(t.share * n_nodes)))
        ctr_lo, ctr_hi = t.counters if t.counters is not None else (0, n_ctrs)
        mem_lo, mem_hi = t.dv_slots if t.dv_slots is not None else (
            0, n_words)
        if ctr_hi > n_ctrs:
            raise TenancyError(
                f"tenant {t.tenant_id!r}: counter window "
                f"({ctr_lo}, {ctr_hi}) exceeds {n_ctrs} group counters")
        if mem_hi > n_words:
            raise TenancyError(
                f"tenant {t.tenant_id!r}: DV-memory window "
                f"({mem_lo}, {mem_hi}) exceeds {n_words} words")
        parts.append(TenantPartition(
            tenant_id=t.tenant_id, base=base, n_ranks=n,
            ctr_lo=ctr_lo, ctr_hi=ctr_hi, mem_lo=mem_lo, mem_hi=mem_hi,
            ib_credits=t.ib_credits,
            allowed_counters=frozenset(range(ctr_lo, ctr_hi)) | infra))
        base += n
    if base > n_nodes:
        raise TenancyError(
            f"tenants need {base} ranks but the cluster has {n_nodes}")
    return parts


def tenant_seed(tenant: TenantSpec, cluster_seed: int) -> int:
    """A tenant's effective seed: its own if set, else the cluster's.

    Inheriting the cluster seed (rather than deriving a per-tenant
    stream) is deliberate — it keeps a solo tenant bit-identical to the
    untenanted path, and keeps a victim workload's own randomness
    constant between its solo baseline and co-scheduled runs.
    Experiments that want decorrelated aggressors pass an explicit
    ``seed=derive_seed(cluster_seed, "tenant", tenant_id)``.
    """
    return cluster_seed if tenant.seed is None else tenant.seed


def aggressor_seed(cluster_seed: int, tenant_id: str) -> int:
    """The derived stream interference experiments give aggressors."""
    return derive_seed(cluster_seed, "tenant", tenant_id)


# ------------------------------------------------------------ fault merge ---

_OUTAGE_FIELDS = ("link_outages", "node_outages")
_PROB_FIELDS = tuple(
    f.name for f in fields(FaultPlan)
    if f.name not in ("seed", *_OUTAGE_FIELDS))


def merge_fault_plans(tenants: Sequence[TenantSpec],
                      partitions: Sequence[TenantPartition],
                      cluster_seed: int) -> Optional[FaultPlan]:
    """Compose per-tenant fault plans into one cluster-wide plan.

    Outage windows are translated by the tenant's rank base (ports are
    tenant-local in a :class:`TenantSpec`) and unioned.  Probabilistic
    knobs are fabric-global in the injector, so tenants that set them
    must agree; a conflict raises :class:`TenancyError` rather than
    silently averaging.  Returns ``None`` when no tenant carries a plan,
    leaving any ambient ``faults.session`` untouched.
    """
    plans = [(t, p) for t, p in zip(tenants, partitions)
             if t.plan is not None]
    if not plans:
        return None

    merged: Dict[str, Any] = {"seed": cluster_seed}
    for name in _OUTAGE_FIELDS:
        windows: List[Tuple] = []
        for t, part in plans:
            for port, t0, t1 in getattr(t.plan, name):
                if not 0 <= port < part.n_ranks:
                    raise TenancyError(
                        f"tenant {t.tenant_id!r}: {name} port {port} "
                        f"outside its {part.n_ranks}-rank window")
                windows.append((port + part.base, t0, t1))
        merged[name] = tuple(windows)

    defaults = FaultPlan()
    for name in _PROB_FIELDS:
        default = getattr(defaults, name)
        setters = [(t.tenant_id, getattr(t.plan, name))
                   for t, _ in plans if getattr(t.plan, name) != default]
        values = {v for _, v in setters}
        if len(values) > 1:
            raise TenancyError(
                f"conflicting fault knob {name!r} across tenants "
                f"{sorted(tid for tid, _ in setters)}: probabilistic "
                "fault knobs are fabric-global and must agree")
        merged[name] = setters[0][1] if setters else default
    return FaultPlan(**merged)

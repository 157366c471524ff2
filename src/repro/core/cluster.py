"""Cluster specification and the SPMD runner.

:class:`ClusterSpec` captures the testbed of paper §IV — a cluster whose
every node has *both* a Data Vortex VIC and an FDR InfiniBand HCA — and
:func:`run_spmd` executes one program on one fabric, building a fresh
engine and fresh device state per run (runs never share state, as on the
real machine where each benchmark invocation starts cold).  The
co-scheduler (:mod:`repro.tenancy`) shares its cluster builder,
:func:`_run_groups`, giving each tenant a rank group behind partition
views.  A kernel is a :class:`KernelJob`: rank programs plus a
metrics ``finish``, run by its ``run_*`` entry point or a tenant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Generator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from repro.core.context import RankContext
from repro.core.node import NodeModel
from repro.core.trace import Tracer
from repro.dv.api import DataVortexAPI
from repro.dv.barrier import FastBarrier, HardwareBarrier
from repro.dv.config import DVConfig
from repro.dv.flow import FlowNetwork
from repro.dv.vic import VIC
from repro.ib.config import IBConfig
from repro.ib.fabric import IBFabric
from repro.ib.mpi import MPIRuntime
from repro.sim.engine import Engine

#: A rank program: generator function taking a RankContext.
Program = Callable[[RankContext], Generator]


@dataclass
class ClusterSpec:
    """Description of the dual-fabric cluster."""

    n_nodes: int = 32
    dv: DVConfig = field(default_factory=DVConfig)
    ib: IBConfig = field(default_factory=IBConfig)
    node: NodeModel = field(default_factory=NodeModel)
    seed: int = 2017
    trace: bool = False
    #: toggle the fat-tree static-routing contention model (ablation)
    ib_contention: bool = True
    #: inert: each fabric has one flow engine.  The field stays only
    #: because the benchmark workloads pass ``flow_impl="fast"``; it
    #: accepts nothing else, and goes with their next edit.
    flow_impl: str = "fast"
    #: production-shaped load: a :class:`~repro.traffic.TrafficModel`
    #: (destination distribution + arrival process) the traffic-aware
    #: kernels honour.  ``None`` keeps every kernel on its legacy
    #: uniform-random closed-loop path, byte-for-byte (the goldens pin
    #: exactly that).  See docs/traffic.md.
    traffic: Optional["TrafficModel"] = None
    #: destination-coalescing aggregation: a
    #: :class:`~repro.agg.AggSpec` routes the irregular kernels' remote
    #: updates through the :mod:`repro.agg` runtime (per-destination
    #: buffers, watermark/timeout flushes, optional tree routing).
    #: ``None`` keeps every legacy kernel path byte-identical.  This
    #: field is the one way to aggregate a run (co-tenants use
    #: ``TenantSpec.aggregation``).  See docs/aggregation.md.
    aggregation: Optional["AggSpec"] = None

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.flow_impl != "fast":
            raise ValueError(
                f'flow_impl is inert and must be "fast", '
                f'got {self.flow_impl!r}')
        if self.traffic is not None:
            from repro.traffic.model import TrafficModel
            if not isinstance(self.traffic, TrafficModel):
                raise TypeError(
                    "traffic must be a repro.traffic.TrafficModel "
                    f"(got {type(self.traffic).__name__})")
        if self.aggregation is not None:
            from repro.agg import AggSpec
            if not isinstance(self.aggregation, AggSpec):
                raise TypeError(
                    "aggregation must be a repro.agg.AggSpec "
                    f"(got {type(self.aggregation).__name__})")

    @staticmethod
    def paper_testbed(**overrides) -> "ClusterSpec":
        """The 32-node system of §IV."""
        return ClusterSpec(n_nodes=32, **overrides)


@dataclass
class RunResult:
    """Outcome of one :func:`run_spmd` invocation."""

    values: List[Any]           #: per-rank program return values
    elapsed: float              #: simulated seconds until the last rank exits
    tracer: Tracer
    engine: Engine
    fabric: str
    #: network-level statistics object (FlowStats or FabricStats)
    net_stats: Any = None

    def value(self, rank: int = 0) -> Any:
        return self.values[rank]

    @property
    def max_value(self) -> Any:
        return max(self.values)


class RankGroup(NamedTuple):
    """One program over a window of the cluster's ranks."""

    program: Program
    seed: int
    #: process names are ``f"{name_prefix}rank{r}"``
    name_prefix: str = ""
    #: a :class:`~repro.tenancy.spec.TenantPartition` whose views the
    #: group's devices are wrapped in, or ``None``: every rank, on the
    #: bare devices
    partition: Any = None


class KernelJob(NamedTuple):
    """A kernel split for the runners.

    ``programs`` are rank programs, each run on its own fresh cluster
    (BFS runs one per search root, every other kernel one); ``finish``
    turns their per-rank values, one list per program in order, into
    the kernel's metrics dict.
    """

    programs: Tuple[Program, ...]
    finish: Callable[[List[List[Any]]], Dict[str, Any]]


def _run_groups(spec: ClusterSpec, groups: Sequence[RankGroup],
                fabric: str, max_events: Optional[int]
                ) -> List[RunResult]:
    """Build one cluster, run every group on it, one result per group.

    Groups take contiguous rank windows: each has its own APIs,
    barriers and contexts over the shared network and devices.  The
    construction order — network, every VIC, then per group (APIs in
    rank order, hardware barrier, fast barrier, contexts), then every
    process — is fixed because the engine breaks simultaneous-event
    ties by creation sequence: one group spanning the cluster behind
    identity views runs event for event as it does on the bare devices.
    """
    engine = Engine()
    tracer = Tracer(enabled=spec.trace)
    n = spec.n_nodes

    context_groups: List[List[RankContext]] = []
    if fabric == "dv":
        network = FlowNetwork(engine, spec.dv, n)
        vics = [VIC(engine, spec.dv, i, network) for i in range(n)]
        for g in groups:
            net, group_vics = ((network, vics) if g.partition is None
                               else g.partition.dv_views(network, vics))
            apis = [DataVortexAPI(engine, spec.dv, v, net)
                    for v in group_vics]
            hw_barrier = HardwareBarrier(engine, spec.dv, group_vics, net)
            fast_barrier = FastBarrier(engine, spec.dv, group_vics, net)
            for api in apis:
                api.hw_barrier = hw_barrier
                api.fast_barrier_impl = fast_barrier
            context_groups.append([
                RankContext(engine, r, len(apis), spec.node, tracer,
                            g.seed, dv=api)
                for r, api in enumerate(apis)])
        net_stats = network.stats
    else:
        shared = IBFabric(engine, spec.ib, n, contention=spec.ib_contention)
        for g in groups:
            size, fab = ((n, shared) if g.partition is None
                         else (g.partition.n_ranks,
                               g.partition.ib_view(shared)))
            runtime = MPIRuntime(engine, spec.ib, size, fab)
            context_groups.append([
                RankContext(engine, r, size, spec.node, tracer, g.seed,
                            mpi=runtime.endpoint(r))
                for r in range(size)])
        net_stats = shared.stats

    proc_groups = [[engine.process(g.program(ctx),
                                   name=f"{g.name_prefix}rank{ctx.rank}")
                    for ctx in contexts]
                   for g, contexts in zip(groups, context_groups)]
    engine.run(max_events=max_events)

    failures = []
    for procs in proc_groups:
        for p in procs:
            if not p.triggered:
                raise RuntimeError(
                    f"deadlock: {p.name} never finished (fabric={fabric})")
            if not p.ok:
                failures.append(p)
    if failures:
        raise failures[0].value

    return [RunResult(values=[p.value for p in procs], elapsed=engine.now,
                      tracer=tracer, engine=engine, fabric=fabric,
                      net_stats=net_stats)
            for procs in proc_groups]


def run_spmd(spec: ClusterSpec, program: Program, fabric: str = "dv",
             max_events: Optional[int] = None) -> RunResult:
    """Run ``program`` once on every rank over the chosen fabric.

    Parameters
    ----------
    spec:
        The cluster to build.
    program:
        Generator function ``program(ctx)``.
    fabric:
        ``"dv"`` (Data Vortex) or ``"mpi"`` (MPI over InfiniBand).
    max_events:
        Optional runaway guard forwarded to the engine.
    """
    if fabric not in ("dv", "mpi"):
        raise ValueError(f'fabric must be "dv" or "mpi", got {fabric!r}')

    # Tenancy determinism axis: inside a tenancy.shadow_session() the
    # whole run is one full-width identity tenant of the co-scheduler,
    # which must be bit-identical to the bare run (docs/tenancy.md).
    from repro import tenancy
    if tenancy.shadow_active():
        from repro.tenancy.runner import run_solo_shadow
        return run_solo_shadow(spec, program, fabric, max_events)
    (res,) = _run_groups(spec, [RankGroup(program, spec.seed)], fabric,
                         max_events)
    return res


def run_both(spec: ClusterSpec, program: Program) -> dict:
    """Convenience: run on both fabrics, return ``{"dv": ..., "mpi": ...}``."""
    return {"dv": run_spmd(spec, program, "dv"),
            "mpi": run_spmd(spec, program, "mpi")}

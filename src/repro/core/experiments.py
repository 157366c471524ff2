"""Registry of the paper's experiments: the per-experiment index as code.

Every table/figure of the evaluation section is described by an
:class:`Experiment` carrying its identifier, the workload parameters the
harness uses, which modules implement the pieces, and a runner that
regenerates the data.  DESIGN.md's experiment index, EXPERIMENTS.md and
the CLI all derive from this single source of truth.

>>> from repro.core.experiments import REGISTRY
>>> sorted(REGISTRY)[:3]
['fig3a', 'fig3b', 'fig4']
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.core.cluster import ClusterSpec
from repro.core.report import Table


@dataclass(frozen=True)
class Experiment:
    """One paper artifact (figure or table) and how to regenerate it."""

    exp_id: str                 #: e.g. "fig6a"
    title: str                  #: what the paper plots
    workload: str               #: workload + parameters (scaled)
    modules: tuple              #: implementing modules
    bench: str                  #: benchmark file that regenerates it
    paper_expectation: str      #: the shape the paper reports
    runner: Optional[Callable[..., Table]] = field(default=None,
                                                   compare=False)


def _run_fig3(seed: int = 2017, sizes=None) -> Table:
    from repro.kernels import PINGPONG_MODES, run_pingpong
    spec = ClusterSpec(n_nodes=2, seed=seed)
    sizes = sizes or [1 << k for k in range(0, 19, 3)]
    t = Table("fig3: ping-pong bandwidth (GB/s)",
              ["words", *PINGPONG_MODES])
    for n in sizes:
        t.add_row(n, *(run_pingpong(spec, m, n, iters=4)["bandwidth_gbs"]
                       for m in PINGPONG_MODES))
    return t


def _run_fig4(seed: int = 2017, nodes=(2, 4, 8, 16, 32)) -> Table:
    from repro.kernels import run_barrier_bench
    t = Table("fig4: barrier latency (us)",
              ["nodes", "dv", "dv_fast", "mpi"])
    for n in nodes:
        spec = ClusterSpec(n_nodes=n, seed=seed)
        t.add_row(n, *(run_barrier_bench(spec, i, iters=8)["latency_us"]
                       for i in ("dv", "dv_fast", "mpi")))
    return t


def _run_fig6(seed: int = 2017, nodes=(4, 8, 16, 32)) -> Table:
    from repro.kernels import run_gups
    t = Table("fig6: GUPS (MUPS)",
              ["nodes", "dv_per_pe", "mpi_per_pe", "dv_total",
               "mpi_total"])
    for n in nodes:
        spec = ClusterSpec(n_nodes=n, seed=seed)
        dv = run_gups(spec, "dv", table_words=1 << 14, n_updates=1 << 13)
        ib = run_gups(spec, "mpi", table_words=1 << 14,
                      n_updates=1 << 13)
        t.add_row(n, dv["mups_per_pe"], ib["mups_per_pe"],
                  dv["mups_total"], ib["mups_total"])
    return t


def _run_fig7(seed: int = 2017, nodes=(2, 4, 8, 16, 32)) -> Table:
    from repro.kernels import run_fft1d
    t = Table("fig7: FFT-1D aggregate GFLOPS", ["nodes", "dv", "mpi"])
    for n in nodes:
        spec = ClusterSpec(n_nodes=n, seed=seed)
        t.add_row(n, run_fft1d(spec, "dv", log2_points=18)["gflops"],
                  run_fft1d(spec, "mpi", log2_points=18)["gflops"])
    return t


def _run_fig8(seed: int = 2017, nodes=(2, 4, 8, 16, 32)) -> Table:
    from repro.kernels import run_bfs
    t = Table("fig8: Graph500 MTEPS", ["nodes", "scale", "dv", "mpi"])
    for n in nodes:
        spec = ClusterSpec(n_nodes=n, seed=seed)
        scale = 11 + int(math.log2(n))
        t.add_row(
            n, scale,
            run_bfs(spec, "dv", scale=scale,
                    n_roots=3)["harmonic_teps"] / 1e6,
            run_bfs(spec, "mpi", scale=scale,
                    n_roots=3)["harmonic_teps"] / 1e6)
    return t


def _run_fig9(seed: int = 2017, n_nodes: int = 32) -> Table:
    from repro.apps import run_heat, run_snap, run_vorticity
    spec = ClusterSpec(n_nodes=n_nodes, seed=seed)
    t = Table("fig9: DV speedup over MPI", ["application", "speedup"])
    for name, fn, kw in (
        ("SNAP", run_snap,
         dict(nx=16, ny_per_rank=4, nz=16, n_angles=32, chunk=4)),
        ("Vorticity", run_vorticity, dict(n=256, steps=2)),
        ("Heat", run_heat, dict(n=48, steps=10)),
    ):
        times = {f: fn(spec, f, **kw)["elapsed_s"] for f in ("mpi", "dv")}
        t.add_row(name, times["mpi"] / times["dv"])
    return t


def _run_fig_scaleout(seed: int = 2017, nodes=None, workloads=None,
                      fabrics=None, executor=None,
                      **overrides) -> Table:
    """The 64-1024-node cluster projection (§IX extended).

    Rides :func:`repro.core.scaling.scaleout_sweep`: every point runs
    the vectorised flow engines and fans across the
    executor's worker pool / result cache.
    """
    from repro.core import scaling
    nodes = tuple(nodes) if nodes else scaling.SCALEOUT_NODES
    workloads = (tuple(workloads) if workloads
                 else scaling.SCALEOUT_WORKLOADS)
    fabrics = tuple(fabrics) if fabrics else scaling.SCALEOUT_FABRICS
    rows = scaling.scaleout_sweep(workloads=workloads, nodes=nodes,
                                  fabrics=fabrics, seed=seed,
                                  executor=executor,
                                  **overrides)
    by_key = {(r["workload"], r["nodes"], r["fabric"]): r for r in rows}
    t = Table("fig_scaleout: projected per-PE and aggregate rates "
              "(GUPS: MUPS, BFS: MTEPS, FFT: GFLOPS)",
              ["workload", "nodes", "dv_per_pe", "mpi_per_pe",
               "dv_total", "mpi_total"])
    for w in workloads:
        for n in nodes:
            cells = []
            for col in ("per_pe", "total"):
                for f in ("dv", "mpi"):
                    r = by_key.get((w, n, f))
                    cells.append(float("nan") if r is None else r[col])
            t.add_row(w, n, *cells)
    return t


def _run_fig_skew(seed: int = 2017, nodes: int = 4, exponents=None,
                  include_hotset: bool = True,
                  table_words: int = 1 << 12, n_updates: int = 1 << 9,
                  window: int = 256, executor=None) -> Table:
    """Fabric degradation under destination skew (docs/traffic.md).

    GUPS under a sweep of destination distributions — uniform
    (Zipf s=0) through head-dominated exponents to a hot-set extreme —
    on both fabrics, with the DV/IB ratio per row.
    """
    from repro.traffic.experiments import SKEW_EXPONENTS, skew_table
    return skew_table(
        executor, nodes=nodes, seed=seed,
        exponents=(tuple(exponents) if exponents is not None
                   else SKEW_EXPONENTS),
        include_hotset=include_hotset, table_words=table_words,
        n_updates=n_updates, window=window)


def _run_fig_agg(seed: int = 2017, nodes: int = 8, exponents=None,
                 include_hotset: bool = True, watermarks=None,
                 routing: str = "direct",
                 table_words: int = 1 << 10, n_updates: int = 1 << 12,
                 window: int = 64, executor=None) -> Table:
    """Destination-coalescing aggregation vs fabric choice
    (docs/aggregation.md).

    GUPS under the PR 6 skew levels with the :mod:`repro.agg` runtime
    swept across watermarks on IB; un-aggregated DV and IB per row as
    baselines, ``ib_agg_over_dv`` marks the crossover.
    """
    from repro.agg.experiments import (AGG_EXPONENTS, AGG_WATERMARKS,
                                       agg_table)
    return agg_table(
        executor, nodes=nodes, seed=seed,
        exponents=(tuple(exponents) if exponents is not None
                   else AGG_EXPONENTS),
        include_hotset=include_hotset,
        watermarks=(tuple(watermarks) if watermarks is not None
                    else AGG_WATERMARKS),
        routing=routing, table_words=table_words,
        n_updates=n_updates, window=window)


def _run_fig_interference(seed: int = 2017, pairs=None, fabrics=None,
                          tenants=None, nodes_per_tenant: int = 4,
                          ib_leaf_size: int = 3, ib_uplinks: int = 2,
                          executor=None) -> Table:
    """Multi-tenant interference matrix (docs/tenancy.md).

    Ordered (victim, aggressor) workload pairs co-scheduled on one
    cluster; slowdown = co-scheduled victim runtime over its solo
    runtime on the same geometry.  ``tenants`` (a list of workload
    names) expands to all ordered pairs over those names and overrides
    ``pairs``.
    """
    from repro.tenancy.experiments import (default_pairs,
                                           interference_table)
    if tenants is not None:
        resolved = default_pairs(tuple(tenants))
    elif pairs is not None:
        resolved = tuple((str(v), str(a)) for v, a in pairs)
    else:
        resolved = default_pairs()
    return interference_table(
        executor, pairs=resolved,
        fabrics=(tuple(fabrics) if fabrics is not None
                 else ("dv", "mpi")),
        nodes_per_tenant=nodes_per_tenant, seed=seed,
        ib_leaf_size=ib_leaf_size,
        ib_uplinks=ib_uplinks)


def _run_fig_faults(seed: int = 2017, nodes: int = 4,
                    workloads=("gups", "bfs"), drops=None,
                    executor=None) -> Table:
    """Throughput vs packet-drop rate on both fabrics (docs/faults.md).

    DV recovers through its reliable transport, IB through the HCA's
    invisible retries; ``retransmits`` shows what each fabric paid.
    """
    from repro.faults.experiments import DROP_RATES, degradation_table
    return degradation_table(
        executor, workloads=tuple(workloads),
        drops=tuple(drops) if drops is not None else DROP_RATES,
        nodes=nodes, seed=seed)


def _run_fig_switch_scaling(seed: int = 7,
                            heights=(8, 16, 32, 64, 128),
                            per_port: int = 64, executor=None) -> Table:
    """The SS IX scale-up study on the cycle-accurate switch: one
    cylinder per doubling of ports, mean hops and per-port throughput
    per size (docs/scaling.md)."""
    from repro.core.scaling import switch_scaling
    t = Table("SS IX scale-up study (cycle-accurate switch)",
              ["ports", "cylinders", "mean hops", "pkts/cycle/port"])
    for p in switch_scaling(heights=tuple(heights), per_port=per_port,
                            seed=seed, executor=executor):
        t.add_row(p.ports, p.cylinders, p.mean_hops,
                  p.throughput_per_port)
    return t


REGISTRY: Dict[str, Experiment] = {
    e.exp_id: e for e in [
        Experiment(
            "fig3a", "ping-pong bandwidth vs message size",
            "1..256Ki 8-byte words; modes DWr/NoCached, DWr/Cached, "
            "DMA/Cached, MPI; 2 nodes",
            ("repro.kernels.pingpong", "repro.dv.api", "repro.ib.mpi"),
            "benchmarks/test_fig3_pingpong.py",
            "MPI higher at 32-128 words and >512 words; DV DMA/Cached "
            "reaches ~99% of its 4.4 GB/s peak at 256Ki words",
            _run_fig3),
        Experiment(
            "fig3b", "ping-pong bandwidth as % of nominal peak",
            "same sweep; peaks 4.4 GB/s (DV) and 6.8 GB/s (IB)",
            ("repro.kernels.pingpong", "repro.core.metrics"),
            "benchmarks/test_fig3_pingpong.py",
            "DV ~99% of peak vs MPI ~72% at 256Ki words",
            _run_fig3),
        Experiment(
            "fig4", "global barrier latency at scale",
            "2..32 nodes; DV intrinsic, Fast Barrier, MPI_Barrier",
            ("repro.kernels.barrier_bench", "repro.dv.barrier",
             "repro.ib.collectives"),
            "benchmarks/test_fig4_barrier.py",
            "DV flat (<1us); MPI grows steeply past 8 nodes to >10us",
            _run_fig4),
        Experiment(
            "fig5", "GUPS execution trace (Extrae-style)",
            "MPI GUPS, 4 nodes, traced",
            ("repro.core.trace", "repro.kernels.gups"),
            "benchmarks/test_fig5_trace.py",
            "no destination regularity to aggregate",
            None),
        Experiment(
            "fig6a", "GUPS per processing element",
            "weak scaling, 2^14 table words/node, 1024-update window, "
            "4..32 nodes",
            ("repro.kernels.gups",),
            "benchmarks/test_fig6_gups.py",
            "DV roughly flat; MPI decays steadily",
            _run_fig6),
        Experiment(
            "fig6b", "aggregate GUPS",
            "same sweep",
            ("repro.kernels.gups",),
            "benchmarks/test_fig6_gups.py",
            "DV aggregate scales; gap over MPI widens with nodes",
            _run_fig6),
        Experiment(
            "fig7", "FFT-1D aggregate GFLOPS",
            "2^18 points (paper: 2^33), four-step algorithm, 2..32 nodes",
            ("repro.kernels.fft1d",),
            "benchmarks/test_fig7_fft.py",
            "DV above MPI at every node count; gap widens",
            _run_fig7),
        Experiment(
            "fig8", "Graph500 harmonic-mean TEPS",
            "Kronecker scale 11+log2(P), edgefactor 16, 3 roots "
            "(paper: 64)",
            ("repro.kernels.bfs", "repro.kernels.kronecker"),
            "benchmarks/test_fig8_bfs.py",
            "DV above MPI with widening gap",
            _run_fig8),
        Experiment(
            "fig9", "application speedup DV vs MPI",
            "SNAP (best-effort port), Vorticity + Heat (restructured), "
            "32 nodes",
            ("repro.apps.snap", "repro.apps.vorticity",
             "repro.apps.heat"),
            "benchmarks/test_fig9_apps.py",
            "SNAP ~1.19x; restructured apps 2.46x-3.41x",
            _run_fig9),
        Experiment(
            "fig_scaleout", "cluster projection: 64-1024 nodes",
            "GUPS/BFS/FFT weak scaling on both fabrics, 64..1024 "
            "nodes, pooled fast flow engines",
            ("repro.core.scaling", "repro.dv.flow", "repro.ib.fabric"),
            "benchmarks/test_perf_regression.py",
            "per-PE DV rates stay near-flat across five doublings; "
            "MPI per-PE rates decay (SS IX extended)",
            _run_fig_scaleout),
        Experiment(
            "fig_skew", "GUPS vs destination skew (DV/IB ratio)",
            "GUPS under uniform / Zipf(0.6, 1.2, 1.8) / hot-set "
            "destination distributions, both fabrics",
            ("repro.traffic", "repro.kernels.gups"),
            "benchmarks/test_perf_regression.py",
            "deflection routing degrades gracefully as destinations "
            "concentrate; the fat-tree serialises on the hot node, so "
            "the DV/IB ratio widens with skew ([14]/[15] extended)",
            _run_fig_skew),
        Experiment(
            "fig_agg", "aggregated IB vs Data Vortex (crossover)",
            "GUPS under the skew levels with the repro.agg "
            "destination-coalescing runtime swept across watermarks "
            "on IB; un-aggregated DV/IB baselines per row",
            ("repro.agg", "repro.kernels.gups", "repro.traffic"),
            "benchmarks/test_perf_regression.py",
            "software coalescing rescues IB wherever per-message "
            "overhead dominates — uniform traffic crosses over at "
            "watermark >= 1024 (~1.5x DV, message ratio ~60x) and the "
            "hot-set at 8192 — but steeply skewed Zipf stays below DV "
            "even fully aggregated: fat frames amortise software "
            "overhead, not hot-receiver serialisation (Traff-style "
            "aggregation applied to the paper's §V irregularity "
            "argument)",
            _run_fig_agg),
        Experiment(
            "fig_interference", "multi-tenant co-scheduled slowdown",
            "regular x irregular workload pairs (GUPS, BFS, FFT, "
            "SNAP-style scan) co-scheduled on one cluster; slowdown = "
            "co-scheduled runtime / solo runtime per fabric",
            ("repro.tenancy", "repro.kernels.gups", "repro.kernels.bfs",
             "repro.kernels.fft1d", "repro.apps.snap"),
            "benchmarks/test_perf_regression.py",
            "the flat deflection fabric isolates co-tenants (DV "
            "slowdowns ~1.0: contention prices into per-hop latency "
            "only), while the oversubscribed fat tree's shared leaf "
            "uplinks do not — straddled-leaf tenants slow each other "
            "by tens of percent (SS II deflection argument under "
            "co-location)",
            _run_fig_interference),
        Experiment(
            "fig_faults", "throughput degradation vs packet loss",
            "GUPS and BFS at 4 nodes under packet-drop rates 0..10%, "
            "both fabrics",
            ("repro.faults", "repro.dv.transport"),
            "benchmarks/test_perf_regression.py",
            "DV's end-to-end reliable transport and IB's HCA retries "
            "both keep results valid; throughput falls as retransmits "
            "grow with the drop rate",
            _run_fig_faults),
        Experiment(
            "fig_switch_scaling", "switch scale-up study (SS IX)",
            "cycle-accurate switch, heights 8..128 (16..256 ports), "
            "64 uniform-random packets per port",
            ("repro.core.scaling", "repro.dv.switch"),
            "benchmarks/test_scaling_study.py",
            "one extra cylinder per doubling of ports; mean hops grow "
            "by a few per doubling and per-port throughput sags only "
            "mildly",
            _run_fig_switch_scaling),
    ]
}


def run_experiment(exp_id: str, executor=None, **kwargs) -> Table:
    """Regenerate one experiment's data by id.

    With an :class:`~repro.exec.Executor` carrying a cache, the whole
    figure table is memoised under (experiment id, kwargs, repro
    version, source digest, active aggregation and fault sessions): a
    re-run of an already-computed figure performs zero simulation
    work.
    """
    exp = REGISTRY.get(exp_id)
    if exp is None:
        raise KeyError(f"unknown experiment {exp_id!r}; "
                       f"known: {sorted(REGISTRY)}")
    if exp.runner is None:
        raise ValueError(f"{exp_id} has no table runner "
                         f"(see {exp.bench})")
    if executor is None:
        return exp.runner(**kwargs)
    runner = exp.runner
    if "executor" in inspect.signature(runner).parameters:
        # the runner's own points fan across the same pool and cache
        runner = functools.partial(runner, executor=executor)
    return executor.call(runner, name=f"experiment.{exp_id}", **kwargs)


def index_table() -> Table:
    """The DESIGN.md experiment index as a renderable table."""
    t = Table("Experiment index", ["id", "artifact", "bench"])
    for exp_id in sorted(REGISTRY):
        e = REGISTRY[exp_id]
        t.add_row(e.exp_id, e.title, e.bench)
    return t

"""Tenant workload builders.

Each builder mirrors the corresponding single-application entry point
(:func:`repro.kernels.gups.run_gups`, :func:`repro.kernels.bfs.run_bfs`
with one root, :func:`repro.kernels.fft1d.run_fft1d`,
:func:`repro.apps.snap.run_snap`) but splits it into the two halves the
co-scheduler needs: a rank ``program`` the shared engine can interleave
with other tenants', and a ``finish`` reduction turning the per-rank
values into the same metrics dict the standalone runner reports.  The
program bodies are the *unmodified* kernel generators, so a solo tenant
reproduces the legacy path event for event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.core.metrics import gflops_fft1d, harmonic_mean, mups, teps
from repro.sim.rng import rng_for
from repro.tenancy.spec import WORKLOADS, TenancyError

__all__ = ["TenantWorkload", "build_workload"]


@dataclass(frozen=True)
class TenantWorkload:
    """One tenant's runnable program plus its metrics reduction."""

    name: str
    program: Callable  # program(ctx) -> generator
    finish: Callable[[List[Dict[str, Any]]], Dict[str, Any]]


def build_workload(name: str, *, fabric: str, n_ranks: int, seed: int,
                   params: Optional[Mapping[str, Any]] = None,
                   traffic=None, agg_spec=None) -> TenantWorkload:
    """Build the named workload for one tenant's rank window."""
    if name not in WORKLOADS:
        raise TenancyError(
            f"unknown workload {name!r}; expected one of {WORKLOADS}")
    if fabric not in ("dv", "mpi"):
        raise TenancyError(f'fabric must be "dv" or "mpi", got {fabric!r}')
    builder = _BUILDERS[name]
    return builder(fabric=fabric, n_ranks=n_ranks, seed=seed,
                   traffic=traffic, agg_spec=agg_spec,
                   **dict(params or {}))


# ----------------------------------------------------------------- GUPS ---

def _build_gups(*, fabric: str, n_ranks: int, seed: int, traffic=None,
                agg_spec=None, table_words: int = 1 << 10,
                n_updates: Optional[int] = None, window: int = 256,
                aggregate: bool = True,
                validate: bool = False) -> TenantWorkload:
    from repro.kernels.gups import (_agg_gups, _dv_gups, _mpi_gups,
                                    tables_valid)
    if n_updates is None:
        n_updates = table_words
    if window < 1 or window > 1024:
        raise ValueError("HPCC rules: look-ahead window must be <= 1024")
    n_up = n_updates

    if agg_spec is not None:
        def program(ctx):
            return (yield from _agg_gups(ctx, table_words, n_up, window,
                                         seed, agg_spec, traffic))
    elif fabric == "dv":
        def program(ctx):
            return (yield from _dv_gups(ctx, table_words, n_up, window,
                                        seed, aggregate, traffic))
    else:
        def program(ctx):
            return (yield from _mpi_gups(ctx, table_words, n_up, window,
                                         seed, traffic))

    def finish(values: List[Dict[str, Any]]) -> Dict[str, Any]:
        elapsed = max(v["elapsed"] for v in values)
        total = n_up * n_ranks
        out: Dict[str, Any] = {
            "workload": "gups",
            "fabric": fabric,
            "n_ranks": n_ranks,
            "elapsed_s": elapsed,
            "mups_total": mups(total, elapsed),
            "mups_per_pe": mups(total, elapsed) / n_ranks,
        }
        if agg_spec is not None:
            from repro.agg.runtime import merge_stats
            out["agg"] = merge_stats(v["agg"] for v in values)
        if validate:
            out["valid"] = tables_valid([v["table"] for v in values],
                                        seed, table_words, n_up, traffic)
        return out

    return TenantWorkload("gups", program, finish)


# ------------------------------------------------------------------ BFS ---

def _build_bfs(*, fabric: str, n_ranks: int, seed: int, traffic=None,
               agg_spec=None, scale: int = 8, edgefactor: int = 8,
               window: int = 256,
               validate: bool = False) -> TenantWorkload:
    from repro.kernels.bfs import (_NO_PARENT, _agg_bfs, _dv_bfs,
                                   _LocalGraph, _mpi_bfs,
                                   validate_parent_tree)
    from repro.kernels.kronecker import degrees, kronecker_edges, to_csr

    rng = rng_for(seed, "graph500", scale)
    edges = kronecker_edges(scale, edgefactor, rng)
    n = 1 << scale
    if traffic is not None:
        from repro.traffic.placement import skewed_relabel
        relabel = skewed_relabel(degrees(edges, n), n_ranks, traffic.dist)
        edges = relabel[edges]
    offsets, targets = to_csr(edges, n)
    deg = np.diff(offsets)
    candidates = np.flatnonzero(deg > 0)
    root = int(rng.choice(candidates, size=1, replace=False)[0])

    def program(ctx):
        g = _LocalGraph(offsets, targets, ctx.rank, ctx.size)
        yield from ctx.barrier()
        ctx.mark("t0")
        agg_stats = None
        if agg_spec is not None:
            traversed, agg_stats = yield from _agg_bfs(
                ctx, g, root, seed, agg_spec)
        elif fabric == "dv":
            traversed = yield from _dv_bfs(ctx, g, root, window)
        else:
            traversed = yield from _mpi_bfs(ctx, g, root)
        elapsed = ctx.since("t0")
        out = {"elapsed": elapsed, "traversed": traversed,
               "parent": g.parent}
        if agg_stats is not None:
            out["agg"] = agg_stats
        return out

    def finish(values: List[Dict[str, Any]]) -> Dict[str, Any]:
        elapsed = max(v["elapsed"] for v in values)
        parent = np.concatenate([v["parent"] for v in values])[:n]
        visited = parent != _NO_PARENT
        traversed = int(deg[visited].sum()) // 2
        root_teps = teps(max(traversed, 1), elapsed)
        out: Dict[str, Any] = {
            "workload": "bfs",
            "fabric": fabric,
            "n_ranks": n_ranks,
            "scale": scale,
            "elapsed_s": elapsed,
            "harmonic_teps": harmonic_mean([root_teps]),
            "gteps": root_teps / 1e9,
        }
        if agg_spec is not None:
            from repro.agg.runtime import merge_stats
            out["agg"] = merge_stats(v["agg"] for v in values)
        if validate:
            out["valid"] = bool(
                validate_parent_tree(offsets, targets, root, parent))
        return out

    return TenantWorkload("bfs", program, finish)


# ------------------------------------------------------------------ FFT ---

def _build_fft(*, fabric: str, n_ranks: int, seed: int, traffic=None,
               agg_spec=None, log2_points: int = 10,
               validate: bool = False) -> TenantWorkload:
    from repro.kernels.fft1d import _check, _fft_program, _prepare
    if traffic is not None:
        raise TenancyError(
            "the FFT has a fixed all-to-all pattern; traffic models "
            "do not apply")
    if agg_spec is not None:
        raise TenancyError("aggregation does not apply to the FFT")
    P = n_ranks
    N = 1 << log2_points
    n1, n2, blocks, ref = _prepare(seed, log2_points, P,
                                   validate=validate)

    def program(ctx):
        return (yield from _fft_program(ctx, blocks, n1, n2, fabric))

    def finish(values: List[Dict[str, Any]]) -> Dict[str, Any]:
        elapsed = max(v["elapsed"] for v in values)
        out: Dict[str, Any] = {
            "workload": "fft",
            "fabric": fabric,
            "n_ranks": P,
            "n_points": N,
            "elapsed_s": elapsed,
            "gflops": gflops_fft1d(N, elapsed),
        }
        if validate:
            out["valid"] = _check([v["out"] for v in values], ref, n1,
                                  n2)[1]
        return out

    return TenantWorkload("fft", program, finish)


# ------------------------------------------- SNAP-style transport scan ---

def _build_scan(*, fabric: str, n_ranks: int, seed: int, traffic=None,
                agg_spec=None, nx: int = 8, ny_per_rank: int = 2,
                nz: int = 8, n_angles: int = 8, chunk: int = 4,
                sigma: float = 1.0, dy: float = 0.1,
                validate: bool = False) -> TenantWorkload:
    from repro.apps.snap import (_snap_dv, _snap_mpi, angle_quadrature,
                                 serial_sweep)
    if traffic is not None:
        raise TenancyError(
            "the transport scan's neighbour pattern is mesh-derived; "
            "traffic models do not apply")
    if agg_spec is not None:
        raise TenancyError(
            "aggregation does not apply to the transport scan")
    P = n_ranks
    ny = ny_per_rank * P
    rng = np.random.default_rng(seed)
    source = rng.random((ny, nx, nz))
    quad = angle_quadrature(n_angles)

    def program(ctx):
        local = source[ctx.rank * ny_per_rank:
                       (ctx.rank + 1) * ny_per_rank].copy()
        if fabric == "dv":
            return (yield from _snap_dv(ctx, local, quad, sigma, dy,
                                        chunk))
        return (yield from _snap_mpi(ctx, local, quad, sigma, dy, chunk))

    def finish(values: List[Dict[str, Any]]) -> Dict[str, Any]:
        elapsed = max(v["elapsed"] for v in values)
        out: Dict[str, Any] = {
            "workload": "scan",
            "fabric": fabric,
            "n_ranks": P,
            "mesh": (nx, ny, nz),
            "n_angles": n_angles,
            "elapsed_s": elapsed,
            "cell_angle_sweeps_per_s":
                2 * nx * ny * nz * n_angles / elapsed,
        }
        if validate:
            phi = np.concatenate([v["phi"] for v in values], axis=0)
            ref = serial_sweep(source, quad, sigma, dy)
            out["valid"] = bool(np.allclose(phi, ref, atol=1e-12)
                                and np.all(phi >= 0))
        return out

    return TenantWorkload("scan", program, finish)


_BUILDERS = {
    "gups": _build_gups,
    "bfs": _build_bfs,
    "fft": _build_fft,
    "scan": _build_scan,
}

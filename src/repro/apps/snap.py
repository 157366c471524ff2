"""SNAP-style discrete-ordinates transport sweep proxy (paper §VII).

SNAP mimics the computational pattern of PARTISN: an iterative sweep of
a spatial mesh along every direction of an angular quadrature.  This
proxy keeps the communication skeleton that matters for the network
comparison — pipelined wavefront sweeps with a boundary-plane message
per (direction, angle-chunk, pipeline stage) — and a diamond-difference
update as the per-cell work.

The mesh is ``nx x ny x nz``, decomposed in 1-D slabs along y.  For each
sweep direction (+y then -y) and each chunk of angles, a rank receives
the upstream boundary plane (nx*nz values per angle in the chunk),
sweeps its slab plane by plane, and forwards the downstream boundary.
Chunking the angles pipelines the sweep: rank r works on chunk c while
rank r+1 works on chunk c-1.

* **MPI version**: plane messages via ``send``/``recv`` — mid-sized,
  perfectly predictable, classic HPC traffic that InfiniBand likes.
* **Data Vortex version** ("best-effort port", as the paper describes):
  the same structure with receives replaced by preset group counters and
  sends by DMA word streams into the downstream VIC's DV memory,
  double-buffered by chunk parity.  No restructuring — which is why the
  measured gain is modest (Fig. 9 reports 1.19x).

Validation: the distributed sweep result equals a serial sweep of the
same mesh exactly, and the scalar flux is physically non-negative.
"""

from __future__ import annotations

from typing import Dict, Generator

import numpy as np

from repro.core.cluster import ClusterSpec, KernelJob, run_spmd
from repro.core.context import RankContext

_CTR_EVEN = 55
_CTR_ODD = 56
_CTR_CREDIT_EVEN = 57
_CTR_CREDIT_ODD = 58


def angle_quadrature(n_angles: int) -> np.ndarray:
    """Per-angle (mu, weight) pairs: a simple symmetric level set."""
    mu = np.linspace(0.1, 0.9, n_angles)
    w = np.full(n_angles, 1.0 / n_angles)
    return np.stack([mu, w], axis=1)


def sweep_slab(psi_in: np.ndarray, source: np.ndarray, mu: np.ndarray,
               weights: np.ndarray, sigma: float, dy: float,
               forward: bool) -> tuple:
    """Diamond-difference sweep of one y-slab for a chunk of angles.

    Parameters
    ----------
    psi_in:
        Incoming angular flux planes, shape (n_angles, nx, nz).
    source:
        Isotropic source for the slab, shape (ny_local, nx, nz).
    mu, weights:
        Direction cosines and quadrature weights of the angle chunk.
    sigma, dy:
        Total cross-section and cell width.
    forward:
        Sweep toward +y (True) or -y.

    Returns
    -------
    (psi_out, phi): outgoing planes (n_angles, nx, nz) and the slab's
    weighted scalar-flux contribution (ny_local, nx, nz).  Weighted sums
    compose across angle chunks, so chunked and monolithic sweeps agree.
    """
    ny = source.shape[0]
    psi = psi_in.copy()
    phi = np.zeros_like(source)
    planes = range(ny) if forward else range(ny - 1, -1, -1)
    c = mu[:, None, None] / dy
    w = weights[:, None, None]
    for j in planes:
        # diamond difference: psi_out = (q + 2c*psi_in) / (sigma + 2c)
        psi = (source[j][None, :, :] + 2.0 * c * psi) / (sigma + 2.0 * c)
        phi[j] += (w * psi).sum(axis=0)
    return psi, phi


def serial_sweep(source: np.ndarray, quad: np.ndarray, sigma: float,
                 dy: float) -> np.ndarray:
    """Full-mesh reference sweep (both directions, all angles)."""
    ny, nx, nz = source.shape
    phi = np.zeros_like(source)
    for forward in (True, False):
        mu, w = quad[:, 0], quad[:, 1]
        psi_in = np.zeros((quad.shape[0], nx, nz))
        _, contrib = sweep_slab(psi_in, source, mu, w, sigma, dy, forward)
        phi += contrib
    return phi


def _f2w(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, np.float64).view(np.uint64).ravel()


def _w2f(w: np.ndarray, shape) -> np.ndarray:
    return w.view(np.float64).reshape(shape)


def _sweep_cost(ctx: RankContext, cells: int, n_ang: int) -> Generator:
    # ~12 flops per cell-angle for the diamond-difference update
    yield from ctx.compute(flops=12.0 * cells * n_ang, dispatches=1)


def _snap_mpi(ctx: RankContext, source: np.ndarray, quad: np.ndarray,
              sigma: float, dy: float, chunk: int) -> Generator:
    mpi = ctx.mpi
    P = ctx.size
    ny, nx, nz = source.shape
    phi = np.zeros_like(source)
    n_angles = quad.shape[0]

    yield from ctx.barrier()
    ctx.mark("t0")
    for forward in (True, False):
        upstream = ctx.rank - 1 if forward else ctx.rank + 1
        downstream = ctx.rank + 1 if forward else ctx.rank - 1
        first = (ctx.rank == 0) if forward else (ctx.rank == P - 1)
        last = (ctx.rank == P - 1) if forward else (ctx.rank == 0)
        for c0 in range(0, n_angles, chunk):
            mu = quad[c0:c0 + chunk, 0]
            w = quad[c0:c0 + chunk, 1]
            n_ang = mu.shape[0]
            if first:
                psi_in = np.zeros((n_ang, nx, nz))
            else:
                psi_in, _, _ = yield from mpi.recv(
                    upstream, tag=2000 + c0 + (0 if forward else 1))
            psi_out, contrib = sweep_slab(psi_in, source, mu, w, sigma,
                                          dy, forward)
            phi += contrib
            yield from _sweep_cost(ctx, source.size, n_ang)
            if not last:
                yield from mpi.send(
                    downstream, psi_out,
                    tag=2000 + c0 + (0 if forward else 1))
    elapsed = ctx.since("t0")
    return {"elapsed": elapsed, "phi": phi}


def _snap_dv(ctx: RankContext, source: np.ndarray, quad: np.ndarray,
             sigma: float, dy: float, chunk: int) -> Generator:
    from repro.apps.pipeline import CounterPipe

    api = ctx.dv
    P = ctx.size
    ny, nx, nz = source.shape
    phi = np.zeros_like(source)
    n_angles = quad.shape[0]
    chunk_ids = list(range(0, n_angles, chunk))
    sizes = [quad[c0:c0 + chunk].shape[0] * nx * nz for c0 in chunk_ids]

    yield from ctx.barrier()
    ctx.mark("t0")
    for forward in (True, False):
        upstream = ctx.rank - 1 if forward else ctx.rank + 1
        downstream = ctx.rank + 1 if forward else ctx.rank - 1
        first = (ctx.rank == 0) if forward else (ctx.rank == P - 1)
        last = (ctx.rank == P - 1) if forward else (ctx.rank == 0)
        pipe = CounterPipe(ctx,
                           upstream=None if first else upstream,
                           downstream=None if last else downstream,
                           sizes=sizes, ctr_base=_CTR_EVEN,
                           region_base=0)
        yield from pipe.setup()
        yield from ctx.barrier()   # presets before any packet flies
        for i, c0 in enumerate(chunk_ids):
            mu = quad[c0:c0 + chunk, 0]
            wts = quad[c0:c0 + chunk, 1]
            n_ang = mu.shape[0]
            if first:
                psi_in = np.zeros((n_ang, nx, nz))
            else:
                wrd = yield from pipe.recv(i)
                psi_in = _w2f(wrd, (n_ang, nx, nz))
            psi_out, contrib = sweep_slab(psi_in, source, mu, wts, sigma,
                                          dy, forward)
            phi += contrib
            yield from _sweep_cost(ctx, source.size, n_ang)
            if not last:
                yield from pipe.send(i, _f2w(psi_out))
        yield from pipe.finish()
        yield from ctx.barrier()   # directions do not overlap
    elapsed = ctx.since("t0")
    return {"elapsed": elapsed, "phi": phi}


def snap_job(n_ranks: int, fabric: str, seed: int, traffic=None,
             agg_spec=None, *, nx: int = 16, ny_per_rank: int = 8,
             nz: int = 16, n_angles: int = 32, chunk: int = 4,
             sigma: float = 1.0, dy: float = 0.1,
             validate: bool = False) -> KernelJob:
    """The SNAP sweep proxy as a kernel job.

    The global mesh is ``nx x (ny_per_rank * n_ranks) x nz`` with
    ``n_angles`` directions swept in chunks of ``chunk``.  The
    neighbour pattern is mesh-derived: a traffic model or an
    aggregation spec raises.
    """
    if traffic is not None:
        raise ValueError("the transport scan's neighbour pattern is "
                         "mesh-derived; traffic models do not apply")
    if agg_spec is not None:
        raise ValueError("aggregation does not apply to the transport scan")
    ny = ny_per_rank * n_ranks
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

    def finish(runs) -> Dict[str, object]:
        (values,) = runs
        elapsed = max(v["elapsed"] for v in values)
        out: Dict[str, object] = {
            "fabric": fabric, "n_nodes": n_ranks, "elapsed_s": elapsed,
            "mesh": (nx, ny, nz), "n_angles": n_angles,
            "cell_angle_sweeps_per_s":
                2 * nx * ny * nz * n_angles / elapsed,
        }
        if validate:
            phi = np.concatenate([v["phi"] for v in values], axis=0)
            ref = serial_sweep(source, quad, sigma, dy)
            out["max_error"] = float(np.max(np.abs(phi - ref)))
            out["valid"] = bool(np.allclose(phi, ref, atol=1e-12)
                                and np.all(phi >= 0))
        return out

    return KernelJob((program,), finish)


def run_snap(spec: ClusterSpec, fabric: str, **params) -> Dict[str, object]:
    """Run the SNAP sweep proxy on one fabric; ``params`` are
    :func:`snap_job`'s keywords.  A ``spec.traffic`` or
    ``spec.aggregation`` raises: the sweep's communication pattern is
    fixed."""
    job = snap_job(spec.n_nodes, fabric, spec.seed, spec.traffic,
                   spec.aggregation, **params)
    return job.finish([run_spmd(spec, job.programs[0], fabric).values])


def run_snap_iterative(spec: ClusterSpec, fabric: str, *,
                       scattering: float = 0.5, tol: float = 1e-6,
                       max_iters: int = 50, nx: int = 8,
                       ny_per_rank: int = 4, nz: int = 8,
                       n_angles: int = 8, chunk: int = 2,
                       sigma: float = 1.0, dy: float = 0.1,
                       validate: bool = False) -> Dict[str, object]:
    """Source iteration: the outer loop real SN codes wrap around the
    sweep (paper SS VII: dimensions are "iteratively calculated").

    Solves ``phi = S[q + c * sigma * phi]`` by repeated sweeps, where
    ``S`` is the transport sweep and ``c`` the scattering ratio; each
    iteration ends with a global max-residual reduction.  Converges for
    ``c < 1`` (the spectral radius of source iteration).
    """
    if not 0 <= scattering < 1:
        raise ValueError("source iteration needs 0 <= c < 1")
    P = spec.n_nodes
    ny = ny_per_rank * P
    rng = np.random.default_rng(spec.seed)
    q_ext = rng.random((ny, nx, nz))
    quad = angle_quadrature(n_angles)

    def program(ctx):
        lo = ctx.rank * ny_per_rank
        q_local = q_ext[lo:lo + ny_per_rank].copy()
        phi = np.zeros_like(q_local)
        yield from ctx.barrier()
        ctx.mark("outer_t0")
        iters = 0
        residual = float("inf")
        while iters < max_iters and residual > tol:
            source = q_local + scattering * sigma * phi
            if fabric == "dv":
                out = yield from _snap_dv(ctx, source, quad, sigma, dy,
                                          chunk)
            else:
                out = yield from _snap_mpi(ctx, source, quad, sigma,
                                           dy, chunk)
            phi_new = out["phi"]
            local_res = float(np.max(np.abs(phi_new - phi)))
            yield from ctx.compute(stream_bytes=8.0 * phi.size)
            if fabric == "dv":
                # restructured residual reduction: all-to-all one-word
                # writes + local max (same idiom as the heat app)
                api = ctx.dv
                yield from api.set_counter(59, max(ctx.size - 1, 0))
                yield from ctx.barrier()
                if ctx.size > 1:
                    slot = yield from api.exchange_words(
                        np.float64(local_res).view(np.uint64),
                        base=512, counter=59)
                    residual = float(slot.max().view(np.float64))
                else:
                    residual = local_res
            else:
                residual = yield from ctx.mpi.allreduce(local_res, max)
            phi = phi_new
            iters += 1
        elapsed = ctx.since("outer_t0")
        return {"elapsed": elapsed, "phi": phi, "iters": iters,
                "residual": residual}

    res = run_spmd(spec, program, fabric)
    elapsed = max(v["elapsed"] for v in res.values)
    iters = res.values[0]["iters"]
    out: Dict[str, object] = {
        "fabric": fabric, "n_nodes": P, "elapsed_s": elapsed,
        "iterations": iters, "residual": res.values[0]["residual"],
        "converged": bool(res.values[0]["residual"] <= tol),
    }
    if validate:
        # serial fixed point of the same iteration
        phi_ref = np.zeros((ny, nx, nz))
        for _ in range(iters):
            phi_ref = serial_sweep(q_ext + scattering * sigma * phi_ref,
                                   quad, sigma, dy)
        phi = np.concatenate([v["phi"] for v in res.values], axis=0)
        out["max_error"] = float(np.max(np.abs(phi - phi_ref)))
        out["valid"] = bool(np.allclose(phi, phi_ref, atol=1e-10))
    return out

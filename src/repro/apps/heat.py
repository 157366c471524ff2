"""3-D heat equation with domain decomposition (paper §VII).

Explicit FTCS stepping of ``u_t = alpha * laplace(u)`` on a periodic
cube, decomposed over a 3-D process grid: every rank exchanges six halo
faces per step — "a large number of small messages" (§VII).

* **MPI version**: six non-blocking face exchanges per step (isend/irecv
  against the ±x, ±y, ±z neighbours), each paying per-message software
  overhead and, for faces above the eager threshold, a rendezvous
  handshake.

* **Data Vortex version** (restructured): all six faces leave in *one*
  source-aggregated DMA per step, landing directly in the neighbours' DV
  memory; arrival is detected with double-buffered group counters (even/
  odd step parity), so steady-state stepping needs no barrier at all.

Validation: the decay of a periodic sine mode matches the exact FTCS
amplification factor, and the distributed field equals a serial stepper
bit for bit.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Tuple

import numpy as np

from repro.core.cluster import ClusterSpec, run_spmd
from repro.core.context import RankContext

_CTR_EVEN = 50
_CTR_ODD = 51
_CTR_RES_EVEN = 52
_CTR_RES_ODD = 53


def process_grid(p: int) -> Tuple[int, int, int]:
    """Factor ``p`` into three near-equal factors (largest first)."""
    best = (p, 1, 1)
    for a in range(1, int(round(p ** (1 / 3))) + 2):
        if p % a:
            continue
        q = p // a
        for b in range(a, int(q ** 0.5) + 2):
            if q % b:
                continue
            c = q // b
            if c >= b >= a:
                cand = (c, b, a)
                if max(cand) - min(cand) < max(best) - min(best):
                    best = cand
    return best


def _coords(rank: int, grid: Tuple[int, int, int]) -> Tuple[int, int, int]:
    px, py, pz = grid
    return (rank // (py * pz), (rank // pz) % py, rank % pz)


def _rank_of(c: Tuple[int, int, int], grid: Tuple[int, int, int]) -> int:
    px, py, pz = grid
    return (c[0] % px) * py * pz + (c[1] % py) * pz + (c[2] % pz)


def _neighbours(rank: int, grid: Tuple[int, int, int]) -> List[int]:
    """The six periodic neighbours in order -x,+x,-y,+y,-z,+z."""
    x, y, z = _coords(rank, grid)
    return [
        _rank_of((x - 1, y, z), grid), _rank_of((x + 1, y, z), grid),
        _rank_of((x, y - 1, z), grid), _rank_of((x, y + 1, z), grid),
        _rank_of((x, y, z - 1), grid), _rank_of((x, y, z + 1), grid),
    ]


def step_serial(u: np.ndarray, r: float) -> np.ndarray:
    """One periodic FTCS step on the full grid (reference)."""
    lap = (np.roll(u, 1, 0) + np.roll(u, -1, 0)
           + np.roll(u, 1, 1) + np.roll(u, -1, 1)
           + np.roll(u, 1, 2) + np.roll(u, -1, 2) - 6 * u)
    return u + r * lap


def initial_field(n: int) -> np.ndarray:
    """Periodic sine mode (its FTCS decay rate is known exactly)."""
    x = np.arange(n) * (2 * np.pi / n)
    return (np.sin(x)[:, None, None]
            * np.sin(x)[None, :, None]
            * np.sin(x)[None, None, :])


def _local_block(u: np.ndarray, rank: int, grid, n: int) -> np.ndarray:
    px, py, pz = grid
    bx, by, bz = n // px, n // py, n // pz
    x, y, z = _coords(rank, grid)
    return u[x * bx:(x + 1) * bx, y * by:(y + 1) * by,
             z * bz:(z + 1) * bz].copy()


def _faces_out(u: np.ndarray) -> List[np.ndarray]:
    """Outgoing boundary planes in order -x,+x,-y,+y,-z,+z."""
    return [u[0], u[-1], u[:, 0], u[:, -1], u[:, :, 0], u[:, :, -1]]


def _step_with_halos(u: np.ndarray, halos: List[np.ndarray],
                     r: float) -> np.ndarray:
    """FTCS update of the local block given the six neighbour faces
    (halos ordered -x,+x,-y,+y,-z,+z: the plane adjacent to that side)."""
    lap = -6.0 * u
    # -x neighbour face abuts u[0]; shifting down pulls it in
    lap += np.concatenate([halos[0][None], u[:-1]], axis=0)
    lap += np.concatenate([u[1:], halos[1][None]], axis=0)
    lap += np.concatenate([halos[2][:, None], u[:, :-1]], axis=1)
    lap += np.concatenate([u[:, 1:], halos[3][:, None]], axis=1)
    lap += np.concatenate([halos[4][:, :, None], u[:, :, :-1]], axis=2)
    lap += np.concatenate([u[:, :, 1:], halos[5][:, :, None]], axis=2)
    return u + r * lap


def _f2w(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, np.float64).view(np.uint64).ravel()


def _w2f(w: np.ndarray, shape) -> np.ndarray:
    return w.view(np.float64).reshape(shape)


def _heat_mpi(ctx: RankContext, u: np.ndarray, grid, r: float,
              steps: int) -> Generator:
    mpi = ctx.mpi
    nbrs = _neighbours(ctx.rank, grid)
    yield from ctx.barrier()
    ctx.mark("t0")
    opp = [1, 0, 3, 2, 5, 4]
    for s in range(steps):
        faces = _faces_out(u)
        # each side: send my face toward that side's neighbour, receive
        # the opposing plane (tag by side so periodic pairs
        # disambiguate).  A self-neighbour (grid dimension 1) is a
        # local periodic wrap — no message.
        sides = [i for i in range(6) if nbrs[i] != ctx.rank]
        sends = [mpi.isend(nbrs[i], faces[i], tag=1000 + s * 8 + i)
                 for i in sides]
        recvs = {i: mpi.irecv(nbrs[i], tag=1000 + s * 8 + opp[i])
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
        u_new = _step_with_halos(u, halos, r)
        yield from ctx.compute(flops=8.0 * u.size,
                               stream_bytes=8.0 * u.size * 2,
                               dispatches=6)
        # steady-state monitoring: global max |du| every step
        res = float(np.max(np.abs(u_new - u)))
        yield from ctx.compute(stream_bytes=8.0 * u.size, dispatches=1)
        res = yield from mpi.allreduce(res, max)
        u = u_new
    elapsed = ctx.since("t0")
    return {"elapsed": elapsed, "u": u, "residual": res}


def _heat_dv(ctx: RankContext, u: np.ndarray, grid, r: float,
             steps: int) -> Generator:
    api = ctx.dv
    nbrs = _neighbours(ctx.rank, grid)
    opp = [1, 0, 3, 2, 5, 4]
    face_words = [int(np.prod(f.shape)) for f in _faces_out(u)]
    # sides whose neighbour is another rank; self-neighbours (grid
    # dimension 1) wrap locally and never touch the network
    sides = [i for i in range(6) if nbrs[i] != ctx.rank]
    # DV-memory layout: per step parity, six slots of face data
    offs = np.concatenate([[0], np.cumsum(face_words)])
    parity_stride = int(offs[-1])
    #: incoming words per step (remote faces only)
    expected = sum(face_words[i] for i in sides)
    P = ctx.size
    res_base = 2 * parity_stride   # per-parity rank-indexed residual slots

    yield from api.set_counter(_CTR_EVEN, expected)
    yield from api.set_counter(_CTR_ODD, expected)
    if P > 1:
        yield from api.set_counter(_CTR_RES_EVEN, P - 1)
        yield from api.set_counter(_CTR_RES_ODD, P - 1)
    yield from ctx.barrier()
    ctx.mark("t0")
    for s in range(steps):
        ctr = _CTR_EVEN if s % 2 == 0 else _CTR_ODD
        base = (s % 2) * parity_stride
        faces = _faces_out(u)
        # one aggregated transfer: every remote face, all destinations.
        # face i lands in neighbour's slot for side opp[i] (my -x face is
        # their +x halo); self-neighbour faces wrap locally for free.
        if sides:
            dests = np.concatenate([
                np.full(face_words[i], nbrs[i], np.int64)
                for i in sides])
            addrs = np.concatenate([
                base + offs[opp[i]] + np.arange(face_words[i])
                for i in sides])
            values = np.concatenate([_f2w(faces[i]) for i in sides])
            yield from api.send_batch(dests, addrs, values, counter=ctr,
                                      cached_headers=True, via="dma")
        yield from api.wait_counter_zero(ctr)
        # overlapped multi-buffered drain; functional copy is free
        yield from api.drain_overlapped(max(expected, 1))
        words = api.vic.memory.read_range(base, parity_stride)
        # recycle the parity counter for step s + 2
        yield from api.set_counter(ctr, expected)
        halos = [_w2f(words[offs[i]:offs[i + 1]], faces[i].shape)
                 if nbrs[i] != ctx.rank else faces[opp[i]]
                 for i in range(6)]
        u_new = _step_with_halos(u, halos, r)
        yield from ctx.compute(flops=8.0 * u.size,
                               stream_bytes=8.0 * u.size * 2,
                               dispatches=6)
        # steady-state monitoring, restructured for the DV: every rank
        # writes its residual word into everyone's DV memory and reduces
        # locally — no tree collective, just P-1 fine-grained packets
        res = float(np.max(np.abs(u_new - u)))
        yield from ctx.compute(stream_bytes=8.0 * u.size, dispatches=1)
        if P > 1:
            rctr = _CTR_RES_EVEN if s % 2 == 0 else _CTR_RES_ODD
            slot = yield from api.exchange_words(
                np.float64(res).view(np.uint64),
                base=res_base + (s % 2) * P, counter=rctr)
            yield from api.set_counter(rctr, P - 1)  # recycle for s + 2
            # non-negative IEEE doubles order like their bit patterns
            res = float(slot.max().view(np.float64))
        u = u_new
    elapsed = ctx.since("t0")
    return {"elapsed": elapsed, "u": u, "residual": res}


def run_heat(spec: ClusterSpec, fabric: str, *, n: int = 32,
             steps: int = 10, r: float = 0.1, decomp: str = "3d",
             validate: bool = False) -> Dict[str, object]:
    """Run the heat-equation application on one fabric.

    ``n`` is the global cube edge; it must be divisible by each process-
    grid dimension.  ``r = alpha dt / h^2`` must be < 1/6 for stability.
    ``decomp`` picks the domain decomposition: ``"3d"`` (near-cubic
    process grid, six small faces per step — the paper's "large number
    of small messages") or ``"1d"`` (slabs along x, two big faces —
    the bandwidth-friendly layout used for the decomposition ablation).
    """
    if not 0 < r < 1 / 6:
        raise ValueError("FTCS stability requires 0 < r < 1/6")
    if decomp == "3d":
        grid = process_grid(spec.n_nodes)
    elif decomp == "1d":
        grid = (spec.n_nodes, 1, 1)
    else:
        raise ValueError('decomp must be "1d" or "3d"')
    if any(n % g for g in grid):
        raise ValueError(f"n={n} not divisible by process grid {grid}")
    u0 = initial_field(n)

    def program(ctx):
        u = _local_block(u0, ctx.rank, grid, n)
        if fabric == "dv":
            return (yield from _heat_dv(ctx, u, grid, r, steps))
        return (yield from _heat_mpi(ctx, u, grid, r, steps))

    res = run_spmd(spec, program, fabric)
    elapsed = max(v["elapsed"] for v in res.values)
    out: Dict[str, object] = {
        "fabric": fabric, "n_nodes": spec.n_nodes, "n": n,
        "steps": steps, "decomp": decomp, "elapsed_s": elapsed,
        "cell_steps_per_s": n ** 3 * steps / elapsed,
    }
    if validate:
        ref = u0
        for _ in range(steps):
            ref = step_serial(ref, r)
        px, py, pz = grid
        bx, by, bz = n // px, n // py, n // pz
        got = np.empty_like(u0)
        for rank, v in enumerate(res.values):
            x, y, z = _coords(rank, grid)
            got[x * bx:(x + 1) * bx, y * by:(y + 1) * by,
                z * bz:(z + 1) * bz] = v["u"]
        out["max_error"] = float(np.max(np.abs(got - ref)))
        out["valid"] = bool(np.allclose(got, ref, atol=1e-12))
    return out

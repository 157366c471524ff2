"""Distributed sparse matrix-vector multiplication (power iteration).

The paper's introduction names "sparse matrices" among the pointer-based
structures whose irregular access patterns motivate the Data Vortex;
this kernel makes that workload concrete: repeated ``y = A x`` over the
adjacency matrix of a Kronecker graph (power iteration — the core of
PageRank/eigensolvers), row-distributed.

The communication is the classic irregular halo: each rank's rows touch
a scattered, graph-dependent subset of remote ``x`` entries.

* **MPI version** — per-iteration ``alltoallv`` of exactly the needed
  entries, plus an ``allreduce`` for the normalisation;
* **Data Vortex version** — each rank *pushes* the entries its peers
  need straight into their DV memory (source-aggregated fine-grained
  writes under double-buffered parity counters, the heat-app idiom) and
  reduces the norm with all-to-all single-word writes.  No barrier in
  the steady state.

The exchange *schedule* (who needs what) is static per matrix and is
computed during setup, outside the timed region — exactly how real
sparse solvers amortise it.

Validation: the distributed iterate equals ``scipy.sparse`` power
iteration on the full matrix to round-off.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

import numpy as np

from repro.core.cluster import ClusterSpec, run_spmd
from repro.core.context import RankContext
from repro.kernels.kronecker import kronecker_edges
from repro.sim.rng import rng_for

if TYPE_CHECKING:  # pragma: no cover - scipy loads on first use
    import scipy.sparse as sp

_CTR_X_EVEN = 36
_CTR_X_ODD = 37
_CTR_NORM_EVEN = 38
_CTR_NORM_ODD = 39


def build_matrix(scale: int, edgefactor: int, seed: int) -> sp.csr_matrix:
    """Symmetric adjacency matrix of a Kronecker graph (float64)."""
    import scipy.sparse as sp

    rng = rng_for(seed, "spmv", scale)
    edges = kronecker_edges(scale, edgefactor, rng)
    n = 1 << scale
    not_loop = edges[0] != edges[1]
    src = np.concatenate([edges[0][not_loop], edges[1][not_loop]])
    dst = np.concatenate([edges[1][not_loop], edges[0][not_loop]])
    a = sp.csr_matrix((np.ones(src.size), (src, dst)), shape=(n, n))
    a.sum_duplicates()
    return a


def serial_power_iteration(a: sp.csr_matrix, x0: np.ndarray,
                           iters: int) -> np.ndarray:
    """Reference: normalised power iteration with scipy."""
    x = x0.copy()
    for _ in range(iters):
        y = a @ x
        x = y / np.linalg.norm(y)
    return x


def _exchange_plan(a: sp.csr_matrix, rank: int, size: int):
    """Static halo schedule for one rank.

    Returns (needed_by_peer, wanted_from_peer): per-peer sorted global
    index arrays — which of *my* x entries each peer needs, and which of
    each peer's entries my rows touch.
    """
    n = a.shape[0]
    block = (n + size - 1) // size
    lo, hi = rank * block, min((rank + 1) * block, n)
    my_rows = a[lo:hi]
    touched = np.unique(my_rows.indices)
    wanted = [touched[(touched >= p * block)
                      & (touched < min((p + 1) * block, n))]
              for p in range(size)]
    # who needs mine: peers whose rows touch my column range
    needed = []
    for p in range(size):
        plo, phi = p * block, min((p + 1) * block, n)
        prows = a[plo:phi]
        t = np.unique(prows.indices)
        needed.append(t[(t >= lo) & (t < hi)])
    return needed, wanted, (lo, hi, block)


def run_spmv(spec: ClusterSpec, fabric: str, *, scale: int = 10,
             edgefactor: int = 8, iters: int = 5,
             validate: bool = False) -> Dict[str, object]:
    """Run distributed power iteration; reports sustained GFLOP/s
    (2 flops per stored nonzero per iteration)."""
    if iters < 1:
        raise ValueError("need at least one iteration")
    P = spec.n_nodes
    a = build_matrix(scale, edgefactor, spec.seed)
    n = a.shape[0]
    rng = rng_for(spec.seed, "spmv-x0")
    x0 = rng.random(n)

    # the static halo schedule of every rank, computed once
    plans = [_exchange_plan(a, r, P) for r in range(P)]
    # halo words each rank receives: the stride of its parity-doubled
    # halo region
    strides = [max(sum(w.size for q, w in enumerate(plan[1]) if q != r), 1)
               for r, plan in enumerate(plans)]
    # every rank's norm slots sit above the largest halo region
    norm_base = 2 * max(strides)

    def program(ctx: RankContext):
        needed, wanted, (lo, hi, block) = plans[ctx.rank]
        rows = a[lo:hi]
        nnz = rows.nnz
        x_full = np.zeros(n)
        x_full[lo:hi] = x0[lo:hi]
        peers = [p for p in range(P) if p != ctx.rank]

        if fabric == "dv":
            api = ctx.dv
            # DV-memory layout: parity-doubled halo region; entry for
            # global index g from peer p lands at a fixed slot
            recv_from = {p: wanted[p] for p in peers if wanted[p].size}
            slot_of = {}
            off = 0
            for p, idxs in recv_from.items():
                for g in idxs:
                    slot_of[int(g)] = off
                    off += 1
            stride = strides[ctx.rank]
            expected = off

            # Static setup: my entries' addresses inside every peer's
            # (parity-doubled) halo region and that peer's strides.  In
            # a real code these are exchanged once at setup; here every
            # rank derives them from the shared matrix, outside the
            # timed region.
            send_plan = []   # (peer, my_indices, addrs0, peer_stride)
            for p in peers:
                pw = plans[p][1]
                addr_map = {}
                o = 0
                for q in range(P):
                    if q == p:
                        continue
                    for g in pw[q]:
                        addr_map[int(g)] = o
                        o += 1
                mine_for_p = needed[p]
                if not mine_for_p.size:
                    continue
                addrs0 = np.array([addr_map[int(g)]
                                   for g in mine_for_p], np.int64)
                send_plan.append((p, mine_for_p, addrs0, strides[p]))
            slot_idx = np.array(sorted(slot_of, key=slot_of.get),
                                np.int64)

            yield from api.set_counter(_CTR_X_EVEN, expected)
            yield from api.set_counter(_CTR_X_ODD, expected)
            if P > 1:
                yield from api.set_counter(_CTR_NORM_EVEN, P - 1)
                yield from api.set_counter(_CTR_NORM_ODD, P - 1)
            yield from ctx.barrier()
            ctx.mark("t0")
            for it in range(iters):
                parity = it % 2
                ctr = _CTR_X_EVEN if parity == 0 else _CTR_X_ODD
                base = parity * stride
                # push my entries into every peer's halo region
                for p, idxs, addrs0, p_stride in send_plan:
                    yield from api.send_batch(
                        np.full(idxs.size, p),
                        addrs0 + parity * p_stride,
                        x_full[idxs].view(np.uint64),
                        counter=ctr, cached_headers=True, via="dma")
                if expected:
                    yield from api.wait_counter_zero(ctr)
                    yield from api.drain_overlapped(expected)
                    words = api.vic.memory.read_range(base, expected)
                    x_full[slot_idx] = words.view(np.float64)
                    yield from api.set_counter(ctr, expected)
                # local SpMV
                y = rows @ x_full
                yield from ctx.compute(flops=2.0 * nnz,
                                       stream_bytes=12.0 * nnz,
                                       dispatches=1)
                # norm: all-to-all single-word partial sums, landing in
                # every rank's norm slots
                part = float(y @ y)
                if P > 1:
                    nctr = (_CTR_NORM_EVEN if parity == 0
                            else _CTR_NORM_ODD)
                    slot = yield from api.exchange_words(
                        np.float64(part).view(np.uint64),
                        base=norm_base + parity * P, counter=nctr)
                    yield from api.set_counter(nctr, P - 1)
                    norm = float(np.sqrt(
                        slot.view(np.float64).sum()))
                else:
                    norm = float(np.sqrt(part))
                x_full[lo:hi] = y / norm
            elapsed = ctx.since("t0")
            yield from ctx.barrier()
            return {"elapsed": elapsed, "x": x_full[lo:hi].copy()}

        # ---- MPI version ------------------------------------------------
        mpi = ctx.mpi
        yield from mpi.barrier()
        ctx.mark("t0")
        for it in range(iters):
            chunks = [x_full[needed[p]] if p != ctx.rank
                      else np.empty(0) for p in range(P)]
            got = yield from mpi.alltoallv(chunks)
            for p in peers:
                if wanted[p].size:
                    x_full[wanted[p]] = got[p]
            y = rows @ x_full
            yield from ctx.compute(flops=2.0 * nnz,
                                   stream_bytes=12.0 * nnz,
                                   dispatches=1)
            total = yield from mpi.allreduce(float(y @ y),
                                             lambda s, t: s + t)
            x_full[lo:hi] = y / np.sqrt(total)
        elapsed = ctx.since("t0")
        yield from mpi.barrier()
        return {"elapsed": elapsed, "x": x_full[lo:hi].copy()}

    res = run_spmd(spec, program, "dv" if fabric == "dv" else "mpi")
    elapsed = max(v["elapsed"] for v in res.values)
    out: Dict[str, object] = {
        "fabric": fabric, "n_nodes": P, "n": n, "nnz": int(a.nnz),
        "iters": iters, "elapsed_s": elapsed,
        "gflops": 2.0 * a.nnz * iters / elapsed / 1e9,
    }
    if validate:
        x = np.concatenate([v["x"] for v in res.values])[:n]
        ref = serial_power_iteration(a, x0, iters)
        out["max_error"] = float(np.max(np.abs(x - ref)))
        out["valid"] = bool(np.allclose(x, ref, atol=1e-9))
    return out

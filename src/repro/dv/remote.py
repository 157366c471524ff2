"""Higher-level remote-memory operations over Data Vortex query packets.

Paper §III describes the mechanism: a "query" packet carries a *return
header* as its payload; the target VIC reads the addressed DV-memory
slot and emits a reply packet assembled entirely in hardware — "without
any host intervention".  The reply destination need not be the querying
VIC, so reads can be chained and redirected.

This module builds the obvious library layer on top (an extension the
paper leaves implicit):

* :class:`RemoteMemory` — a partitioned global address space over the
  cluster's DV memories with vectorised ``get``/``put``;
* :func:`pointer_chase` — the canonical irregular access pattern
  (following a random cycle through distributed memory), plus an MPI
  implementation for comparison.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from repro.core.cluster import ClusterSpec, run_spmd
from repro.core.context import RankContext
from repro.dv.api import DataVortexAPI
from repro.dv.vic import Query
from repro.sim.rng import rng_for


class RemoteMemory:
    """Partitioned global address space over the VICs' DV memories.

    Global word ``g`` lives on VIC ``g // words_per_node`` at local
    address ``base + g % words_per_node``.  All operations are one-sided:
    the target host never participates.
    """

    def __init__(self, api: DataVortexAPI, n_nodes: int,
                 words_per_node: int, base: int = 0,
                 reply_base: Optional[int] = None,
                 counter: int = 12) -> None:
        if words_per_node < 1:
            raise ValueError("words_per_node must be positive")
        self.api = api
        self.n_nodes = n_nodes
        self.words_per_node = words_per_node
        self.base = base
        #: local DV-memory region where replies land
        self.reply_base = (base + words_per_node if reply_base is None
                           else reply_base)
        self.counter = counter

    def _locate(self, addrs: np.ndarray):
        addrs = np.atleast_1d(np.asarray(addrs, dtype=np.int64))
        if addrs.size and (addrs.min() < 0 or
                           addrs.max() >= self.n_nodes
                           * self.words_per_node):
            raise IndexError("global address out of range")
        return addrs // self.words_per_node, \
            self.base + addrs % self.words_per_node

    # -- one-sided operations ------------------------------------------------
    def put(self, addrs, values, *, counter: Optional[int] = None,
            via: str = "dma") -> Generator:
        """Scatter ``values`` to global ``addrs``, fire and forget: each
        owner's preset group ``counter`` says when its words landed."""
        owners, local = self._locate(addrs)
        values = np.atleast_1d(np.asarray(values, dtype=np.uint64))
        yield from self.api.send_batch(
            owners, local, values, counter=counter, via=via)

    def get(self, addrs) -> Generator:
        """Gather the words at global ``addrs``; returns an ndarray.

        Issues one hardware query per word; replies land in this VIC's
        reply region and a group counter counts them in.
        """
        owners, local = self._locate(addrs)
        n = owners.size
        if n == 0:
            return np.empty(0, np.uint64)
        api = self.api
        yield from api.set_counter(self.counter, n)
        yield from api._overhead()
        # group queries per owner so each is one switch transfer
        order = np.argsort(owners, kind="stable")
        owners_s, local_s = owners[order], local[order]
        # sorted request j was original request order[j]; its reply must
        # land at reply_base + order[j] so results read back in request
        # order
        reply_sorted = self.reply_base + order
        uniq, starts = np.unique(owners_s, return_index=True)
        bounds = list(starts[1:]) + [n]
        for o, lo, hi in zip(uniq, starts, bounds):
            for i in range(lo, hi):
                api.network.transmit(
                    api.rank, int(o), 1,
                    payload=Query(addr=int(local_s[i]),
                                  reply_vic=api.rank,
                                  reply_addr=int(reply_sorted[i]),
                                  reply_counter=self.counter))
        yield from api._charge_tx("direct", n, False)
        ok = yield from api.wait_counter_zero(self.counter)
        if not ok:  # pragma: no cover - no timeout used
            raise RuntimeError("remote get timed out")
        return api.vic.memory.read_range(self.reply_base, n)


# ------------------------------------------------------- pointer chasing ---

def make_ring_permutation(n: int, rng: np.random.Generator) -> np.ndarray:
    """A random single-cycle permutation (every chase visits all nodes)."""
    order = rng.permutation(n)
    nxt = np.empty(n, np.int64)
    nxt[order[:-1]] = order[1:]
    nxt[order[-1]] = order[0]
    return nxt


def pointer_chase(spec: ClusterSpec, fabric: str, *,
                  words_per_node: int = 1 << 10,
                  hops: int = 256) -> dict:
    """Chase a random pointer cycle through distributed memory.

    Each step reads the word at the current global address; the value is
    the next address.  Pure dependent latency — no bandwidth, no
    aggregation possible.  Three fabrics:

    * ``"dv"`` — hardware query packets (reply built by the VIC);
    * ``"verbs"`` — one-sided RDMA reads served by the target HCA
      (paper §VIII's low-level IB alternative);
    * ``"mpi"`` — request/reply messages with the owner's host in the
      loop.

    Returns mean latency per hop and validates the walk against the
    locally-known permutation.
    """
    n = spec.n_nodes
    total = n * words_per_node
    rng = rng_for(spec.seed, "chase", n)
    nxt = make_ring_permutation(total, rng)

    def program(ctx: RankContext):
        mine = nxt[ctx.rank * words_per_node:
                   (ctx.rank + 1) * words_per_node]
        if fabric == "dv":
            api = ctx.dv
            rm = RemoteMemory(api, n, words_per_node, base=0)
            # publish my slice of the pointer table into DV memory
            yield from api.dv_write(0, mine.astype(np.uint64))
            yield from ctx.barrier()
            if ctx.rank == 0:
                ctx.mark("t0")
                cur = 0
                visited = [cur]
                for _ in range(hops):
                    (val,) = yield from rm.get([cur])
                    cur = int(val)
                    visited.append(cur)
                elapsed = ctx.since("t0")
                yield from ctx.barrier()
                return {"elapsed": elapsed, "visited": visited}
            yield from ctx.barrier()
            return None
        if fabric == "verbs":
            # one-sided RDMA reads: owners register their slice once and
            # never participate again
            v = ctx.mpi.verbs
            v.reg_mr("chase", mine.astype(np.float64))
            yield from ctx.mpi.barrier()
            if ctx.rank == 0:
                ctx.mark("t0")
                cur = 0
                visited = [cur]
                for _ in range(hops):
                    owner = cur // words_per_node
                    (val,) = yield from v.rdma_read(
                        owner, "chase", cur % words_per_node, 1)
                    cur = int(val)
                    visited.append(cur)
                elapsed = ctx.since("t0")
                yield from ctx.mpi.barrier()
                return {"elapsed": elapsed, "visited": visited}
            yield from ctx.mpi.barrier()
            return None
        # MPI: owners must service requests with their hosts
        mpi = ctx.mpi
        yield from mpi.barrier()
        if ctx.rank == 0:
            ctx.mark("t0")
            cur = 0
            visited = [cur]
            for _ in range(hops):
                owner = cur // words_per_node
                if owner == 0:
                    cur = int(mine[cur % words_per_node])
                    yield from ctx.compute(random_updates=1)
                else:
                    yield from mpi.send(owner, cur, tag=1)
                    val, _, _ = yield from mpi.recv(owner, tag=2)
                    cur = int(val)
                visited.append(cur)
            elapsed = ctx.since("t0")
            for r in range(1, n):
                yield from mpi.send(r, -1, tag=1)   # shutdown
            return {"elapsed": elapsed, "visited": visited}
        while True:
            req, _, _ = yield from mpi.recv(0, tag=1)
            if req == -1:
                return None
            yield from ctx.compute(random_updates=1)
            yield from mpi.send(0, int(nxt[req]), tag=2)

    res = run_spmd(spec, program, "dv" if fabric == "dv" else "mpi")
    out = res.values[0]
    # validate against the ground-truth permutation
    visited = out["visited"]
    cur = 0
    for v in visited[1:]:
        cur = int(nxt[cur])
        assert v == cur, "pointer chase diverged from the permutation"
    return {
        "fabric": fabric,
        "hops": hops,
        "elapsed_s": out["elapsed"],
        "latency_per_hop_us": out["elapsed"] / hops * 1e6,
    }

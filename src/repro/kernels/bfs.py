"""Distributed breadth-first search (paper §VI, Fig. 8 / Graph500).

Vertices are block-distributed; the search is level-synchronous.  At
every level each rank expands its local frontier and forwards
(child, parent) pairs to the child's owner.

* **MPI version** (Graph500 simple-reference style): per-destination
  buffers exchanged with ``alltoallv`` each level, then an ``allreduce``
  on the new-frontier size.  Aggregating by destination is exactly what
  the paper says is hard to do *well* here: most levels move small,
  skewed buffers dominated by per-message software overhead.

* **Data Vortex version**: each level's pairs stream to the owners'
  surprise FIFOs with source aggregation (one PCIe DMA per window, many
  destinations per window); level termination uses the paper's preset
  counter + hardware barrier idiom, exchanging exact word counts before
  the data flies.

Pairs are packed into single 64-bit payloads (child's local index in the
high half, parent's global id in the low half), so one update = one DV
packet — the fine-grained pattern the switch was designed for.

Validation follows the Graph500 rules: the parent array must form a tree
rooted at the search key whose edge levels differ by exactly one, and
must reach exactly the root's connected component (checked against a
serial CSR BFS).
"""

from __future__ import annotations

from typing import Dict, Generator, List

import numpy as np

from repro.core.cluster import ClusterSpec, KernelJob, run_spmd
from repro.core.context import RankContext
from repro.core.metrics import harmonic_mean, teps
from repro.kernels.kronecker import degrees, kronecker_edges, to_csr
from repro.sim.rng import rng_for

_CTR_COUNTS = 30
_CTR_DATA = 31
_SLOT_COUNTS = 64          # DV memory: per-src expected-words slots
_NO_PARENT = -1


# ------------------------------------------------------------ serial ref ---

def serial_bfs(offsets: np.ndarray, targets: np.ndarray,
               root: int) -> np.ndarray:
    """Reference BFS returning the parent array (root's parent = root)."""
    n = offsets.size - 1
    parent = np.full(n, _NO_PARENT, np.int64)
    parent[root] = root
    frontier = np.array([root], np.int64)
    while frontier.size:
        nxt: List[int] = []
        for v in frontier:
            nbrs = targets[offsets[v]:offsets[v + 1]]
            new = nbrs[parent[nbrs] == _NO_PARENT]
            # deduplicate within the level
            new = np.unique(new)
            parent[new] = v
            nxt.append(new)
        frontier = (np.unique(np.concatenate(nxt))
                    if nxt else np.empty(0, np.int64))
        frontier = frontier[frontier != _NO_PARENT]
    return parent


def validate_parent_tree(offsets: np.ndarray, targets: np.ndarray,
                         root: int, parent: np.ndarray) -> bool:
    """Graph500-style validation of a BFS parent array."""
    n = offsets.size - 1
    if parent[root] != root:
        return False
    visited = parent != _NO_PARENT
    # levels by walking up the tree (cycle-safe: cap at n steps)
    level = np.full(n, -1, np.int64)
    level[root] = 0
    for v in np.flatnonzero(visited):
        chain = []
        u = v
        for _ in range(n + 1):
            if level[u] >= 0:
                break
            chain.append(u)
            u = parent[u]
        else:
            return False  # cycle
        base = level[u]
        for i, w in enumerate(reversed(chain)):
            level[w] = base + i + 1
        # tree edges must exist in the graph
    for v in np.flatnonzero(visited):
        if v == root:
            continue
        p = parent[v]
        if not visited[p]:
            return False
        if level[v] != level[p] + 1:
            return False
        nbrs = targets[offsets[v]:offsets[v + 1]]
        if p not in nbrs:
            return False
    # reachability must match the serial reference exactly
    ref = serial_bfs(offsets, targets, root)
    return bool(np.array_equal(ref != _NO_PARENT, visited))


# ----------------------------------------------------------- distributed ---

def _partition(n_vertices: int, size: int) -> int:
    """Vertices per rank (block distribution, padded)."""
    return (n_vertices + size - 1) // size


def _pack_pairs(local_child: np.ndarray, parent: np.ndarray) -> np.ndarray:
    return ((local_child.astype(np.uint64) << np.uint64(32))
            | parent.astype(np.uint64))


def _unpack_pairs(packed: np.ndarray):
    child = (packed >> np.uint64(32)).astype(np.int64)
    parent = (packed & np.uint64((1 << 32) - 1)).astype(np.int64)
    return child, parent


class _LocalGraph:
    """One rank's share of the CSR graph."""

    def __init__(self, offsets: np.ndarray, targets: np.ndarray,
                 rank: int, size: int) -> None:
        n = offsets.size - 1
        self.block = _partition(n, size)
        self.lo = rank * self.block
        self.hi = min(self.lo + self.block, n)
        self.n_local = max(self.hi - self.lo, 0)
        self.offsets = offsets[self.lo:self.hi + 1] if self.n_local else \
            np.zeros(1, np.int64)
        self.targets = targets
        self.parent = np.full(self.n_local, _NO_PARENT, np.int64)

    def neighbours_of_frontier(self, frontier_local: np.ndarray):
        """(child_global, parent_global) pairs for the whole frontier."""
        if frontier_local.size == 0:
            return (np.empty(0, np.int64), np.empty(0, np.int64))
        counts = (self.offsets[frontier_local + 1]
                  - self.offsets[frontier_local])
        parents = np.repeat(frontier_local + self.lo, counts)
        idx = np.concatenate([
            np.arange(self.offsets[v], self.offsets[v + 1])
            for v in frontier_local]) if counts.sum() else \
            np.empty(0, np.int64)
        children = self.targets[idx]
        return children, parents

    def absorb(self, child_local: np.ndarray, parent_global: np.ndarray
               ) -> np.ndarray:
        """Mark unvisited children; returns the new local frontier."""
        if child_local.size == 0:
            return np.empty(0, np.int64)
        fresh = self.parent[child_local] == _NO_PARENT
        child_local, parent_global = (child_local[fresh],
                                      parent_global[fresh])
        # first writer wins within the batch
        uniq, first = np.unique(child_local, return_index=True)
        self.parent[uniq] = parent_global[first]
        return uniq


def _expand(ctx: RankContext, g: _LocalGraph, frontier: np.ndarray):
    """Shared per-level expansion; returns (dest_rank, packed_word)."""
    children, parents = g.neighbours_of_frontier(frontier)
    owner = children // g.block
    local_child = children % g.block
    packed = _pack_pairs(local_child, parents)
    return owner, packed, children.size


def _by_owner(owner: np.ndarray, packed: np.ndarray,
              size: int) -> List[np.ndarray]:
    """``packed`` cut into one chunk per owner rank, each chunk in
    input order: one stable sort, not a mask per rank."""
    order = np.argsort(owner, kind="stable")
    cuts = np.searchsorted(owner[order], np.arange(1, size))
    return np.split(packed[order], cuts)


def _frontier_bitmap(g: _LocalGraph, frontier_local: np.ndarray,
                     n_vertices: int) -> np.ndarray:
    """This rank's share of the global frontier bitmap (uint64 words)."""
    words = (n_vertices + 63) // 64
    bm = np.zeros(words, np.uint64)
    glob = frontier_local + g.lo
    np.bitwise_or.at(bm, glob >> 6,
                     np.uint64(1) << (glob.astype(np.uint64)
                                      & np.uint64(63)))
    return bm


def _bottom_up_scan(g: _LocalGraph, bitmap: np.ndarray):
    """Bottom-up step: every unvisited local vertex checks whether any
    neighbour is in the (global) frontier bitmap; the first hit becomes
    its parent.  Fully vectorised.

    Returns (new_frontier_local, parents_global, edges_examined).
    """
    unvis = np.flatnonzero(g.parent == _NO_PARENT)
    if unvis.size == 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64), 0)
    counts = (g.offsets[unvis + 1] - g.offsets[unvis])
    nz = counts > 0
    unvis, counts = unvis[nz], counts[nz]
    if unvis.size == 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64), 0)
    total = int(counts.sum())
    starts = g.offsets[unvis]
    reset = np.repeat(np.cumsum(counts) - counts, counts)
    flat = np.arange(total) - reset + np.repeat(starts, counts)
    nbrs = g.targets[flat]
    in_frontier = ((bitmap[nbrs >> 6]
                    >> (nbrs.astype(np.uint64) & np.uint64(63)))
                   & np.uint64(1)).astype(bool)
    seg_start = np.cumsum(counts) - counts
    cand = np.where(in_frontier, np.arange(total), total)
    first = np.minimum.reduceat(cand, seg_start)
    hit = first < total
    return (unvis[hit], nbrs[first[hit]], total)


def _dv_bfs(ctx: RankContext, g: _LocalGraph, root: int,
            window: int) -> Generator:
    api = ctx.dv
    P = ctx.size
    from repro.dv.vic import FifoPush
    rate = api._inject_rate("dma", True)

    frontier = np.empty(0, np.int64)
    if g.lo <= root < g.hi:
        g.parent[root - g.lo] = root
        frontier = np.array([root - g.lo], np.int64)

    edges_traversed = 0
    while True:
        owner, packed, n_edges = _expand(ctx, g, frontier)
        yield from ctx.compute(stream_bytes=packed.nbytes * 3,
                               dispatches=1)
        mine = owner == ctx.rank
        remote = ~mine
        sent_to = np.zeros(P, np.int64)
        np.add.at(sent_to, owner[remote], 1)

        # 1. combined exchange: every peer gets two words — how many
        #    data words I will send it this level, and my frontier size
        #    (for global termination).  One source-aggregated DMA under
        #    a preset counter (2 packets from each of P-1 peers).
        if P > 1:
            yield from api.set_counter(_CTR_COUNTS, 2 * (P - 1))
            yield from ctx.barrier()
            words = np.column_stack(
                [sent_to, np.full(P, frontier.size, np.int64)])
            slots = yield from api.exchange_words(
                words, base=_SLOT_COUNTS, counter=_CTR_COUNTS)
            expected, global_frontier = slots.astype(np.int64).sum(
                axis=0).tolist()
        else:
            expected = 0
            global_frontier = int(frontier.size)
        if global_frontier == 0:
            break
        edges_traversed += n_edges

        # 2. local updates
        local_new = []
        if mine.any():
            c, p = _unpack_pairs(packed[mine])
            yield from ctx.compute(random_updates=int(mine.sum()))
            local_new.append(g.absorb(c, p))

        # 3. data flight: preset, barrier, stream windows into the
        #    owners' surprise FIFOs, wait for the exact word count
        yield from api.set_counter(_CTR_DATA, expected)
        yield from ctx.barrier()
        if remote.any():
            dests = owner[remote]
            payloads = packed[remote]
            order = np.argsort(dests, kind="stable")
            dests, payloads = dests[order], payloads[order]
            for w0 in range(0, dests.size, window):
                w1 = min(w0 + window, dests.size)
                dw, pw = dests[w0:w1], payloads[w0:w1]
                uniq, starts = np.unique(dw, return_index=True)
                bounds = list(starts[1:]) + [dw.size]
                yield from api._overhead()
                for d, s0, s1 in zip(uniq, starts, bounds):
                    api.network.transmit(
                        ctx.rank, int(d), int(s1 - s0),
                        payload=FifoPush(pw[s0:s1], counter=_CTR_DATA),
                        inject_rate=rate)
                yield from api._charge_tx("dma", int(w1 - w0), True)
        yield from api.wait_counter_zero(_CTR_DATA)
        arrived = api.fifo_take()
        if arrived.size:
            c, p = _unpack_pairs(arrived)
            yield from ctx.compute(random_updates=arrived.size)
            local_new.append(g.absorb(c, p))

        frontier = (np.unique(np.concatenate(local_new))
                    if local_new else np.empty(0, np.int64))
    return edges_traversed


def _mpi_bfs(ctx: RankContext, g: _LocalGraph, root: int) -> Generator:
    mpi = ctx.mpi
    P = ctx.size

    frontier = np.empty(0, np.int64)
    if g.lo <= root < g.hi:
        g.parent[root - g.lo] = root
        frontier = np.array([root - g.lo], np.int64)

    edges_traversed = 0
    while True:
        owner, packed, n_edges = _expand(ctx, g, frontier)
        edges_traversed += n_edges
        yield from ctx.compute(stream_bytes=packed.nbytes * 3,
                               dispatches=1)
        chunks = _by_owner(owner, packed, P)
        got = yield from mpi.alltoallv(chunks)
        local_new = []
        applied = 0
        for arr in got:
            if arr is not None and len(arr):
                c, p = _unpack_pairs(arr)
                local_new.append(g.absorb(c, p))
                applied += len(arr)
        yield from ctx.compute(random_updates=applied, dispatches=1)
        frontier = (np.unique(np.concatenate(local_new))
                    if local_new else np.empty(0, np.int64))
        total = yield from mpi.allreduce(int(frontier.size),
                                         lambda a, b: a + b)
        if total == 0:
            break
    return edges_traversed


def _agg_bfs(ctx: RankContext, g: _LocalGraph, root: int, seed: int,
             agg_spec) -> Generator:
    """Level-synchronous BFS through the destination-coalescing runtime
    (either fabric).

    Each level is one aggregation epoch: (child, parent) pairs stream
    into the channel per destination, watermark flushes overlap the
    expansion, and ``complete(extra=frontier.size)`` both settles the
    level's word accounting and rides the global-frontier sum on the
    same exchange — replacing the legacy count-exchange *and* the
    termination allreduce with one synchronisation.  The parent tree
    may differ from the legacy paths (first-writer-wins under a
    different arrival order) but stays Graph500-valid; visited sets and
    levels are identical (docs/aggregation.md).
    """
    from repro.agg.runtime import channel_for
    chan = channel_for(ctx, agg_spec, seed)

    frontier = np.empty(0, np.int64)
    if g.lo <= root < g.hi:
        g.parent[root - g.lo] = root
        frontier = np.array([root - g.lo], np.int64)

    edges_traversed = 0
    while True:
        owner, packed, n_edges = _expand(ctx, g, frontier)
        edges_traversed += n_edges
        yield from ctx.compute(stream_bytes=packed.nbytes * 3,
                               dispatches=1)
        mine = owner == ctx.rank
        local_new = []
        if mine.any():
            c, p = _unpack_pairs(packed[mine])
            yield from ctx.compute(random_updates=int(mine.sum()))
            local_new.append(g.absorb(c, p))
        remote = ~mine
        if remote.any():
            dests = owner[remote]
            payloads = packed[remote]
            order = np.argsort(dests, kind="stable")
            dests, payloads = dests[order], payloads[order]
            uniq, starts = np.unique(dests, return_index=True)
            bounds = np.append(starts[1:], dests.size)
            for d, s0, s1 in zip(uniq, starts, bounds):
                yield from chan.put(int(d), payloads[s0:s1])
        arrived = yield from chan.drain()
        if arrived.size:
            c, p = _unpack_pairs(arrived)
            yield from ctx.compute(random_updates=arrived.size)
            local_new.append(g.absorb(c, p))
        words, global_frontier = yield from chan.complete(
            extra=int(frontier.size))
        if words.size:
            c, p = _unpack_pairs(words)
            yield from ctx.compute(random_updates=words.size)
            local_new.append(g.absorb(c, p))
        if global_frontier == 0:
            break
        frontier = (np.unique(np.concatenate(local_new))
                    if local_new else np.empty(0, np.int64))
    return edges_traversed, chan.stats.as_dict()


def _mpi_bfs_diropt(ctx: RankContext, g: _LocalGraph, root: int,
                    n_vertices: int, beta: int) -> Generator:
    """Direction-optimising BFS over MPI: top-down alltoallv levels
    switch to bottom-up allgathered-bitmap levels when the frontier is
    large (the standard Graph500 optimisation)."""
    mpi = ctx.mpi
    P = ctx.size
    frontier = np.empty(0, np.int64)
    if g.lo <= root < g.hi:
        g.parent[root - g.lo] = root
        frontier = np.array([root - g.lo], np.int64)

    edges = 0
    while True:
        total = yield from mpi.allreduce(int(frontier.size),
                                         lambda a, b: a + b)
        if total == 0:
            break
        if total > n_vertices // beta:
            # bottom-up: share the global frontier bitmap
            bm_local = _frontier_bitmap(g, frontier, n_vertices)
            parts = yield from mpi.allgather(bm_local)
            bitmap = parts[0]
            for p in parts[1:]:
                bitmap = bitmap | p
            yield from ctx.compute(stream_bytes=bitmap.nbytes * P,
                                   dispatches=1)
            new_local, parents, examined = _bottom_up_scan(g, bitmap)
            g.parent[new_local] = parents
            edges += examined
            yield from ctx.compute(random_updates=new_local.size,
                                   stream_bytes=8.0 * examined,
                                   dispatches=1)
            frontier = new_local
        else:
            owner, packed, n_edges = _expand(ctx, g, frontier)
            edges += n_edges
            yield from ctx.compute(stream_bytes=packed.nbytes * 3,
                                   dispatches=1)
            chunks = _by_owner(owner, packed, P)
            got = yield from mpi.alltoallv(chunks)
            local_new = []
            applied = 0
            for arr in got:
                if arr is not None and len(arr):
                    c, p = _unpack_pairs(arr)
                    local_new.append(g.absorb(c, p))
                    applied += len(arr)
            yield from ctx.compute(random_updates=applied, dispatches=1)
            frontier = (np.unique(np.concatenate(local_new))
                        if local_new else np.empty(0, np.int64))
    return edges


def _dv_bfs_diropt(ctx: RankContext, g: _LocalGraph, root: int,
                   n_vertices: int, beta: int,
                   window: int) -> Generator:
    """Direction-optimising BFS on the Data Vortex: the frontier-size
    exchange (one word to every peer under a preset counter) picks the
    direction; bottom-up levels broadcast bitmap shares straight into
    every VIC's DV memory."""
    api = ctx.dv
    P = ctx.size
    from repro.dv.vic import FifoPush, MemWrite
    rate = api._inject_rate("dma", True)
    bm_words = (n_vertices + 63) // 64

    frontier = np.empty(0, np.int64)
    if g.lo <= root < g.hi:
        g.parent[root - g.lo] = root
        frontier = np.array([root - g.lo], np.int64)

    edges = 0
    while True:
        # 1. frontier-size exchange
        if P > 1:
            yield from api.set_counter(_CTR_COUNTS, P - 1)
            yield from ctx.barrier()
            sizes = yield from api.exchange_words(
                frontier.size, base=_SLOT_COUNTS, counter=_CTR_COUNTS)
            total = int(sizes.astype(np.int64).sum())
        else:
            total = int(frontier.size)
        if total == 0:
            break

        if total > n_vertices // beta:
            # 2a. bottom-up: scatter my bitmap share into every VIC
            bm_local = _frontier_bitmap(g, frontier, n_vertices)
            yield from api.set_counter(_CTR_DATA,
                                       (P - 1) * bm_words if P > 1
                                       else 0)
            yield from ctx.barrier()
            base = _SLOT_COUNTS + 2 * P
            for d in range(P):
                if d == ctx.rank:
                    continue
                api.network.transmit(
                    ctx.rank, d, bm_words,
                    payload=MemWrite(
                        addrs=base + ctx.rank * bm_words,
                        values=bm_local, counter=_CTR_DATA),
                    inject_rate=rate)
            if P > 1:
                yield from api._charge_tx("dma",
                                          (P - 1) * bm_words, True)
            yield from api.wait_counter_zero(_CTR_DATA)
            yield from api.drain_overlapped(P * bm_words)
            bitmap = bm_local.copy()
            for s in range(P):
                if s != ctx.rank:
                    bitmap |= api.vic.memory.read_range(
                        base + s * bm_words, bm_words)
            yield from ctx.compute(stream_bytes=8.0 * bm_words * P,
                                   dispatches=1)
            new_local, parents, examined = _bottom_up_scan(g, bitmap)
            g.parent[new_local] = parents
            edges += examined
            yield from ctx.compute(random_updates=new_local.size,
                                   stream_bytes=8.0 * examined,
                                   dispatches=1)
            frontier = new_local
        else:
            # 2b. top-down level (count exchange + FIFO streams)
            owner, packed, n_edges = _expand(ctx, g, frontier)
            edges += n_edges
            yield from ctx.compute(stream_bytes=packed.nbytes * 3,
                                   dispatches=1)
            mine = owner == ctx.rank
            remote = ~mine
            sent_to = np.zeros(P, np.int64)
            np.add.at(sent_to, owner[remote], 1)
            if P > 1:
                yield from api.set_counter(_CTR_COUNTS, P - 1)
                yield from ctx.barrier()
                counts = yield from api.exchange_words(
                    sent_to, base=_SLOT_COUNTS, counter=_CTR_COUNTS)
                expected = int(counts.astype(np.int64).sum())
            else:
                expected = 0
            local_new = []
            if mine.any():
                c, p = _unpack_pairs(packed[mine])
                yield from ctx.compute(random_updates=int(mine.sum()))
                local_new.append(g.absorb(c, p))
            yield from api.set_counter(_CTR_DATA, expected)
            yield from ctx.barrier()
            if remote.any():
                dests = owner[remote]
                payloads = packed[remote]
                order = np.argsort(dests, kind="stable")
                dests, payloads = dests[order], payloads[order]
                for w0 in range(0, dests.size, window):
                    w1 = min(w0 + window, dests.size)
                    dw, pw = dests[w0:w1], payloads[w0:w1]
                    uniq, starts = np.unique(dw, return_index=True)
                    bounds = list(starts[1:]) + [dw.size]
                    yield from api._overhead()
                    for d, s0, s1 in zip(uniq, starts, bounds):
                        api.network.transmit(
                            ctx.rank, int(d), int(s1 - s0),
                            payload=FifoPush(pw[s0:s1],
                                             counter=_CTR_DATA),
                            inject_rate=rate)
                    yield from api._charge_tx("dma", int(w1 - w0),
                                              True)
            yield from api.wait_counter_zero(_CTR_DATA)
            arrived = api.fifo_take()
            if arrived.size:
                c, p = _unpack_pairs(arrived)
                yield from ctx.compute(random_updates=arrived.size)
                local_new.append(g.absorb(c, p))
            frontier = (np.unique(np.concatenate(local_new))
                        if local_new else np.empty(0, np.int64))
    return edges


def bfs_job(n_ranks: int, fabric: str, seed: int, traffic=None,
            agg_spec=None, *, scale: int = 12, edgefactor: int = 16,
            n_roots: int = 4, window: int = 1024,
            strategy: str = "topdown", beta: int = 16,
            validate: bool = False) -> KernelJob:
    """The Graph500-style BFS benchmark as a kernel job.

    Builds one Kronecker graph and one program per search root — random
    keys with at least one neighbour (per the spec), each searched on
    its own fresh cluster — and reports the harmonic-mean TEPS (the
    Graph500 statistic).

    ``strategy`` selects the traversal: ``"topdown"`` (the paper-era
    reference) or ``"diropt"`` (direction-optimising: levels whose
    global frontier exceeds ``n_vertices / beta`` run bottom-up over an
    exchanged frontier bitmap).
    """
    if strategy not in ("topdown", "diropt"):
        raise ValueError('strategy must be "topdown" or "diropt"')
    if agg_spec is not None and fabric == "verbs":
        raise ValueError(
            "aggregation is not supported on the raw verbs path "
            '(use fabric="dv" or "mpi")')
    if agg_spec is not None and strategy == "diropt":
        raise ValueError(
            "aggregation applies to the top-down traversal only "
            "(bottom-up levels exchange bitmaps, not per-destination "
            "updates)")
    rng = rng_for(seed, "graph500", scale)
    edges = kronecker_edges(scale, edgefactor, rng)
    n = 1 << scale
    if traffic is not None:
        # BFS traffic is derived from vertex ownership, so the traffic
        # model shapes it through placement: relabel so each rank's
        # degree share tracks the destination pmf (docs/traffic.md).
        # Deterministic, RNG-free, and graph-isomorphic — validation
        # simply runs on the relabelled graph.
        from repro.traffic.placement import skewed_relabel
        relabel = skewed_relabel(degrees(edges, n), n_ranks, traffic.dist)
        edges = relabel[edges]
    offsets, targets = to_csr(edges, n)
    deg = np.diff(offsets)
    candidates = np.flatnonzero(deg > 0)
    roots = [int(r) for r in
             rng.choice(candidates, size=n_roots, replace=False)]

    def search(root: int):
        def program(ctx):
            g = _LocalGraph(offsets, targets, ctx.rank, ctx.size)
            yield from ctx.barrier()
            ctx.mark("t0")
            agg_stats = None
            if agg_spec is not None:
                traversed, agg_stats = yield from _agg_bfs(
                    ctx, g, root, seed, agg_spec)
            elif fabric == "dv" and strategy == "diropt":
                traversed = yield from _dv_bfs_diropt(ctx, g, root, n,
                                                      beta, window)
            elif fabric == "dv":
                traversed = yield from _dv_bfs(ctx, g, root, window)
            elif strategy == "diropt":
                traversed = yield from _mpi_bfs_diropt(ctx, g, root, n,
                                                       beta)
            else:
                traversed = yield from _mpi_bfs(ctx, g, root)
            elapsed = ctx.since("t0")
            out = {"elapsed": elapsed, "traversed": traversed,
                   "parent": g.parent}
            if agg_stats is not None:
                out["agg"] = agg_stats
            return out
        return program

    def finish(runs) -> Dict[str, object]:
        per_root_teps = []
        elapsed_s = 0.0
        parents_ok = []
        for root, values in zip(roots, runs):
            elapsed = max(v["elapsed"] for v in values)
            elapsed_s += elapsed
            parent = np.concatenate([v["parent"] for v in values])[:n]
            # Graph500 TEPS numerator: edges of the traversed component
            # — a property of the graph and root, independent of the
            # traversal algorithm (so top-down and direction-optimising
            # runs are directly comparable)
            visited = parent != _NO_PARENT
            traversed = int(deg[visited].sum()) // 2
            per_root_teps.append(teps(max(traversed, 1), elapsed))
            if validate:
                parents_ok.append(
                    validate_parent_tree(offsets, targets, root, parent))
        out: Dict[str, object] = {
            "fabric": fabric,
            "n_nodes": n_ranks,
            "scale": scale,
            "edgefactor": edgefactor,
            "harmonic_teps": harmonic_mean(per_root_teps),
            "gteps": harmonic_mean(per_root_teps) / 1e9,
            "per_root_teps": per_root_teps,
            "elapsed_s": elapsed_s,
        }
        if agg_spec is not None:
            from repro.agg.runtime import merge_stats
            out["agg"] = merge_stats(v["agg"] for values in runs
                                     for v in values)
        if validate:
            out["valid"] = all(parents_ok)
        return out

    return KernelJob(tuple(search(root) for root in roots), finish)


def run_bfs(spec: ClusterSpec, fabric: str, **params) -> Dict[str, object]:
    """Run the Graph500-style BFS benchmark: one fresh cluster per
    search root.  ``params`` are :func:`bfs_job`'s keywords."""
    job = bfs_job(spec.n_nodes, fabric, spec.seed, spec.traffic,
                  spec.aggregation, **params)
    return job.finish([run_spmd(spec, program, fabric).values
                       for program in job.programs])

"""Throughput degradation under injected packet loss (both fabrics).

The stock DV kernels terminate on exact word counts (preset counters,
``total_pushed``), so a single lost data packet deadlocks them — which
is precisely why lossy experiments need the reliable transport
(:mod:`repro.dv.transport`).  The variants here keep the kernels'
compute and traffic patterns but move every data word through
sequence-numbered, CRC-checked, acknowledged frames; barriers and
counters ride the protected control path a :class:`FaultPlan` never
degrades.

InfiniBand needs no such help: the HCA retries lost link-level packets
invisibly (``ib_drop_prob`` shows up as latency, never loss), so the IB
side of the sweep runs the stock MPI kernels unchanged.

:func:`degradation_point` is the module-level, picklable runner that
:func:`degradation_table` fans through the PR-2 executor — points cache
and parallelise like every other experiment in the repo.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

import numpy as np

from repro.core.cluster import ClusterSpec, run_spmd
from repro.core.context import RankContext
from repro.core.metrics import harmonic_mean, mups, teps
from repro.core.report import Table
from repro.dv.transport import ReliableTransport, TransportConfig
from repro.faults.injector import session
from repro.faults.plan import FaultPlan
from repro.kernels.bfs import (_LocalGraph, _NO_PARENT, _expand,
                               _unpack_pairs, validate_parent_tree)
from repro.kernels.gups import (_apply, _make_updates, _pack, _windows,
                                tables_valid)
from repro.kernels.kronecker import kronecker_edges, to_csr
from repro.sim.rng import rng_for

__all__ = ["transport_config_for", "transport_gups", "transport_bfs",
           "degradation_point", "degradation_table", "DROP_RATES"]

#: default drop-probability axis of the degradation sweep.  Per-word
#: loss compounds over a frame, so the axis stays modest and the frame
#: size shrinks as it climbs (see :func:`transport_config_for`).
DROP_RATES = (0.0, 0.01, 0.02, 0.05, 0.1)

_TAG_DATA = 0
_TAG_CTRL = 1


def transport_config_for(drop_prob: float) -> TransportConfig:
    """Frame sizing matched to the loss rate.

    A frame of ``k`` payload words survives with ``(1-p)**(k+2)``
    (header + CRC ride along), so clean links want big frames to
    amortise per-frame overhead while lossy links want small frames to
    keep the retry budget sane."""
    if drop_prob <= 0.0:
        words = 64
    elif drop_prob <= 0.02:
        words = 32
    elif drop_prob <= 0.05:
        words = 16
    elif drop_prob <= 0.1:
        words = 8
    else:
        words = 2
    return TransportConfig(frame_words=words, max_retries=64)


# ------------------------------------------------------------ GUPS -------

def _transport_gups(ctx: RankContext, table_words: int, n_updates: int,
                    window: int, seed: int,
                    config: TransportConfig) -> Generator:
    """GUPS with every remote update carried by the reliable transport.

    Same epoch structure as ``_dv_gups``; termination is flush (all my
    frames acknowledged) + barrier (all *everyone's* frames
    acknowledged — an ACK is only sent once the data sits in the
    receiver's inbox) + a final drain."""
    tr = ReliableTransport(ctx.dv, config)
    tr.start()
    P = ctx.size
    table = np.zeros(table_words, np.uint64)
    idx, val = _make_updates(seed, ctx.rank, n_updates, table_words, P)

    def drain() -> Generator:
        got = tr.take()
        if got:
            arrived = np.concatenate([words for _, _, words in got])
            _apply(table, arrived)
            yield from ctx.compute(random_updates=arrived.size,
                                   dispatches=1)

    yield from ctx.barrier()
    ctx.mark("t0")
    for o, li, v in _windows(idx, val, table_words, window):
        mine = o == ctx.rank
        _apply(table, _pack(li[mine], v[mine]))
        yield from ctx.compute(random_updates=int(mine.sum()),
                               dispatches=1)
        remote = ~mine
        if remote.any():
            packed = _pack(li[remote], v[remote])
            dests = o[remote]
            order = np.argsort(dests, kind="stable")
            dests_s, packed_s = dests[order], packed[order]
            uniq, starts = np.unique(dests_s, return_index=True)
            bounds = list(starts[1:]) + [dests_s.size]
            for d, s0, s1 in zip(uniq, starts, bounds):
                yield from tr.send_batch(int(d), packed_s[s0:s1],
                                         tag=_TAG_DATA)
        yield from drain()

    yield from tr.flush()
    yield from ctx.barrier()
    yield from drain()
    yield from ctx.barrier()
    elapsed = ctx.since("t0")
    s = tr.stats
    return {"elapsed": elapsed, "table": table,
            "frames_sent": s.frames_sent,
            "retransmits": s.retransmits,
            "frames_delivered": s.frames_delivered,
            "duplicates": s.duplicates,
            "corrupt_dropped": s.corrupt_dropped}


def transport_gups(spec: ClusterSpec, *, table_words: int = 1 << 12,
                   n_updates: Optional[int] = None, window: int = 1024,
                   config: Optional[TransportConfig] = None
                   ) -> Dict[str, object]:
    """Run transport-GUPS on the DV fabric; validates every run."""
    if n_updates is None:
        n_updates = table_words
    config = config or TransportConfig()
    seed = spec.seed

    def program(ctx):
        return (yield from _transport_gups(ctx, table_words, n_updates,
                                           window, seed, config))

    res = run_spmd(spec, program, "dv")
    elapsed = max(v["elapsed"] for v in res.values)
    total_updates = n_updates * spec.n_nodes
    return {
        "fabric": "dv",
        "n_nodes": spec.n_nodes,
        "elapsed_s": elapsed,
        "mups_total": mups(total_updates, elapsed),
        "valid": tables_valid([v["table"] for v in res.values], seed,
                              table_words, n_updates),
        **{k: sum(v[k] for v in res.values)
           for k in ("frames_sent", "retransmits", "frames_delivered",
                     "duplicates", "corrupt_dropped")},
    }


# ------------------------------------------------------------- BFS -------

def _route_frames(tr: ReliableTransport, data_buf: List[np.ndarray],
                  ctrl_buf: List[np.ndarray]) -> None:
    """Split the inbox by tag (data frames from a fast peer's next level
    must not be mistaken for this level's control words)."""
    for _src, tag, words in tr.take():
        (ctrl_buf if tag == _TAG_CTRL else data_buf).append(words)


def _transport_bfs(ctx: RankContext, g: _LocalGraph, root: int,
                   config: TransportConfig) -> Generator:
    """Level-synchronous BFS with reliable data and control frames.

    Each level: expand, send (child, parent) pairs to the owners as
    DATA frames, flush + barrier, absorb; then broadcast the new local
    frontier size as one CTRL frame per peer, flush + barrier, and stop
    when the global frontier is empty."""
    tr = ReliableTransport(ctx.dv, config)
    tr.start()
    P = ctx.size
    others = [d for d in range(P) if d != ctx.rank]

    frontier = np.empty(0, np.int64)
    if g.lo <= root < g.hi:
        g.parent[root - g.lo] = root
        frontier = np.array([root - g.lo], np.int64)

    data_buf: List[np.ndarray] = []
    ctrl_buf: List[np.ndarray] = []
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
            bounds = list(starts[1:]) + [dests.size]
            for d, s0, s1 in zip(uniq, starts, bounds):
                yield from tr.send_batch(int(d), payloads[s0:s1],
                                         tag=_TAG_DATA)
        yield from tr.flush()
        yield from ctx.barrier()
        _route_frames(tr, data_buf, ctrl_buf)
        for words in data_buf:
            c, p = _unpack_pairs(words)
            yield from ctx.compute(random_updates=words.size)
            local_new.append(g.absorb(c, p))
        data_buf.clear()
        frontier = (np.unique(np.concatenate(local_new))
                    if local_new else np.empty(0, np.int64))

        if P > 1:
            size_word = np.array([frontier.size], np.uint64)
            for d in others:
                yield from tr.send(d, size_word, tag=_TAG_CTRL)
            yield from tr.flush()
            yield from ctx.barrier()
            _route_frames(tr, data_buf, ctrl_buf)
            total = int(frontier.size) + sum(int(w[0]) for w in ctrl_buf)
            ctrl_buf.clear()
        else:
            total = int(frontier.size)
        if total == 0:
            break
    s = tr.stats
    return {"parent": g.parent, "traversed": edges_traversed,
            "frames_sent": s.frames_sent,
            "retransmits": s.retransmits,
            "frames_delivered": s.frames_delivered,
            "duplicates": s.duplicates,
            "corrupt_dropped": s.corrupt_dropped}


def transport_bfs(spec: ClusterSpec, *, scale: int = 10,
                  edgefactor: int = 8, n_roots: int = 2,
                  config: Optional[TransportConfig] = None
                  ) -> Dict[str, object]:
    """Graph500-style BFS over the reliable transport; validates every
    search against the serial reference."""
    config = config or TransportConfig()
    rng = rng_for(spec.seed, "graph500", scale)
    edges = kronecker_edges(scale, edgefactor, rng)
    n = 1 << scale
    offsets, targets = to_csr(edges, n)
    deg = np.diff(offsets)
    candidates = np.flatnonzero(deg > 0)
    roots = rng.choice(candidates, size=n_roots, replace=False)

    per_root_teps = []
    parents_ok = []
    counters = {k: 0 for k in ("frames_sent", "retransmits",
                               "frames_delivered", "duplicates",
                               "corrupt_dropped")}
    for root in roots:
        root = int(root)

        def program(ctx, root=root):
            g = _LocalGraph(offsets, targets, ctx.rank, ctx.size)
            yield from ctx.barrier()
            ctx.mark("t0")
            out = yield from _transport_bfs(ctx, g, root, config)
            out["elapsed"] = ctx.since("t0")
            return out

        res = run_spmd(spec, program, "dv")
        elapsed = max(v["elapsed"] for v in res.values)
        parent = np.concatenate([v["parent"] for v in res.values])[:n]
        visited = parent != _NO_PARENT
        traversed = int(deg[visited].sum()) // 2
        per_root_teps.append(teps(max(traversed, 1), elapsed))
        parents_ok.append(
            validate_parent_tree(offsets, targets, root, parent))
        for k in counters:
            counters[k] += sum(v[k] for v in res.values)

    return {
        "fabric": "dv",
        "n_nodes": spec.n_nodes,
        "scale": scale,
        "harmonic_teps": harmonic_mean(per_root_teps),
        "valid": all(parents_ok),
        **counters,
    }


# ------------------------------------------------------- the sweep -------

def degradation_point(*, workload: str, fabric: str, drop_prob: float,
                      nodes: int, seed: int = 2017,
                      table_words: int = 1 << 12, scale: int = 9,
                      edgefactor: int = 8) -> Dict[str, object]:
    """One (workload, fabric, drop rate) sample — picklable and
    JSON-native, so it caches and fans out through the Executor."""
    import repro.api as api
    if workload not in ("gups", "bfs"):
        raise ValueError(f"unknown workload {workload!r}")
    if fabric not in ("dv", "ib"):
        raise ValueError(f"unknown fabric {fabric!r}")
    spec = api.build_cluster(n_nodes=nodes, seed=seed)
    out: Dict[str, object] = {"workload": workload, "fabric": fabric,
                              "drop_prob": float(drop_prob),
                              "nodes": nodes}
    if fabric == "dv":
        plan = (FaultPlan(seed=seed, drop_prob=drop_prob)
                if drop_prob > 0 else None)
        config = transport_config_for(drop_prob)
        with session(plan):
            if workload == "gups":
                r = transport_gups(spec, table_words=table_words,
                                   config=config)
                out.update(throughput=r["mups_total"], unit="MUPS")
            else:
                r = transport_bfs(spec, scale=scale,
                                  edgefactor=edgefactor, config=config)
                out.update(throughput=r["harmonic_teps"] / 1e6,
                           unit="MTEPS")
        out.update(valid=bool(r["valid"]),
                   frames_sent=int(r["frames_sent"]),
                   retransmits=int(r["retransmits"]),
                   frames_delivered=int(r["frames_delivered"]),
                   duplicates=int(r["duplicates"]),
                   corrupt_dropped=int(r["corrupt_dropped"]))
    else:
        from repro.kernels import run_bfs, run_gups
        plan = (FaultPlan(seed=seed, ib_drop_prob=drop_prob)
                if drop_prob > 0 else None)
        with session(plan):
            if workload == "gups":
                r = run_gups(spec, "mpi", table_words=table_words,
                             validate=True)
                out.update(throughput=r["mups_total"], unit="MUPS")
            else:
                r = run_bfs(spec, "mpi", scale=scale,
                            edgefactor=edgefactor, n_roots=2,
                            validate=True)
                out.update(throughput=r["harmonic_teps"] / 1e6,
                           unit="MTEPS")
        # IB retries invisibly: no frame accounting, loss = latency
        out.update(valid=bool(r["valid"]), frames_sent=0,
                   retransmits=0, frames_delivered=0, duplicates=0,
                   corrupt_dropped=0)
    return out


def degradation_table(executor=None, *, workloads=("gups", "bfs"),
                      fabrics=("dv", "ib"), drops=DROP_RATES,
                      nodes: int = 4, seed: int = 2017,
                      scale: int = 9) -> Table:
    """The PR's capstone sweep: throughput vs. drop rate, both fabrics,
    through the caching executor."""
    if executor is None:
        from repro.exec import Executor
        executor = Executor()
    points = [dict(workload=w, fabric=f, drop_prob=float(p),
                   nodes=int(nodes), seed=int(seed), scale=int(scale))
              for w in workloads for f in fabrics for p in drops]
    results = executor.map(degradation_point, points)
    t = Table("Throughput degradation vs. packet loss",
              ["workload", "fabric", "drop", "throughput", "unit",
               "retransmits", "valid"])
    for r in results:
        t.add_row(r["workload"], r["fabric"], r["drop_prob"],
                  r["throughput"], r["unit"], r["retransmits"],
                  r["valid"])
    return t

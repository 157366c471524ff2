"""GUPS — random-access update rate (paper §VI, Figs. 5 and 6).

A table of 64-bit words is block-distributed; every rank issues XOR
updates at uniformly random *global* indices.  Per the HPCC rules the
implementation may look ahead at most 1024 updates, which caps how much
destination aggregation an MPI implementation can do — the property that
makes GUPS hostile to conventional fabrics.

* **MPI version** (mirrors the HPCC MPI benchmark): each 1024-update
  window is partitioned by owner and exchanged with ``alltoallv``; each
  round therefore costs P-1 small messages per rank plus collective
  software overhead, and gets slower per update as P grows.

* **Data Vortex version**: each window crosses PCIe as *one* DMA ("source
  aggregation") and the VIC scatters single-word packets straight to the
  owners' surprise FIFOs; the owner drains its FIFO between windows and
  applies updates locally.  Updates are packed ``local_index << 32 |
  value32`` into single 64-bit payloads — fine-grained traffic that plays
  to the switch.

Functional correctness is checked by replaying all updates serially:
XOR is commutative and associative, so the distributed table must match
exactly regardless of arrival order.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

import numpy as np

from repro.core.cluster import ClusterSpec, KernelJob, run_spmd
from repro.core.context import RankContext
from repro.core.metrics import mups
from repro.obs import registry as obsreg
from repro.sim.rng import rng_for

_CTR_COUNTS = 20    #: counter for the per-epoch count exchange
_CTR_DATA = 21      #: counter for data-word arrivals
_COUNT_BASE = 0     #: DV-memory slots [_COUNT_BASE + src] hold counts

_VAL_MASK = (1 << 32) - 1

#: what MPI GUPS sends a peer that gets no updates in a window
_NO_UPDATES = np.empty(0, np.uint64)
_NO_UPDATES.flags.writeable = False


def _make_updates(seed: int, rank: int, n_updates: int, table_words: int,
                  size: int, traffic=None) -> tuple:
    """Random global indices and 32-bit update values for one rank.

    With a :class:`~repro.traffic.TrafficModel` the *owning node* of
    each update is drawn from the model's destination distribution
    (Zipf/hotset/trace skew at node granularity — what the fabrics
    contend over) and the word within the owner's table stays uniform.
    ``traffic=None`` keeps the legacy uniform-global-index path
    byte-for-byte (the goldens pin it).
    """
    rng = rng_for(seed, "gups", rank)
    if traffic is None:
        total = table_words * size
        idx = rng.integers(0, total, n_updates, dtype=np.int64)
    else:
        owner = traffic.dist.draw(rng, n_updates, size, src=rank)
        local = rng.integers(0, table_words, n_updates, dtype=np.int64)
        idx = owner * table_words + local
    val = rng.integers(0, 1 << 32, n_updates, dtype=np.uint64)
    return idx, val


def _pack(local_idx: np.ndarray, val: np.ndarray) -> np.ndarray:
    return (local_idx.astype(np.uint64) << np.uint64(32)) | val


def _apply(table: np.ndarray, packed: np.ndarray) -> None:
    idx = (packed >> np.uint64(32)).astype(np.int64)
    np.bitwise_xor.at(table, idx, packed & np.uint64(_VAL_MASK))


def _windows(idx: np.ndarray, val: np.ndarray, table_words: int,
             window: int):
    """Each look-ahead window's owners, local indices and values.

    A rank keeps only its raw draws for the whole run; a window's owner
    and local index are derived as it is issued."""
    for lo in range(0, idx.size, window):
        owner, local = np.divmod(idx[lo:lo + window], table_words)
        yield owner, local, val[lo:lo + window]


def serial_gups_table(seed: int, size: int, table_words: int,
                      n_updates: int, traffic=None) -> np.ndarray:
    """Reference: the whole table after all ranks' updates, serially."""
    table = np.zeros(size * table_words, np.uint64)
    for r in range(size):
        idx, val = _make_updates(seed, r, n_updates, table_words, size,
                                 traffic)
        np.bitwise_xor.at(table, idx, val)
    return table


def tables_valid(tables, seed: int, table_words: int, n_updates: int,
                 traffic=None) -> bool:
    """Whether rank ``r``'s table equals slice ``r`` of
    :func:`serial_gups_table`, for every rank (no concatenated copy)."""
    ref = serial_gups_table(seed, len(tables), table_words, n_updates,
                            traffic)
    return all(np.array_equal(t, ref[r * table_words:(r + 1) * table_words])
               for r, t in enumerate(tables))


def _dv_gups(ctx: RankContext, table_words: int, n_updates: int,
             window: int, seed: int, aggregate: bool,
             traffic=None) -> Generator:
    api = ctx.dv
    P = ctx.size
    table = np.zeros(table_words, np.uint64)
    idx, val = _make_updates(seed, ctx.rank, n_updates, table_words, P,
                             traffic)
    _obs = obsreg.enabled()
    if _obs:
        m_epochs = obsreg.counter("kernels.gups.epochs", fabric="dv")
        m_local = obsreg.counter("kernels.gups.updates_local", fabric="dv")
        m_remote = obsreg.counter("kernels.gups.updates_remote",
                                  fabric="dv")

    yield from ctx.barrier()
    ctx.mark("t0")
    for o, li, v in _windows(idx, val, table_words, window):
        mine = o == ctx.rank
        if _obs:
            m_epochs.inc()
            m_local.inc(int(mine.sum()))
            m_remote.inc(int((~mine).sum()))
        # local updates: random-access XORs into the host table
        _apply(table, _pack(li[mine], v[mine]))
        yield from ctx.compute(random_updates=int(mine.sum()),
                               dispatches=1)
        remote = ~mine
        if remote.any():
            packed = _pack(li[remote], v[remote])
            dests = o[remote]
            # fan the window out to the owners' FIFOs in one PCIe DMA
            order = np.argsort(dests, kind="stable")
            dests_s, packed_s = dests[order], packed[order]
            uniq, starts = np.unique(dests_s, return_index=True)
            group_counts = np.diff(np.append(starts, dests_s.size))
            starts = starts.tolist()
            bounds = starts[1:] + [dests_s.size]
            yield from api._overhead()
            rate = api._inject_rate("dma", True)
            # one fire-and-forget fan-out: nobody waits on these words
            # until the owner polls its FIFO
            api.network.post_fifo(ctx.rank, uniq, group_counts,
                                  [packed_s[s0:s1]
                                   for s0, s1 in zip(starts, bounds)],
                                  inject_rate=rate)
            if aggregate:
                yield from api._charge_tx("dma", int(remote.sum()), True)
            else:
                for n in group_counts.tolist():
                    yield from api._charge_tx("dma", n, True)
        # opportunistically drain whatever has arrived
        arrived = api.fifo_take()
        if arrived.size:
            _apply(table, arrived)
            yield from ctx.compute(random_updates=arrived.size,
                                   dispatches=1)

    # ---- termination: exchange how many words each peer sent me ------
    # (one source-aggregated DMA carrying all P-1 count words)
    yield from api.set_counter(_CTR_COUNTS, P - 1)
    yield from ctx.barrier()
    sent_to = np.bincount(idx // table_words, minlength=P)
    sent_to[ctx.rank] = 0  # my own updates never crossed the network
    counts = yield from api.exchange_words(sent_to, base=_COUNT_BASE,
                                           counter=_CTR_COUNTS)
    expected = int(counts.astype(np.int64).sum())
    # drain until everything that was addressed to us has been applied
    while True:
        arrived = api.fifo_take()
        if arrived.size:
            _apply(table, arrived)
            yield from ctx.compute(random_updates=arrived.size,
                                   dispatches=1)
        if api.vic.fifo.total_pushed >= expected:
            # everything sent to us has landed; apply any residue
            residue = api.fifo_take()
            if residue.size:
                _apply(table, residue)
                yield from ctx.compute(random_updates=residue.size,
                                       dispatches=1)
            break
        yield from api.fifo_wait()
    yield from ctx.barrier()
    elapsed = ctx.since("t0")
    return {"elapsed": elapsed, "table": table}


def _agg_gups(ctx: RankContext, table_words: int, n_updates: int,
              window: int, seed: int, agg_spec,
              traffic=None) -> Generator:
    """GUPS through the destination-coalescing runtime (either fabric).

    Remote updates flow into the rank's :mod:`repro.agg` channel
    instead of being exchanged per 1024-update window: the watermark
    batches *across* windows — deliberately beyond the HPCC look-ahead
    cap, since the point of ``fig_agg`` is to measure what aggregation
    buys once the rule is relaxed (docs/aggregation.md).  XOR updates
    commute, so the validated table is identical to the legacy paths
    whatever the flush order.
    """
    from repro.agg.runtime import channel_for
    P = ctx.size
    table = np.zeros(table_words, np.uint64)
    idx, val = _make_updates(seed, ctx.rank, n_updates, table_words, P,
                             traffic)
    chan = channel_for(ctx, agg_spec, seed)
    _obs = obsreg.enabled()
    fabric = "dv" if ctx.dv is not None else "mpi"
    if _obs:
        m_epochs = obsreg.counter("kernels.gups.epochs", fabric=fabric)
        m_local = obsreg.counter("kernels.gups.updates_local",
                                 fabric=fabric)
        m_remote = obsreg.counter("kernels.gups.updates_remote",
                                  fabric=fabric)

    yield from ctx.barrier()
    ctx.mark("t0")
    for o, li, v in _windows(idx, val, table_words, window):
        mine = o == ctx.rank
        if _obs:
            m_epochs.inc()
            m_local.inc(int(mine.sum()))
            m_remote.inc(int((~mine).sum()))
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
            bounds = np.append(starts[1:], dests_s.size)
            for d, s0, s1 in zip(uniq, starts, bounds):
                yield from chan.put(int(d), packed_s[s0:s1])
        # opportunistically drain whatever frames have arrived
        arrived = yield from chan.drain()
        if arrived.size:
            _apply(table, arrived)
            yield from ctx.compute(random_updates=arrived.size,
                                   dispatches=1)

    # epoch settlement: final flushes, count exchange, drain-to-tally
    arrived, _ = yield from chan.complete()
    if arrived.size:
        _apply(table, arrived)
        yield from ctx.compute(random_updates=arrived.size,
                               dispatches=1)
    yield from ctx.barrier()
    elapsed = ctx.since("t0")
    return {"elapsed": elapsed, "table": table,
            "agg": chan.stats.as_dict()}


def _verbs_gups(ctx: RankContext, table_words: int, n_updates: int,
                window: int, seed: int, traffic=None) -> Generator:
    """GUPS over one-sided RDMA (paper §VIII's verbs alternative).

    Updates cannot be applied remotely (no remote XOR), so each rank
    RDMA-writes packed updates into a per-source staging ring at the
    owner and then advances a per-source tail counter; owners poll the
    tails between windows and apply locally.  Note how much more
    machinery this needs than either the MPI or the DV version — the
    paper's "substantially higher coding efforts" made concrete.
    """
    import numpy as np
    v = ctx.mpi.verbs
    P = ctx.size
    table = np.zeros(table_words, np.uint64)
    idx, val = _make_updates(seed, ctx.rank, n_updates, table_words, P,
                             traffic)

    # staging: one ring per source, big enough for everything it could
    # send; tails[src] counts words committed by src
    ring_cap = n_updates
    rings = np.zeros(P * ring_cap, np.float64)
    tails = np.zeros(P, np.float64)
    applied = np.zeros(P, np.int64)
    write_off = np.zeros(P, np.int64)   # my write offset per owner
    v.reg_mr("rings", rings)
    v.reg_mr("tails", tails)
    yield from ctx.mpi.barrier()
    ctx.mark("t0")

    def poll_and_apply():
        moved = 0
        for src in range(P):
            avail = int(tails[src])
            if avail > applied[src]:
                seg = rings[src * ring_cap + applied[src]:
                            src * ring_cap + avail]
                _apply(table, seg.view(np.uint64))
                moved += avail - applied[src]
                applied[src] = avail
        return moved

    for o, li, vv in _windows(idx, val, table_words, window):
        mine = o == ctx.rank
        _apply(table, _pack(li[mine], vv[mine]))
        yield from ctx.compute(random_updates=int(mine.sum()),
                               dispatches=1)
        for d in range(P):
            sel = o == d
            if d == ctx.rank or not sel.any():
                continue
            packed = _pack(li[sel], vv[sel]).view(np.float64)
            # high-rate idiom: unsignaled data + unsignaled tail bump;
            # RC ordering keeps tail behind its data
            yield from v.rdma_write(
                d, "rings", ctx.rank * ring_cap + int(write_off[d]),
                packed, signaled=False)
            write_off[d] += packed.size
            yield from v.rdma_write(
                d, "tails", ctx.rank,
                np.array([float(write_off[d])]), signaled=False)
        moved = poll_and_apply()
        if moved:
            yield from ctx.compute(random_updates=moved, dispatches=1)

    # termination: one *signaled* write per destination fences all the
    # unsignaled traffic on that connection, then a barrier publishes
    # every tail, then one final drain
    for d in range(P):
        if d != ctx.rank and write_off[d]:
            yield from v.rdma_write(
                d, "tails", ctx.rank,
                np.array([float(write_off[d])]), signaled=True)
    yield from ctx.mpi.barrier()
    moved = poll_and_apply()
    if moved:
        yield from ctx.compute(random_updates=moved, dispatches=1)
    yield from ctx.mpi.barrier()
    elapsed = ctx.since("t0")
    return {"elapsed": elapsed, "table": table}


def _mpi_gups(ctx: RankContext, table_words: int, n_updates: int,
              window: int, seed: int, traffic=None) -> Generator:
    mpi = ctx.mpi
    P = ctx.size
    table = np.zeros(table_words, np.uint64)
    idx, val = _make_updates(seed, ctx.rank, n_updates, table_words, P,
                             traffic)
    _obs = obsreg.enabled()
    if _obs:
        m_epochs = obsreg.counter("kernels.gups.epochs", fabric="mpi")
        m_applied = obsreg.counter("kernels.gups.updates_applied",
                                   fabric="mpi")

    yield from ctx.barrier()
    ctx.mark("t0")
    for o, li, v in _windows(idx, val, table_words, window):
        packed = _pack(li, v)
        # one stable sort splits the window by owner, in update order;
        # an owner that gets no updates is sent the shared empty array
        order = np.argsort(o, kind="stable")
        packed = packed[order]
        cuts = np.searchsorted(o[order], np.arange(P + 1)).tolist()
        chunks = [packed[a:b] if a < b else _NO_UPDATES
                  for a, b in zip(cuts, cuts[1:])]
        yield from ctx.compute(dispatches=1,
                               stream_bytes=packed.nbytes)
        got = yield from ctx.timed(
            "mpi", mpi.alltoallv(chunks), "gups-exchange")
        arrived = [a for a in got if a is not None and len(a)]
        if arrived:
            # XOR updates commute: one batched apply, same table
            _apply(table, np.concatenate(arrived))
        for src, arr in enumerate(got):
            if arr is not None and len(arr):
                ctx.tracer.message(src, ctx.rank, ctx.now, arr.nbytes)
        n_applied = sum(len(a) for a in arrived)
        if _obs:
            m_epochs.inc()
            m_applied.inc(n_applied)
        yield from ctx.compute(random_updates=n_applied, dispatches=1)
    yield from ctx.timed("mpi", mpi.barrier(), "final")
    elapsed = ctx.since("t0")
    return {"elapsed": elapsed, "table": table}


def gups_job(n_ranks: int, fabric: str, seed: int, traffic=None,
             agg_spec=None, *, table_words: int = 1 << 14,
             n_updates: Optional[int] = None, window: int = 1024,
             aggregate: bool = True, validate: bool = False) -> KernelJob:
    """GUPS on ``n_ranks`` ranks of one fabric, as a kernel job.

    Parameters mirror the HPCC setup scaled for simulation: the table has
    ``table_words`` words per node (weak scaling) and each rank issues
    ``n_updates`` updates (default: table_words).  ``fabric="verbs"``
    runs the one-sided RDMA version over the MPI cluster.
    """
    if n_updates is None:
        n_updates = table_words
    if window < 1 or window > 1024:
        raise ValueError("HPCC rules: look-ahead window must be <= 1024")
    if agg_spec is not None and fabric == "verbs":
        raise ValueError(
            "aggregation is not supported on the raw verbs path "
            '(use fabric="dv" or "mpi")')

    if agg_spec is not None:
        def program(ctx):
            return (yield from _agg_gups(ctx, table_words, n_updates,
                                         window, seed, agg_spec,
                                         traffic))
    elif fabric == "dv":
        def program(ctx):
            return (yield from _dv_gups(ctx, table_words, n_updates,
                                        window, seed, aggregate,
                                        traffic))
    elif fabric == "verbs":
        def program(ctx):
            return (yield from _verbs_gups(ctx, table_words, n_updates,
                                           window, seed, traffic))
    else:
        def program(ctx):
            return (yield from _mpi_gups(ctx, table_words, n_updates,
                                         window, seed, traffic))

    def finish(runs) -> Dict[str, object]:
        (values,) = runs
        elapsed = max(v["elapsed"] for v in values)
        total_updates = n_updates * n_ranks
        out: Dict[str, object] = {
            "fabric": fabric,
            "n_nodes": n_ranks,
            "elapsed_s": elapsed,
            "mups_total": mups(total_updates, elapsed),
            "mups_per_pe": mups(total_updates, elapsed) / n_ranks,
        }
        if agg_spec is not None:
            from repro.agg.runtime import merge_stats
            out["agg"] = merge_stats(v["agg"] for v in values)
        if validate:
            out["valid"] = tables_valid([v["table"] for v in values], seed,
                                        table_words, n_updates, traffic)
        return out

    return KernelJob((program,), finish)


def run_gups(spec: ClusterSpec, fabric: str, **params) -> Dict[str, object]:
    """Run GUPS on one fabric; returns update rates, the run's
    ``tracer`` and, when validating, the verdict.  ``params`` are
    :func:`gups_job`'s keywords."""
    job = gups_job(spec.n_nodes, fabric, spec.seed, spec.traffic,
                   spec.aggregation, **params)
    res = run_spmd(spec, job.programs[0], "dv" if fabric == "dv" else "mpi")
    return {**job.finish([res.values]), "tracer": res.tracer}

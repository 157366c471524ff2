"""Reserved completions and batched posts, against the oracle.

A completion nobody waits on takes no queue entry: it reserves the
sequence number its entry would have had.  A wait that comes before
that key has passed puts the entry back at the key; one that comes
after it is a re-delivery of a processed event.  Each program below
steers the waits into one of those cases (the production run counts
which case each wait took) and must leave the same record as
:class:`tests.reference_engines.ReferenceMPIEndpoint`, a process per
request, whose completions all take their entries.
"""

import collections
import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.cluster import ClusterSpec, run_spmd
from repro.ib import mpi
from repro.sim.events import Event
from tests.reference_engines import ReferenceMPIEndpoint
from tests.test_mpi_requests import _record


def _counting(run, seen):
    """``run`` with every wait on a completed operation counted in
    ``seen`` by path: ``early`` (the entry is put back at its reserved
    key) or ``late`` (the key has passed)."""

    def waiters(ev):
        reserved = ev.callbacks.__class__ is int
        out = real_waiters(ev)
        if reserved:
            seen["early" if out is not None else "late"] += 1
        return out

    def wait(batch, i, fn):
        if batch.values[i] is not mpi._PENDING:
            passed = batch.engine.reserved_passed(batch.dues[i])
            seen["slot-late" if passed else "slot-early"] += 1
        real_wait(batch, i, fn)

    real_waiters = Event._waiters
    real_wait = mpi._Batch.wait

    def counted():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Event, "_waiters", waiters)
            mp.setattr(mpi._Batch, "wait", wait)
            return run()

    return counted


def _same_as_oracle(monkeypatch, program, n=3):
    """Run ``program`` on both layers; the records must be equal.
    Returns the production run's wait paths."""

    def run():
        spec = ClusterSpec(n_nodes=n, seed=3)
        return run_spmd(spec, program, "mpi").values

    seen = collections.Counter()
    got = _record(monkeypatch, False, _counting(run, seen))
    want = _record(monkeypatch, True, run)
    assert got[2] == want[2]  # fabric stats and entries scheduled
    assert got[1] == want[1]  # the programs' results
    assert len(got[0]) == len(want[0])
    for i, (a, b) in enumerate(zip(got[0], want[0])):
        assert a == b, f"record {i} differs"
    return seen


def _overhead(ctx):
    return ctx.mpi.config.sw_overhead_s


def _waitall(ep, reqs):
    """``waitall``; the oracle yields each request in turn."""
    if isinstance(ep, ReferenceMPIEndpoint):
        for req in reqs:
            yield req
    else:
        yield ep.waitall(reqs)


def test_request_waited_before_its_reserved_key(monkeypatch):
    """Rank 0 wakes at its isend's CPU end, after the send completed
    but ahead of the completion's reserved key: its wait puts the
    entry back at that key."""

    def program(ctx):
        ep = ctx.mpi
        if ctx.rank == 0:
            req = ep.isend(1, 7, tag=2)
            yield ctx.engine.timeout(0.0)
            yield ctx.engine.timeout(0.0)  # now after the CPU grant
            yield ctx.engine.timeout(_overhead(ctx))
            done = yield req
            return done.op, done.dest, ctx.engine.now
        if ctx.rank == 1:
            return (yield from ep.recv(0, tag=2))
        return None

    seen = _same_as_oracle(monkeypatch, program)
    assert seen["early"] == 1


def test_request_waited_after_its_reserved_key(monkeypatch):
    """A request joined long after it completed is a processed
    re-delivery."""

    def program(ctx):
        ep = ctx.mpi
        if ctx.rank == 0:
            req = ep.isend(1, np.arange(5), tag=3)
            yield ctx.engine.timeout(20 * _overhead(ctx))
            done = yield req
            return done.op, ctx.engine.now
        if ctx.rank == 1:
            req = ep.irecv(0, tag=3)
            yield ctx.engine.timeout(40 * _overhead(ctx))
            data, src, tag = yield req
            return data.tolist(), src, tag, ctx.engine.now
        return None

    seen = _same_as_oracle(monkeypatch, program)
    assert seen["late"] == 2 and seen["early"] == 0


@pytest.mark.parametrize("n", [3, 5])
def test_waitall_over_requests_completing_out_of_list_order(monkeypatch, n):
    """Rank 0 joins receives in rank order while the senders send in
    reverse order, at staggered times, so the later requests in the
    list complete first, with nobody waiting: the join re-delivers
    each of them once it gets there."""

    def program(ctx):
        ep = ctx.mpi
        o = _overhead(ctx)
        if ctx.rank == 0:
            reqs = [ep.irecv(src, tag=5) for src in range(1, ctx.size)]
            reqs.append(ep.isend(ctx.size - 1, -1, tag=6))
            yield from _waitall(ep, reqs)
            return [r.value[0] for r in reqs[:-1]], ctx.engine.now
        yield ctx.engine.timeout((ctx.size - ctx.rank) * 3 * o)
        yield from ep.send(0, ctx.rank * 10, tag=5)
        if ctx.rank == ctx.size - 1:
            return (yield from ep.recv(0, tag=6))
        return None

    seen = _same_as_oracle(monkeypatch, program, n=n)
    assert seen["late"] == n - 1


def test_waitall_joins_requests_completed_at_one_instant(monkeypatch):
    """Two self-sends complete at consecutive CPU ends with nobody
    waiting; the join, started in between, finds the first key passed
    and the second still ahead."""

    def program(ctx):
        ep = ctx.mpi
        first = ep.isend(ctx.rank, "a", tag=8)
        second = ep.isend(ctx.rank, "b", tag=9)
        yield ctx.engine.timeout(0.0)
        yield ctx.engine.timeout(0.0)
        yield ctx.engine.timeout(2 * _overhead(ctx))
        yield from _waitall(ep, [first, second])
        a = yield from ep.recv(ctx.rank, tag=8)
        b = yield from ep.recv(ctx.rank, tag=9)
        return a, b, ctx.engine.now

    seen = _same_as_oracle(monkeypatch, program, n=2)
    assert seen["early"] == 2 and seen["late"] == 2


@pytest.mark.parametrize("later", [False, True])
def test_blocking_send_completion_yielded(monkeypatch, later):
    """``send`` returns the fabric completion of its message.  A
    self-send's is already done, its key reserved: yielded at once it
    is still ahead of that key, yielded later it has passed.  A wire
    send's is still in flight at once, and done and passed later."""

    def program(ctx):
        ep = ctx.mpi
        peer = (ctx.rank + 1) % ctx.size
        own = yield from ep.send(ctx.rank, ctx.rank, tag=1)
        if not later:
            yield own
        wire = yield from ep.send(peer, np.arange(ctx.rank + 3), tag=2)
        if later:
            yield ctx.engine.timeout(50 * _overhead(ctx))
            yield own
        yield wire
        first = yield from ep.recv(ctx.rank, tag=1)
        second = yield from ep.recv(tag=2)
        return own.op, wire.op, wire.nbytes, first, second, ctx.engine.now

    seen = _same_as_oracle(monkeypatch, program)
    if later:
        assert seen["late"] == 6 and seen["early"] == 0
    else:
        assert seen["early"] == 3 and seen["late"] == 0


@pytest.mark.parametrize("size", [0, 1])
def test_batch_joined_out_of_start_order(monkeypatch, size):
    """A batch of a receive and a self-send that matches it, joined
    send first.  With an empty payload the receive completes at the
    same instant, after the send, with nobody waiting: the join finds
    its key still ahead.  With one word the copy ends later and the
    join waits on the receive in flight."""

    def program(ctx):
        ep = ctx.mpi
        me = ctx.rank
        payload = np.arange(size)
        yield ctx.engine.timeout(me * _overhead(ctx))
        if isinstance(ep, ReferenceMPIEndpoint):
            r = ep.irecv(me, tag=4)
            s = ep.isend(me, payload, tag=4)
            yield s
            got = yield r
        else:
            batch = ep._post_batch([me, me], [4, 4], [mpi._RECV, payload])
            yield ep._join(batch, (1, 0))
            got = batch.values[0]
        return got, ctx.engine.now

    seen = _same_as_oracle(monkeypatch, program)
    if size:
        assert seen["slot-early"] == 0
    else:
        assert seen["slot-early"] == 3


def test_alltoall_slots_passed_at_the_join(monkeypatch):
    """An all-to-all's join meets the slots that completed while it
    waited on an earlier one after their keys have passed."""

    def program(ctx):
        p = ctx.size
        chunks = [np.full(ctx.rank % 3, d, np.uint64) for d in range(p)]
        got = yield from ctx.mpi.alltoallv(chunks)
        return [g.tolist() for g in got], ctx.engine.now

    seen = _same_as_oracle(monkeypatch, program, n=8)
    assert seen["slot-late"] > 0


def test_alltoall_memory_per_message_bound():
    """A 64-rank all-to-all of one-word chunks (GUPS at scale-out)
    peaks below 850 B of traced memory per message (about 630 B).  It
    peaked at about 1190 B while every operation was a request event
    with a callback list, a bound method and its own start wakeup and
    CPU-queue entry."""
    n = 64

    def program(ctx):
        p = ctx.size
        chunks = [np.full(1, ctx.rank * p + d, np.uint64) for d in range(p)]
        got = yield from ctx.mpi.alltoallv(chunks)
        return int(sum(int(g[0]) for g in got))

    run_spmd(ClusterSpec(n_nodes=4, seed=1), program, "mpi")  # warm-up
    tracemalloc.start()
    try:
        res = run_spmd(ClusterSpec(n_nodes=n, seed=1), program, "mpi")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    values, messages = res.values, res.net_stats.messages
    # a finished cluster is a set of reference cycles: free this one
    # here rather than in whichever later test's timing the collector
    # happens to run
    del res
    gc.collect()
    want = [sum(s * n + r for s in range(n)) for r in range(n)]
    assert values == want
    assert messages == n * (n - 1)
    assert peak < 850 * messages

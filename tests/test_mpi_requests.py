"""Differential oracle: callback-driven MPI requests vs generator processes.

:class:`~repro.ib.mpi.MPIEndpoint` runs ``isend``/``irecv`` as request
events driven by callbacks, spends host-CPU overheads through a FIFO of
grants, joins collectives with one ``waitall`` event, and takes its
zero-delay wakeups off the heap (``Engine.call_soon``).
:class:`tests.reference_engines.ReferenceMPIEndpoint` is the layer as
first written: a process per request, a counted ``Resource`` plus a
``Timeout`` per overhead, and collectives that join one request at a
time.

Both run the same programs over the same production fabric.  Each run
records, in global order, every host-CPU end, every fabric ``transfer``
call (with the instant its channels let it start), every delivery, every
arrival held back for send order, every match (posted receive or
unexpected arrival) and every receive completion, along with the
programs' results, the fabric statistics and the number of entries
scheduled.  The two records must be equal bit for bit: the heap may
shrink, the simulation may not move.
"""

import random

import numpy as np
import pytest

from repro import faults
from repro.agg import AggSpec
from repro.apps.cg import run_cg
from repro.apps.heat import run_heat
from repro.core.cluster import ClusterSpec, run_spmd
from repro.faults.plan import FaultPlan
from repro.ib import ANY_SOURCE, ANY_TAG, mpi
from repro.ib.fabric import IBFabric
from repro.kernels.fft1d import run_fft1d
from repro.kernels.gups import run_gups
from tests.reference_engines import ReferenceMPIEndpoint

SIZES = (1, 2, 3, 8, 16, 33)


def _digest(v):
    """Comparable, exact summary of a payload or result."""
    if isinstance(v, np.ndarray):
        return ("nd", v.dtype.str, v.shape, v.tobytes())
    if isinstance(v, (list, tuple)):
        return (type(v).__name__, tuple(_digest(x) for x in v))
    if isinstance(v, dict):
        items = sorted(v.items(), key=lambda kv: repr(kv[0]))
        return ("dict", tuple((k, _digest(x)) for k, x in items))
    if isinstance(v, (float, np.floating)):
        return ("f", float(v).hex())
    if type(v).__repr__ is object.__repr__:
        return ("obj", type(v).__name__)  # e.g. the run's tracer
    return ("r", repr(v))


class _HeldLog(dict):
    """An endpoint's held-arrival table that logs every hold."""

    def __init__(self, log, ep):
        super().__init__()
        self.log = log
        self.ep = ep

    def setdefault(self, src, default=None):
        self.log.append(("held", self.ep.engine.now, self.ep.rank, src))
        return super().setdefault(src, default)


def _record(monkeypatch, reference, run):
    """Run ``run()`` on one MPI implementation; return its record."""
    log = []
    runtimes = []
    if reference:
        monkeypatch.setattr(mpi, "MPIEndpoint", ReferenceMPIEndpoint)

    real_runtime_init = mpi.MPIRuntime.__init__

    def runtime_init(self, *args, **kwargs):
        real_runtime_init(self, *args, **kwargs)
        for ep in self.endpoints:
            ep._recv_held = _HeldLog(log, ep)
        runtimes.append(self)

    monkeypatch.setattr(mpi.MPIRuntime, "__init__", runtime_init)

    def owner(buckets):
        for rt in runtimes:
            for ep in rt.endpoints:
                if buckets is ep._recv_waiters:
                    return ep, "posted"
                if buckets is ep._unexpected:
                    return ep, "unexpected"
        raise AssertionError("match outside any endpoint")

    real_take = mpi._take

    def take(buckets, key):
        ep, where = owner(buckets)
        item = real_take(buckets, key)
        entry = ("match", ep.engine.now, ep.rank, key, where)
        if where == "posted":
            log.append(entry + (item.stamp if reference else item[0],))
        else:
            payload = _digest(item.payload)
            log.append(entry + (item.stamp, item.kind, item.nbytes, payload))
        return item

    monkeypatch.setattr(mpi, "_take", take)

    real_transfer = IBFabric.transfer

    def transfer(fab, src, dst, nbytes, *, kind="data", payload=None):
        start = fab.engine.now
        for ch in fab._slots(src, dst):
            start = max(start, fab._free[ch])
        entry = (src, dst, nbytes, kind, start)
        log.append(("transfer", fab.engine.now) + entry)
        return real_transfer(
            fab, src, dst, nbytes, kind=kind, payload=payload
        )

    monkeypatch.setattr(IBFabric, "transfer", transfer)

    real_deliver = IBFabric._deliver

    def deliver(fab, src, dst, nbytes, kind, payload, done):
        log.append(("arrive", fab.engine.now, src, dst, nbytes, kind))
        real_deliver(fab, src, dst, nbytes, kind, payload, done)

    monkeypatch.setattr(IBFabric, "_deliver", deliver)

    def completed(ep, value):
        data, src, tag = value
        entry = (ep.rank, src, tag, _digest(data))
        log.append(("recv-done", ep.engine.now) + entry)

    if reference:
        real_overhead = ReferenceMPIEndpoint._overhead
        real_recv = ReferenceMPIEndpoint.recv

        def overhead(ep):
            yield from real_overhead(ep)
            log.append(("cpu", ep.engine.now, ep.rank))

        def recv(ep, src=ANY_SOURCE, *, tag=ANY_TAG):
            value = yield from real_recv(ep, src, tag=tag)
            completed(ep, value)
            return value

        monkeypatch.setattr(ReferenceMPIEndpoint, "_overhead", overhead)
        monkeypatch.setattr(ReferenceMPIEndpoint, "recv", recv)
    else:
        real_cpu_end = mpi.MPIEndpoint._cpu_end
        real_start_recv = mpi.MPIEndpoint._start_recv

        def cpu_end(ep, step, args):
            log.append(("cpu", ep.engine.now, ep.rank))
            real_cpu_end(ep, step, args)

        def start_recv(ep, src, tag, finish):
            def done(value):
                completed(ep, value)
                finish(value)

            real_start_recv(ep, src, tag, done)

        monkeypatch.setattr(mpi.MPIEndpoint, "_cpu_end", cpu_end)
        monkeypatch.setattr(mpi.MPIEndpoint, "_start_recv", start_recv)

    out = run()
    monkeypatch.undo()
    assert runtimes, "the run built no MPI runtime"
    stats = [
        (
            rt.fabric.stats.messages,
            rt.fabric.stats.bytes,
            rt.fabric.stats.cross_leaf_messages,
            float(rt.fabric.stats.total_queue_wait_s).hex(),
            rt.engine._seq,  # entries scheduled, heap and lane alike
        )
        for rt in runtimes
    ]
    return log, _digest(out), stats


def _assert_same(monkeypatch, run):
    """The new layer and the oracle leave identical records; returns
    the record."""
    log, out, stats = _record(monkeypatch, False, run)
    ref_log, ref_out, ref_stats = _record(monkeypatch, True, run)
    assert stats == ref_stats
    assert out == ref_out
    assert len(log) == len(ref_log)
    for i, (a, b) in enumerate(zip(log, ref_log)):
        assert a == b, f"record {i} differs"
    return log


def _kinds(log):
    return {entry[0] for entry in log}


# ------------------------------------------------------ mixed program ---


def _mixed(seed, n, big=1500):
    """A seeded SPMD program over every MPI call: all collectives,
    eager and rendezvous all-to-all, self-sends, half-wildcard receives,
    isend/irecv joined one by one, sendrecv and iprobe."""
    plan = random.Random(seed)
    steps = list(range(9)) + [plan.randrange(9) for _ in range(3)]
    plan.shuffle(steps)
    roots = [plan.randrange(n) for _ in steps]

    def program(ctx):
        ep = ctx.mpi
        rank = ctx.rank
        rng = np.random.default_rng(seed * 1000 + rank)
        trace = []
        for i, (step, root) in enumerate(zip(steps, roots)):
            if step == 0:
                yield from ep.barrier()
                trace.append(("barrier", ctx.engine.now))
            elif step == 1:
                data = rng.integers(0, 9, 4)
                trace.append((yield from ep.bcast(data, root=root)))
            elif step == 2:
                total = yield from ep.allreduce(
                    float(rank + i), lambda a, b: a + b
                )
                top = yield from ep.reduce(
                    np.full(3, rank), np.maximum, root=root
                )
                trace.append((total, top))
            elif step == 3:
                trace.append((yield from ep.gather(rank * i, root=root)))
                trace.append((yield from ep.allgather((rank, i))))
                chunks = list(range(n)) if rank == root else None
                trace.append((yield from ep.scatter(chunks, root=root)))
            elif step == 4:
                size = int(rng.integers(1, 40))
                chunks = [
                    np.full(size, rank * 100 + d, np.int64) for d in range(n)
                ]
                trace.append((yield from ep.alltoallv(chunks)))
            elif step == 5:
                chunks = [
                    np.full(big // 8 + d, rank, np.int64) for d in range(n)
                ]
                trace.append((yield from ep.alltoall(chunks)))
            elif step == 6:
                # a self-send, then a wildcard ring with mixed sizes
                me = ep.isend(rank, ("self", i), tag=7)
                right, far = (rank + 1) % n, (rank + 2) % n
                small = int(rng.integers(1, 20))
                s1 = ep.isend(right, np.arange(small), tag=1)
                s2 = ep.isend(far, np.arange(big // 8), tag=2)
                # (half wildcards only: a full one could take a message
                # of a later step from a rank already past this one)
                got = [(yield from ep.recv(rank, tag=7))]
                got.append((yield from ep.recv(ANY_SOURCE, tag=1)))
                back = (rank - 2) % n
                got.append((yield from ep.recv(back, tag=ANY_TAG)))
                for req in (me, s1, s2):
                    yield req
                trace.append(got)
            elif step == 7:
                peer = (rank + i) % n
                got = yield from ep.sendrecv(peer, (rank, i), (rank - i) % n)
                trace.append((got, ep.iprobe()))
            else:
                left, right = (rank - 1) % n, (rank + 1) % n
                r = ep.irecv(left, tag=3)
                size = int(rng.integers(1, 300))
                s = ep.isend(right, np.arange(size), tag=3)
                yield ctx.engine.timeout(float(rng.integers(0, 3)) * 1e-7)
                trace.append((yield r))
                yield s
                yield from ep.send(right, rank, tag=4)
                trace.append((yield from ep.recv(left, tag=4)))
        return trace, ctx.engine.now

    def run():
        res = run_spmd(ClusterSpec(n_nodes=n, seed=seed), program, "mpi")
        return res.values, res.elapsed

    return run


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mixed_program_matches_process_oracle(monkeypatch, n, seed):
    log = _assert_same(monkeypatch, _mixed(seed, n))
    assert {"cpu", "match", "recv-done"} <= _kinds(log)
    if n > 1:
        assert {"transfer", "arrive"} <= _kinds(log)


@pytest.mark.parametrize("n", SIZES)
def test_full_wildcard_drain_matches_process_oracle(monkeypatch, n):
    """Every rank sends rank 0 a burst of eager and rendezvous messages
    under random tags; rank 0, self-sends included, drains them all
    with ``recv(ANY_SOURCE, ANY_TAG)``."""

    def program(ctx):
        ep = ctx.mpi
        rng = np.random.default_rng(40 + ctx.rank)
        sizes = rng.integers(1, 300, size=4)
        reqs = [
            ep.isend(0, np.arange(int(k)), tag=int(rng.integers(0, 3)))
            for k in sizes
        ]
        if ctx.rank == 0:
            got = []
            for _ in range(4 * ctx.size):
                data, src, tag = yield from ep.recv(ANY_SOURCE, tag=ANY_TAG)
                got.append((src, tag, len(data)))
        else:
            got = None
        for req in reqs:
            yield req
        return got

    def run():
        return run_spmd(ClusterSpec(n_nodes=n, seed=n), program, "mpi").values

    _assert_same(monkeypatch, run)


@pytest.mark.parametrize("n", [3, 8, 16])
def test_ib_retries_and_held_arrivals_match_oracle(monkeypatch, n):
    """IB retries let a later envelope overtake an earlier one from the
    same source, so arrivals wait in the non-overtaking hold; both
    layers must release them alike."""
    run = _mixed(5, n, big=1100)

    def faulty():
        with faults.session(FaultPlan(seed=3, ib_drop_prob=0.3)):
            return run()

    log = _assert_same(monkeypatch, faulty)
    assert "held" in _kinds(log)


def test_same_instant_cpu_grants_keep_their_order(monkeypatch):
    """Two ranks whose later sends are granted the CPU at one instant,
    claimed in one order and granted in the other: the transfers leave
    in grant order (a next-free clock read at the claim would send them
    in claim order)."""

    def program(ctx):
        ep = ctx.mpi
        if ctx.rank == 0:
            first = ep.isend(2, 1)
            yield ep.engine.timeout(0.0)
            yield first  # rank 1 claims in between
            ep.isend(2, 2)
        elif ctx.rank == 1:
            ep.isend(2, 3)
            ep.isend(2, 4)
        else:
            got = []
            for _ in range(4):
                got.append((yield from ep.recv())[0])
            return got
        return None

    def run():
        return run_spmd(ClusterSpec(n_nodes=3), program, "mpi").values

    _assert_same(monkeypatch, run)


# ----------------------------------------------------- kernels, apps ---


@pytest.mark.parametrize("n", [2, 8, 16])
def test_gups_mpi_matches_oracle(monkeypatch, n):
    spec = ClusterSpec(n_nodes=n, seed=11)
    _assert_same(
        monkeypatch,
        lambda: run_gups(
            spec, "mpi", table_words=256, n_updates=512, window=128
        ),
    )


@pytest.mark.parametrize("n", [2, 8])
def test_verbs_gups_matches_oracle(monkeypatch, n):
    spec = ClusterSpec(n_nodes=n, seed=12)
    _assert_same(
        monkeypatch,
        lambda: run_gups(spec, "verbs", table_words=256, n_updates=256),
    )


@pytest.mark.parametrize("routing", ["direct", "tree"])
def test_agg_gups_matches_oracle(monkeypatch, routing):
    agg = AggSpec(watermark=8, routing=routing)
    spec = ClusterSpec(n_nodes=8, seed=13, aggregation=agg)
    _assert_same(
        monkeypatch,
        lambda: run_gups(spec, "mpi", table_words=256, n_updates=512),
    )


def test_fft_rendezvous_matches_oracle(monkeypatch):
    spec = ClusterSpec(n_nodes=4, seed=7)
    log = _assert_same(
        monkeypatch, lambda: run_fft1d(spec, "mpi", log2_points=14)
    )
    assert any(entry[0] == "transfer" and entry[5] == "rts" for entry in log)


@pytest.mark.parametrize("n", [1, 2, 8])
def test_heat_halos_match_oracle(monkeypatch, n):
    spec = ClusterSpec(n_nodes=n, seed=14)
    _assert_same(monkeypatch, lambda: run_heat(spec, "mpi", n=8, steps=3))


@pytest.mark.parametrize("n", [2, 8])
def test_cg_halos_match_oracle(monkeypatch, n):
    spec = ClusterSpec(n_nodes=n, seed=15)
    _assert_same(monkeypatch, lambda: run_cg(spec, "mpi", n=8, max_iters=6))

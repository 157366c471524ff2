"""Tests for the MPI-over-InfiniBand model: p2p semantics, protocol
switch, and all collectives (functional correctness on every rank count
from 1 to 9 so non-power-of-two paths are covered)."""

import numpy as np
import pytest

from repro.ib import ANY_SOURCE, ANY_TAG, IBConfig, MPIRuntime
from repro.sim import Engine, Event


def run_ranks(n, fn, config=None, until=None):
    """Spawn fn(ep) per rank, run, return list of process values."""
    eng = Engine()
    rt = MPIRuntime(eng, config or IBConfig(), n)
    procs = [eng.process(fn(rt.endpoint(r)), name=f"rank{r}")
             for r in range(n)]
    eng.run(until=until)
    for p in procs:
        if not p.triggered:
            raise AssertionError("deadlock: a rank did not finish")
        if not p.ok:
            raise p.value
    return [p.value for p in procs], eng


# ----------------------------------------------------------------- p2p ---

def test_send_recv_roundtrip():
    def fn(ep):
        if ep.rank == 0:
            yield from ep.send(1, np.arange(10), tag=7)
        else:
            data, src, tag = yield from ep.recv(0, tag=7)
            assert src == 0 and tag == 7
            assert np.array_equal(data, np.arange(10))
            return "got"

    vals, _ = run_ranks(2, fn)
    assert vals[1] == "got"


def test_recv_any_source():
    def fn(ep):
        if ep.rank == 0:
            seen = set()
            for _ in range(2):
                _, src, _ = yield from ep.recv(ANY_SOURCE)
                seen.add(src)
            return seen
        yield from ep.send(0, ep.rank)

    vals, _ = run_ranks(3, fn)
    assert vals[0] == {1, 2}


def test_tag_matching_out_of_order():
    def fn(ep):
        if ep.rank == 0:
            yield from ep.send(1, "first", tag=1)
            yield from ep.send(1, "second", tag=2)
        else:
            # receive in reverse tag order
            d2, _, _ = yield from ep.recv(0, tag=2)
            d1, _, _ = yield from ep.recv(0, tag=1)
            return (d1, d2)

    vals, _ = run_ranks(2, fn)
    assert vals[1] == ("first", "second")


def test_eager_vs_rendezvous_timing():
    """A rendezvous message must cost more than an eager one of nearly
    the same size (handshake penalty at the threshold)."""
    cfg = IBConfig()

    def timed(nbytes):
        def fn(ep):
            if ep.rank == 0:
                data = np.zeros(nbytes, np.uint8)
                yield from ep.send(1, data, nbytes=nbytes)
            else:
                t0 = ep.engine.now
                yield from ep.recv(0)
                return ep.engine.now - t0
        vals, _ = run_ranks(2, fn, config=cfg)
        return vals[1]

    just_under = timed(cfg.eager_threshold_bytes)
    just_over = timed(cfg.eager_threshold_bytes + 8)
    assert just_over > just_under + 0.5 * cfg.rendezvous_handshake_s


def test_rendezvous_moves_data_intact():
    def fn(ep):
        big = np.arange(100_000, dtype=np.float64)
        if ep.rank == 0:
            yield from ep.send(1, big)
        else:
            data, _, _ = yield from ep.recv(0)
            assert np.array_equal(data, big)
            return True

    vals, _ = run_ranks(2, fn)
    assert vals[1]


def test_self_send():
    def fn(ep):
        yield from ep.send(ep.rank, "loop")
        data, src, _ = yield from ep.recv(ep.rank)
        return (data, src)

    vals, _ = run_ranks(1, fn)
    assert vals[0] == ("loop", 0)


def test_isend_irecv_overlap():
    def fn(ep):
        other = 1 - ep.rank
        s = ep.isend(other, ep.rank * 100)
        r = ep.irecv(other)
        data, _, _ = yield r
        yield s
        return data

    vals, _ = run_ranks(2, fn)
    assert vals == [100, 0]


def test_sendrecv_exchange_all_pairs():
    def fn(ep):
        other = 1 - ep.rank
        data, _, _ = yield from ep.sendrecv(other, f"from{ep.rank}", other)
        return data

    vals, _ = run_ranks(2, fn)
    assert vals == ["from1", "from0"]


def test_iprobe():
    def fn(ep):
        if ep.rank == 0:
            yield from ep.send(1, 42, tag=9)
        else:
            assert not ep.iprobe(0, 5)  # wrong tag, nothing yet
            yield ep.engine.timeout(1.0)
            assert ep.iprobe(0, 9)
            assert not ep.iprobe(0, 5)
            data, _, _ = yield from ep.recv(0, tag=9)
            return data

    vals, _ = run_ranks(2, fn)
    assert vals[1] == 42


# ------------------------------------------------------------ collectives ---

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9])
def test_barrier_completes_all_sizes(n):
    def fn(ep):
        yield from ep.barrier()
        return ep.engine.now

    vals, _ = run_ranks(n, fn)
    assert len(vals) == n


def test_barrier_synchronises():
    """No rank may leave the barrier before the slowest rank enters it."""
    enter_time = 5.0

    def fn(ep):
        if ep.rank == 0:
            yield ep.engine.timeout(enter_time)
        yield from ep.barrier()
        return ep.engine.now

    vals, _ = run_ranks(4, fn)
    assert all(v >= enter_time for v in vals)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
@pytest.mark.parametrize("root", [0, "last"])
def test_bcast_all_sizes_and_roots(n, root):
    root = 0 if root == 0 else n - 1

    def fn(ep):
        data = {"v": 123} if ep.rank == root else None
        out = yield from ep.bcast(data, root=root)
        return out["v"]

    vals, _ = run_ranks(n, fn)
    assert vals == [123] * n


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_reduce_sum(n):
    def fn(ep):
        out = yield from ep.reduce(ep.rank + 1, lambda a, b: a + b, root=0)
        return out

    vals, _ = run_ranks(n, fn)
    assert vals[0] == n * (n + 1) // 2
    assert all(v is None for v in vals[1:])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_allreduce_arrays(n):
    def fn(ep):
        data = np.full(4, float(ep.rank))
        out = yield from ep.allreduce(data, np.add)
        return out

    vals, _ = run_ranks(n, fn)
    expect = np.full(4, sum(range(n)), float)
    for v in vals:
        assert np.array_equal(v, expect)


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_gather(n):
    def fn(ep):
        out = yield from ep.gather(ep.rank * 10, root=0)
        return out

    vals, _ = run_ranks(n, fn)
    assert vals[0] == [r * 10 for r in range(n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_allgather(n):
    def fn(ep):
        out = yield from ep.allgather(ep.rank)
        return out

    vals, _ = run_ranks(n, fn)
    for v in vals:
        assert v == list(range(n))


@pytest.mark.parametrize("n", [2, 4, 5])
def test_scatter(n):
    def fn(ep):
        chunks = [f"chunk{r}" for r in range(n)] if ep.rank == 0 else None
        out = yield from ep.scatter(chunks, root=0)
        return out

    vals, _ = run_ranks(n, fn)
    assert vals == [f"chunk{r}" for r in range(n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_alltoall(n):
    def fn(ep):
        chunks = [(ep.rank, dst) for dst in range(n)]
        out = yield from ep.alltoall(chunks)
        return out

    vals, _ = run_ranks(n, fn)
    for rank, v in enumerate(vals):
        assert v == [(src, rank) for src in range(n)]


# ---------------------------------------------------------------- fabric ---

def test_barrier_latency_grows_with_ranks():
    """Fig. 4's MPI line: barrier cost increases with node count."""
    def timing(n):
        def fn(ep):
            yield from ep.barrier()
            t0 = ep.engine.now
            yield from ep.barrier()
            return ep.engine.now - t0
        vals, _ = run_ranks(n, fn)
        return max(vals)

    t2, t8, t32 = timing(2), timing(8), timing(32)
    assert t2 < t8 < t32
    assert t32 > 2.5 * t2


def test_cross_leaf_messages_counted():
    cfg = IBConfig(leaf_size=2)

    def fn(ep):
        if ep.rank == 0:
            yield from ep.send(1, 1)   # same leaf
            yield from ep.send(3, 1)   # cross leaf
        elif ep.rank in (1, 3):
            yield from ep.recv(0)

    _, eng_holder = run_ranks(4, fn, config=cfg)


def test_contention_slows_colliding_flows():
    """With static routing, concurrent cross-leaf flows can share an
    uplink; the ideal-crossbar variant must be at least as fast."""
    def workload(contention):
        eng = Engine()
        cfg = IBConfig(leaf_size=4, uplinks_per_leaf=1)
        rt = MPIRuntime(eng, cfg, 8, contention=contention)

        def fn(ep):
            if ep.rank < 4:
                data = np.zeros(1 << 18, np.uint8)
                yield from ep.send(ep.rank + 4, data)
            else:
                yield from ep.recv(ep.rank - 4)

        procs = [eng.process(fn(rt.endpoint(r))) for r in range(8)]
        eng.run()
        assert all(p.ok for p in procs)
        return eng.now

    assert workload(contention=True) > workload(contention=False)


# ------------------------------------------------------- debug labels ---

@pytest.mark.parametrize("shadow", [False, True])
def test_deadlock_error_names_the_stuck_rank(shadow):
    """Two ranks that both receive first never finish; the error must
    name a stuck rank process, serially and through the tenancy
    co-scheduler."""
    from repro import tenancy
    from repro.core.cluster import ClusterSpec, run_spmd

    def program(ctx):
        yield from ctx.mpi.recv(1 - ctx.rank, tag=3)
        yield from ctx.mpi.send(1 - ctx.rank, 0, tag=3)

    with tenancy.shadow_session(shadow):
        with pytest.raises(RuntimeError,
                           match=r"deadlock: rank0 never finished"):
            run_spmd(ClusterSpec(n_nodes=2), program, "mpi")


def test_blocked_receive_event_is_labelled_with_its_rank():
    eng = Engine()
    ep = MPIRuntime(eng, IBConfig(), 2).endpoint(1)
    assert "recv@1 pending" in repr(ep._match_or_wait(0, 0))
    assert "irecv @1" in repr(ep.irecv(0))
    assert "isend @1" in repr(ep.isend(0, None))


# ------------------------------------------------- matching-order fixes ---

def test_reordered_arrivals_respect_send_order():
    """MPI non-overtaking: if the fabric delivers a later send first
    (its envelope carries a higher sequence number), the endpoint must
    hold it until every earlier send from that source has been
    delivered.  The pre-fix endpoint matched purely on arrival order
    and handed over "B" here."""
    eng = Engine()
    rt = MPIRuntime(eng, IBConfig(), 2)
    ep = rt.endpoint(1)
    # rank 0's sends arrive swapped: seq 1 ("B") before seq 0 ("A")
    ep._on_fabric(0, "eager", (0, -1, "B", 1), 8)
    ep._on_fabric(0, "eager", (0, -1, "A", 0), 8)

    def fn(ep):
        first, _, _ = yield from ep.recv()
        second, _, _ = yield from ep.recv()
        return first, second

    p = eng.process(fn(ep))
    eng.run()
    assert p.ok and p.value == ("A", "B")


def test_wildcard_never_matches_later_eligible_first():
    """Property: drain with recv(ANY_SOURCE, ANY_TAG) under randomly
    interleaved multi-sender traffic — for every (source, tag) stream
    the payload sequence must come back in send order, whatever the
    global interleaving."""
    rng = np.random.default_rng(90)
    big = IBConfig().eager_threshold_bytes // 8 + 16
    for trial in range(8):
        n_senders = int(rng.integers(2, 5))
        # (tag, seq-id, rendezvous?) — mixing eager and rendezvous
        # from the same sender is what lets a later message physically
        # arrive first (a small eager overtakes a large handshake)
        plans = {s: [(int(rng.integers(0, 3)), i,
                      bool(rng.integers(0, 2)))
                     for i in range(int(rng.integers(3, 8)))]
                 for s in range(1, n_senders + 1)}
        total = sum(len(v) for v in plans.values())

        def fn(ep, plans=plans, total=total):
            if ep.rank == 0:
                got = []
                for _ in range(total):
                    item, src, tag = yield from ep.recv()
                    got.append((src, tag, int(np.asarray(item)[0])))
                return got
            handles = []
            for tag, i, rendezvous in plans[ep.rank]:
                payload = np.full(big if rendezvous else 1, i,
                                  np.int64)
                handles.append(ep.isend(0, payload, tag=tag))
            for h in handles:
                yield h
            return None

        vals, _ = run_ranks(n_senders + 1, fn)
        got = vals[0]
        for s, plan in plans.items():
            for tag in set(t for t, _, _ in plan):
                sent = [i for t, i, _ in plan if t == tag]
                recvd = [i for src, t, i in got
                         if src == s and t == tag]
                assert recvd == sent, (trial, s, tag, recvd, sent)


# ------------------------------------------ indexed vs linear matching ---

class _LinearMatcher:
    """Oracle: MPI matching as two linear scans (posted receives in
    post order, unexpected arrivals in arrival order)."""

    def __init__(self):
        self.posted = []        # (src, tag, recv_id)
        self.unexpected = []    # (src, tag, msg_id)

    @staticmethod
    def _matches(a_src, a_tag, src, tag):
        return ((src == ANY_SOURCE or a_src == src)
                and (tag == ANY_TAG or a_tag == tag))

    def arrive(self, src, tag, msg_id):
        """Return the recv_id the arrival completes, or None."""
        for i, (wsrc, wtag, rid) in enumerate(self.posted):
            if self._matches(src, tag, wsrc, wtag):
                del self.posted[i]
                return rid
        self.unexpected.append((src, tag, msg_id))
        return None

    def post(self, src, tag, recv_id):
        """Return the msg_id the receive takes at once, or None."""
        for i, (a_src, a_tag, mid) in enumerate(self.unexpected):
            if self._matches(a_src, a_tag, src, tag):
                del self.unexpected[i]
                return mid
        self.posted.append((src, tag, recv_id))
        return None

    def iprobe(self, src, tag):
        return any(self._matches(a_src, a_tag, src, tag)
                   for a_src, a_tag, _ in self.unexpected)


class _MatchHarness:
    """Feeds the same posts and arrivals to rank 0's endpoint and to
    the oracle, recording which arrival each receive got from both."""

    def __init__(self, n_ranks=4):
        self.ep = MPIRuntime(Engine(), IBConfig(), n_ranks).endpoint(0)
        self.oracle = _LinearMatcher()
        self.seq = {}
        self.n_msgs = 0
        self.n_recvs = 0
        self.waiting = {}       # recv_id -> Event of the endpoint
        self.got = {}           # recv_id -> msg_id, from the endpoint
        self.want = {}          # recv_id -> msg_id, from the oracle

    def arrive(self, src, tag):
        msg_id = self.n_msgs
        self.n_msgs += 1
        seq = self.seq.get(src, 0)
        self.seq[src] = seq + 1
        self.ep._on_fabric(src, "eager", (tag, -1, msg_id, seq), 8)
        rid = self.oracle.arrive(src, tag, msg_id)
        if rid is not None:
            self.want[rid] = msg_id
        return msg_id

    def post(self, src, tag):
        rid = self.n_recvs
        self.n_recvs += 1
        res = self.ep._match_or_wait(src, tag)
        if isinstance(res, Event):
            self.waiting[rid] = res
        else:
            self.got[rid] = res.payload
        mid = self.oracle.post(src, tag, rid)
        if mid is not None:
            self.want[rid] = mid
        return rid

    def results(self):
        got = dict(self.got)
        for rid, ev in self.waiting.items():
            if ev.triggered:
                got[rid] = ev.value.payload
        return got


def test_indexed_matching_equals_linear_scan_oracle():
    """Random interleavings of posts and arrivals on one endpoint:
    specific, ANY_SOURCE, ANY_TAG and full-wildcard receives over
    several sources and tags.  Every receive must get the arrival the
    linear-scan oracle gives it, and iprobe must agree throughout."""
    rng = np.random.default_rng(2017)
    srcs, tags = (1, 2, 3), (0, 1, 2)
    for trial in range(150):
        d = _MatchHarness()
        for _ in range(int(rng.integers(10, 60))):
            op = rng.integers(0, 3)
            if op == 0:
                d.arrive(int(rng.choice(srcs)), int(rng.choice(tags)))
            else:
                src = int(rng.choice((ANY_SOURCE,) + srcs))
                tag = int(rng.choice((ANY_TAG,) + tags))
                if op == 1:
                    d.post(src, tag)
                else:
                    assert d.ep.iprobe(src, tag) == \
                        d.oracle.iprobe(src, tag), (trial, src, tag)
        assert d.results() == d.want, trial
        # nothing left behind but what the oracle also still holds
        left = sorted(a.payload for b in d.ep._unexpected.values()
                      for a in b)
        assert left == sorted(m for _, _, m in d.oracle.unexpected)
        assert sum(len(b) for b in d.ep._recv_waiters.values()) == \
            len(d.oracle.posted)


def test_earlier_wildcard_receive_beats_later_specific_one():
    """A wildcard posted before a specific receive wins an arrival
    both match (post order, not specificity, decides)."""
    d = _MatchHarness()
    first = d.post(ANY_SOURCE, ANY_TAG)
    second = d.post(2, 5)
    third = d.post(ANY_SOURCE, 5)
    m0 = d.arrive(2, 5)
    m1 = d.arrive(2, 5)
    m2 = d.arrive(3, 5)
    assert d.results() == d.want == {first: m0, second: m1, third: m2}


def test_wildcard_receive_drains_unexpected_in_arrival_order():
    """Unexpected arrivals from several sources and tags come back to
    wildcard receives in arrival order, across sources."""
    d = _MatchHarness()
    order = [(3, 1), (1, 0), (2, 1), (1, 1), (3, 0), (2, 0)]
    msgs = [d.arrive(s, t) for s, t in order]
    assert d.ep.iprobe(ANY_SOURCE, 1) and not d.ep.iprobe(1, 2)
    rids = [d.post(ANY_SOURCE, ANY_TAG) for _ in range(3)]
    rids += [d.post(ANY_SOURCE, 0), d.post(ANY_SOURCE, 0)]
    rids.append(d.post(1, ANY_TAG))
    assert d.results() == d.want
    assert [d.want[r] for r in rids] == [msgs[i] for i in
                                         (0, 1, 2, 4, 5, 3)]
    assert not d.ep._unexpected and not d.ep._recv_waiters

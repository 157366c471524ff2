"""The destination-coalescing aggregation runtime (repro.agg).

Covers the spec surface, segment framing, the coalescing buffers'
flush causes and seeded flush ordering, the Träff tree routing,
repeat-run determinism, and — the load-bearing guarantee — result
identity between aggregation-off and watermark-1 runs for validated
GUPS and BFS on both fabrics (docs/aggregation.md).
"""

import numpy as np
import pytest

from repro.agg import AggSpec
from repro.agg.runtime import (AggProtocolError, AggStats, Aggregator,
                               merge_stats, pack_header, parse_segments,
                               unpack_header)
from repro.agg.spec import MAX_WATERMARK
from repro.core.cluster import ClusterSpec


# ----------------------------------------------------------------- spec ---

def test_spec_defaults_and_validation():
    s = AggSpec()
    assert s.watermark == 64 and s.timeout_s is None
    assert s.routing == "direct"
    with pytest.raises(ValueError):
        AggSpec(watermark=0)
    with pytest.raises(ValueError):
        AggSpec(watermark=MAX_WATERMARK + 1)
    with pytest.raises(ValueError):
        AggSpec(timeout_s=0.0)
    with pytest.raises(ValueError):
        AggSpec(routing="mesh")


def test_cluster_spec_type_checks_aggregation():
    ClusterSpec(n_nodes=2, aggregation=AggSpec())
    with pytest.raises(TypeError):
        ClusterSpec(n_nodes=2, aggregation="watermark=64")


# -------------------------------------------------------------- framing ---

def test_header_roundtrip():
    word = pack_header(epoch=5, fdest=1023, count=4242)
    assert unpack_header(word) == (5, 1023, 4242)
    # epoch wraps at 12 bits
    word = pack_header(epoch=(1 << 12) + 3, fdest=0, count=1)
    assert unpack_header(word)[0] == 3
    with pytest.raises(ValueError):
        pack_header(epoch=0, fdest=0, count=0)
    with pytest.raises(ValueError):
        pack_header(epoch=0, fdest=1 << 20, count=1)


def test_parse_segments_roundtrip_and_errors():
    a = np.arange(3, dtype=np.uint64)
    b = np.arange(5, dtype=np.uint64) + 100
    frame = np.concatenate([
        np.array([pack_header(1, 2, a.size)], np.uint64), a,
        np.array([pack_header(1, 3, b.size)], np.uint64), b])
    segs = parse_segments(frame)
    assert [(e, d, p.tolist()) for e, d, p in segs] == [
        (1, 2, a.tolist()), (1, 3, b.tolist())]
    with pytest.raises(AggProtocolError):
        parse_segments(np.array([0], np.uint64))       # bad magic
    with pytest.raises(AggProtocolError):
        parse_segments(frame[:-1])                     # truncated


# ----------------------------------------------------------- aggregator ---

def test_watermark_flush_cause_and_counts():
    stats = AggStats()
    ag = Aggregator(AggSpec(watermark=4), stats)
    assert ag.put(1, 1, np.arange(3, dtype=np.uint64), 0.0, 0) == []
    ready = ag.put(1, 1, np.arange(2, dtype=np.uint64), 0.0, 0)
    assert len(ready) == 1
    hop, frame, cause = ready[0]
    assert (hop, cause) == (1, "watermark")
    segs = parse_segments(frame)
    assert len(segs) == 1 and segs[0][2].size == 5
    assert ag.buffered_words == 0
    assert stats.words_put == 5 and stats.words_sent == 5
    assert stats.peak_buffered == 5


def test_timeout_flush_cause():
    stats = AggStats()
    ag = Aggregator(AggSpec(watermark=1 << 10, timeout_s=1e-6), stats)
    ag.put(2, 2, np.arange(2, dtype=np.uint64), 0.0, 0)
    # a put elsewhere after the deadline must evict the stale buffer
    ready = ag.put(3, 3, np.arange(1, dtype=np.uint64), 5e-6, 0)
    causes = {(h, c) for h, _, c in ready}
    assert (2, "timeout") in causes


def test_flush_all_order_is_seeded_and_reproducible():
    def orders(seed, rank, epoch):
        stats = AggStats()
        ag = Aggregator(AggSpec(watermark=1 << 10), stats)
        for hop in range(8):
            ag.put(hop, hop, np.array([hop], np.uint64), 0.0, epoch)
        return [h for h, _, _ in ag.flush_all(epoch, seed, rank)]

    base = orders(7, 0, 0)
    assert sorted(base) == list(range(8))
    assert base == orders(7, 0, 0)          # reproducible
    varied = {tuple(orders(7, r, e)) for r in range(4) for e in range(4)}
    assert len(varied) > 1                  # not one fixed order


def test_frame_groups_segments_by_destination():
    stats = AggStats()
    ag = Aggregator(AggSpec(watermark=1 << 10), stats)
    ag.put(1, 5, np.array([10], np.uint64), 0.0, 0)
    ag.put(1, 6, np.array([20], np.uint64), 0.0, 0)
    ag.put(1, 5, np.array([11], np.uint64), 0.0, 0)
    (hop, frame, cause), = ag.flush_all(0, seed=1, rank=0)
    segs = parse_segments(frame)
    assert [(d, p.tolist()) for _, d, p in segs] == [
        (5, [10, 11]), (6, [20])]


def test_merge_stats():
    a = AggStats(messages_pre=4, messages_post=2, peak_buffered=7)
    b = AggStats(messages_pre=6, messages_post=3, peak_buffered=5)
    m = merge_stats([a.as_dict(), b.as_dict()])
    assert m["messages_pre"] == 10 and m["messages_post"] == 5
    assert m["peak_buffered"] == 7
    assert m["message_ratio"] == 2.0


# ------------------------------------------------------------- routing ---

class _StubCtx:
    def __init__(self, rank, size):
        self.rank, self.size = rank, size
        self.engine = None
        self.dv = None
        self.mpi = None


def test_tree_routing_reaches_every_dest_in_two_hops():
    from repro.agg.runtime import _AggChannelBase
    for P in (2, 3, 4, 9, 10, 16, 17):
        for r in range(P):
            chan = _AggChannelBase(_StubCtx(r, P),
                                   AggSpec(routing="tree"), seed=1)
            for d in range(P):
                hop = chan.next_hop(d)
                assert 0 <= hop < P
                if hop != d:
                    assert hop != r
                    relay = _AggChannelBase(_StubCtx(hop, P),
                                            AggSpec(routing="tree"),
                                            seed=1)
                    assert relay.next_hop(d) == d


def test_direct_routing_is_identity():
    from repro.agg.runtime import _AggChannelBase
    chan = _AggChannelBase(_StubCtx(0, 8), AggSpec(), seed=1)
    assert [chan.next_hop(d) for d in range(8)] == list(range(8))


# ----------------------------------------- kernel result identity -------

@pytest.mark.parametrize("fabric", ["dv", "mpi"])
@pytest.mark.parametrize("routing", ["direct", "tree"])
def test_gups_off_vs_watermark1_table_identical(fabric, routing):
    """Aggregation must not change *what* GUPS computes, only when the
    words move: the validated table pins exact equality with the
    serial reference for both the legacy and the aggregated paths."""
    from repro.kernels.gups import run_gups
    kw = dict(table_words=1 << 8, n_updates=1 << 7, validate=True)
    off = run_gups(ClusterSpec(n_nodes=4, seed=11), fabric, **kw)
    on = run_gups(
        ClusterSpec(n_nodes=4, seed=11,
                    aggregation=AggSpec(watermark=1, routing=routing)),
        fabric, **kw)
    assert off["valid"] and on["valid"]
    assert on["agg"]["messages_post"] >= on["agg"]["messages_pre"] > 0


@pytest.mark.parametrize("fabric", ["dv", "mpi"])
def test_bfs_off_vs_watermark1_graph500_valid(fabric):
    """The aggregated BFS may pick different (valid) parents, but the
    Graph500 validator pins visited set + levels + tree legality, and
    the traversed-edge count (a property of the reachable component)
    must match the legacy run exactly."""
    from repro.kernels.bfs import run_bfs
    kw = dict(scale=8, n_roots=2, validate=True)
    off = run_bfs(ClusterSpec(n_nodes=4, seed=11), fabric, **kw)
    on = run_bfs(ClusterSpec(n_nodes=4, seed=11,
                             aggregation=AggSpec(watermark=1)), fabric,
                 **kw)
    assert off["valid"] and on["valid"]
    assert on["agg"]["messages_pre"] > 0


def test_verbs_and_diropt_reject_aggregation():
    from repro.kernels.bfs import run_bfs
    from repro.kernels.gups import run_gups
    spec = ClusterSpec(n_nodes=2, seed=11, aggregation=AggSpec())
    with pytest.raises(ValueError, match="verbs"):
        run_gups(spec, "verbs", table_words=1 << 8)
    with pytest.raises(ValueError, match="top-down"):
        run_bfs(spec, "mpi", scale=6, strategy="diropt")


def _fixed_pattern_run(kernel):
    from repro.apps.snap import run_snap
    from repro.kernels.fft1d import run_fft1d
    if kernel == "fft":
        return lambda spec: run_fft1d(spec, "dv", log2_points=8)
    return lambda spec: run_snap(spec, "dv", nx=4, ny_per_rank=2, nz=4,
                                 n_angles=8, chunk=2)


@pytest.mark.parametrize("field", ["aggregation", "traffic"])
@pytest.mark.parametrize("kernel", ["fft", "snap"])
def test_fixed_pattern_kernels_reject_explicit_spec_fields(kernel, field):
    """The FFT and the transport scan raise on an aggregation or
    traffic setting, as their job builders do for a tenant."""
    from repro.traffic.model import TrafficModel
    run = _fixed_pattern_run(kernel)
    value = (AggSpec(watermark=8) if field == "aggregation"
             else TrafficModel())
    with pytest.raises(ValueError, match="does not apply|do not apply"):
        run(ClusterSpec(n_nodes=2, **{field: value}))


@pytest.mark.parametrize("fabric", ["dv", "mpi"])
def test_tree_routing_forwards_and_validates(fabric):
    """Under tree routing on P > 4 some words must actually relay
    through an intermediate rank, and the result stays exact."""
    from repro.kernels.gups import run_gups
    r = run_gups(
        ClusterSpec(n_nodes=9, seed=11,
                    aggregation=AggSpec(watermark=16, routing="tree")),
        fabric, table_words=1 << 7, n_updates=1 << 7, validate=True)
    assert r["valid"]
    assert r["agg"]["forwarded_words"] > 0


def _run_kernel(kernel):
    from repro.kernels.bfs import run_bfs
    from repro.kernels.gups import run_gups
    if kernel == "gups":
        return lambda spec, fabric: run_gups(
            spec, fabric, table_words=1 << 8, n_updates=1 << 7)
    return lambda spec, fabric: run_bfs(spec, fabric, scale=7,
                                        n_roots=2)


@pytest.mark.parametrize("fabric", ["dv", "mpi"])
@pytest.mark.parametrize("kernel", ["gups", "bfs"])
def test_aggregated_run_is_deterministic(kernel, fabric):
    """Same seed, same spec -> a bit-identical result, rates and
    aggregation stats alike (the flush-order permutation is seeded,
    not incidental), for both irregular kernels on both fabrics."""
    run = _run_kernel(kernel)

    def one():
        r = run(ClusterSpec(n_nodes=4, seed=11,
                            aggregation=AggSpec(watermark=8)), fabric)
        assert r["agg"]["messages_pre"] > 0
        r.pop("tracer", None)
        return r

    assert one() == one()


def test_obs_series_emitted():
    from repro.kernels.gups import run_gups
    from repro.obs import registry as obsreg
    with obsreg.session(True) as reg:
        run_gups(
            ClusterSpec(n_nodes=4, seed=11,
                        aggregation=AggSpec(watermark=8)),
            "mpi", table_words=1 << 8, n_updates=1 << 7)
        snap = reg.snapshot()
    names = {entry["name"] for group in snap.values() for entry in group}
    assert {"agg.messages", "agg.flushes", "agg.words",
            "agg.buffered_words"} <= names

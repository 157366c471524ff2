"""Tests for the remote-memory extension (query-packet library)."""

import numpy as np
import pytest

from repro.core import ClusterSpec, run_spmd
from repro.dv.remote import (RemoteMemory, make_ring_permutation,
                             pointer_chase)


def test_ring_permutation_is_single_cycle():
    rng = np.random.default_rng(0)
    for n in (2, 5, 64):
        nxt = make_ring_permutation(n, rng)
        seen = set()
        cur = 0
        for _ in range(n):
            seen.add(cur)
            cur = int(nxt[cur])
        assert cur == 0 and len(seen) == n


def _put_then_get(n_nodes, words, put_addrs, put_vals, get_addrs):
    """Rank 0 puts, every owner waits on its preset group counter for
    its words to land (``put`` returns nothing), then rank 0 gets."""

    def program(ctx):
        api = ctx.dv
        mine = int((put_addrs // words == ctx.rank).sum())
        yield from api.set_counter(13, mine)
        yield from ctx.barrier()
        rm = RemoteMemory(api, ctx.size, words)
        if ctx.rank == 0:
            assert (yield from rm.put(put_addrs, put_vals,
                                      counter=13)) is None
        yield from api.wait_counter_zero(13)
        yield from ctx.barrier()
        got = None
        if ctx.rank == 0:
            got = (yield from rm.get(get_addrs)).tolist()
        yield from ctx.barrier()
        return got

    return run_spmd(ClusterSpec(n_nodes=n_nodes), program, "dv").values[0]


def test_remote_memory_put_get_roundtrip():
    addrs = np.array([0, 63, 64, 200, 255])   # spans all 4 owners
    vals = np.array([11, 22, 33, 44, 55], np.uint64)
    assert _put_then_get(4, 64, addrs, vals, addrs) == [11, 22, 33, 44, 55]


def test_remote_memory_get_preserves_request_order():
    # deliberately unsorted, interleaving both owners
    got = _put_then_get(2, 32, np.arange(64),
                        np.arange(64, dtype=np.uint64) * 10,
                        np.array([40, 1, 33, 0, 63]))
    assert got == [400, 10, 330, 0, 630]


def test_remote_memory_bounds_checked():
    spec = ClusterSpec(n_nodes=2)

    def program(ctx):
        rm = RemoteMemory(ctx.dv, ctx.size, 16)
        yield from ctx.sleep(0)
        with pytest.raises(IndexError):
            rm._locate(np.array([32]))
        return True

    assert run_spmd(spec, program, "dv").values[0]


def test_remote_memory_empty_get():
    spec = ClusterSpec(n_nodes=2)

    def program(ctx):
        rm = RemoteMemory(ctx.dv, ctx.size, 16)
        got = yield from rm.get([])
        return got.size

    assert run_spmd(spec, program, "dv").values[0] == 0


@pytest.mark.parametrize("fabric", ["dv", "verbs", "mpi"])
def test_pointer_chase_validates(fabric):
    r = pointer_chase(ClusterSpec(n_nodes=4), fabric,
                      words_per_node=256, hops=32)
    assert r["elapsed_s"] > 0
    assert r["latency_per_hop_us"] > 0


def test_pointer_chase_fabric_ordering():
    """The headline of the extension: VIC hardware replies beat
    HCA-served RDMA reads, which beat host-serviced MPI request/reply."""
    spec = ClusterSpec(n_nodes=8)
    lat = {f: pointer_chase(spec, f, hops=64)["latency_per_hop_us"]
           for f in ("dv", "verbs", "mpi")}
    assert lat["dv"] < lat["verbs"] < lat["mpi"]
    assert lat["dv"] < 0.7 * lat["mpi"]

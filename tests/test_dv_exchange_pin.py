"""The DV word exchange, pinned to the hand-written exchanges it replaced.

:meth:`repro.dv.api.DataVortexAPI.exchange_words` carries nine
all-gathers of a few words per peer: GUPS's termination counts, BFS's
two-word level exchange and the direction-optimising BFS's two one-word
exchanges, the aggregation channel's three-word count exchange, and the
heat residual, CG dot product, SNAP residual and SpMV norm.  Each run
below is recorded with :func:`tests.test_dv_fanout._record`: every
delivery with its addresses and values, every FIFO push, every counter
reaching zero and every waiter's resume, plus the results and the flow
statistics.  Its digest must equal the one recorded when every site
built its exchange by hand, at P = 1, 2, 5 and 64.  A range write
records as its address array, so it digests like the array it replaced.

Two sites moved their slots and nothing else; their records map each
exchange write back to the old layout before the digest:

* the aggregation channel strided its three words by P (word ``j`` from
  peer ``s`` at ``_SLOT_BASE + j*P + s``); they are rank-major now
  (``_SLOT_BASE + 3*s + j``);
* SpMV's norm slots sat at twice the receiver's own halo stride; they
  sit at twice the largest stride of any rank now, the same on every
  rank.
"""

import hashlib

import pytest

from repro.agg import AggSpec
from repro.agg.runtime import _CTR_AGG, _SLOT_BASE
from repro.apps.cg import run_cg
from repro.apps.heat import run_heat
from repro.apps.snap import run_snap_iterative
from repro.core.cluster import ClusterSpec
from repro.kernels import spmv
from repro.kernels.bfs import run_bfs
from repro.kernels.gups import run_gups
from tests.test_dv_fanout import _record

SIZES = (1, 2, 5, 64)
_GUPS = dict(table_words=256, n_updates=512)
_BFS = dict(scale=7, n_roots=2, validate=True)
_SNAP = dict(max_iters=3, nx=4, ny_per_rank=2, nz=4, n_angles=4)
_SPMV = dict(scale=7, iters=2, validate=True)


def _spec(n, **kw):
    return ClusterSpec(n_nodes=n, seed=3, **kw)


def _agg_spec(n):
    return _spec(n, aggregation=AggSpec(watermark=8, routing="tree"))


#: one run per ported site (both diropt exchanges run in one BFS)
RUNS = {
    "gups": lambda n: run_gups(
        _spec(n), "dv", window=128, validate=True, **_GUPS
    ),
    "agg": lambda n: run_gups(_agg_spec(n), "dv", **_GUPS),
    "bfs": lambda n: run_bfs(_spec(n), "dv", strategy="topdown", **_BFS),
    "bfs_diropt": lambda n: run_bfs(_spec(n), "dv", strategy="diropt", **_BFS),
    "heat": lambda n: run_heat(_spec(n), "dv", n=20, steps=3, validate=True),
    "cg": lambda n: run_cg(_spec(n), "dv", n=20, max_iters=6),
    "snap": lambda n: run_snap_iterative(_spec(n), "dv", **_SNAP),
    "spmv": lambda n: spmv.run_spmv(_spec(n), "dv", **_SPMV),
}


def _agg_remap(n):
    """Rank-major slot ``3*s + j`` back to the P-strided ``j*P + s``."""

    def remap(vic_id, effect, addrs):
        if effect.counter != _CTR_AGG:
            return addrs
        s, j = divmod(addrs - _SLOT_BASE, 3)
        return _SLOT_BASE + j * n + s

    return remap


def _spmv_remap(n):
    """Norm slots from the shared base back to twice each receiver's
    own halo stride."""
    a = spmv.build_matrix(_SPMV["scale"], 8, 3)
    strides = []
    for r in range(n):
        wanted = spmv._exchange_plan(a, r, n)[1]
        words = sum(w.size for q, w in enumerate(wanted) if q != r)
        strides.append(max(words, 1))
    norm_ctrs = (spmv._CTR_NORM_EVEN, spmv._CTR_NORM_ODD)

    def remap(vic_id, effect, addrs):
        if effect.counter not in norm_ctrs:
            return addrs
        return addrs - 2 * max(strides) + 2 * strides[vic_id]

    return remap


REMAPS = {"agg": _agg_remap, "spmv": _spmv_remap}


def _fingerprint(record):
    """A short digest of a :func:`_record` record."""
    return hashlib.sha256(repr(record).encode()).hexdigest()[:20]


#: digests of the hand-written exchanges, by site and P
PINNED = {
    ("agg", 1): "f30d32ff9ac093f83478",
    ("agg", 2): "698ebbd63f0f2bdb3c83",
    ("agg", 5): "8293b5f205cc7402bd5b",
    ("agg", 64): "a04f430277c839b9952d",
    ("bfs", 1): "407ba13ed0d8c9ab11da",
    ("bfs", 2): "6d061043fb57338f5740",
    ("bfs", 5): "20081f949203258e787b",
    ("bfs", 64): "27431a807fc062716cd6",
    ("bfs_diropt", 1): "f3ad54f2998ec91c4571",
    ("bfs_diropt", 2): "002d50133b5337abefe4",
    ("bfs_diropt", 5): "4488c2c6fcd173444272",
    ("bfs_diropt", 64): "41751659db838ea9c0a4",
    ("cg", 1): "3e144c36ed7eb4fa9bf2",
    ("cg", 2): "ab2f153e9cbe59c5897d",
    ("cg", 5): "618228a1d77734c05dfb",
    ("cg", 64): "deca9b5b1b0db238dacc",
    ("gups", 1): "4412fb8e78b390a15951",
    ("gups", 2): "582eb328a51dc736032a",
    ("gups", 5): "dd625878cfe8b76c0754",
    ("gups", 64): "62c7206e15d89b95c4c7",
    ("heat", 1): "1247aec0108d303105ae",
    ("heat", 2): "f933831ee2daadc048c2",
    ("heat", 5): "0f6a1592d8f78288e368",
    ("heat", 64): "175f80fcfbe53f8036b7",
    ("snap", 1): "de8bf706703ff5d14398",
    ("snap", 2): "c43a098c951bf6494db4",
    ("snap", 5): "6aab98c75d302288ca8e",
    ("snap", 64): "9cf3ec766fb520a3588b",
    ("spmv", 1): "03c29084bbeff4417c46",
    ("spmv", 2): "e1d48604af2bc6832c50",
    ("spmv", 5): "783a9cfcbfe78b562255",
    ("spmv", 64): "84b67e5cc51c9fdb1b10",
}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("site", sorted(RUNS))
def test_exchange_site_matches_hand_written(monkeypatch, site, n):
    remap = REMAPS[site](n) if site in REMAPS else None
    record = _record(monkeypatch, False, lambda: RUNS[site](n), remap)
    assert _fingerprint(record) == PINNED[site, n]

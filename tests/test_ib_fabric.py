"""Direct tests of the IB fabric model and its configuration."""

import numpy as np
import pytest

from repro.ib import IBConfig, IBFabric
from repro.ib.fabric import _route_hash, _route_table
from repro.sim import Engine


def make(n=8, **cfg_kw):
    eng = Engine()
    cfg = IBConfig(**cfg_kw)
    return eng, IBFabric(eng, cfg, n)


# ---------------------------------------------------------------- config ---

def test_ibconfig_validation():
    with pytest.raises(ValueError):
        IBConfig(leaf_size=0)
    with pytest.raises(ValueError):
        IBConfig(uplinks_per_leaf=0)
    with pytest.raises(ValueError):
        IBConfig(payload_efficiency=0.0)
    with pytest.raises(ValueError):
        IBConfig(payload_efficiency=1.5)


def test_effective_bw():
    cfg = IBConfig(link_bw=10e9, payload_efficiency=0.5)
    assert cfg.effective_bw == 5e9


# ---------------------------------------------------------------- fabric ---

def test_leaf_of_and_hops():
    eng, fab = make(n=32, leaf_size=8)
    assert fab.leaf_of(0) == 0 and fab.leaf_of(7) == 0
    assert fab.leaf_of(8) == 1 and fab.leaf_of(31) == 3
    assert fab.hops(0, 7) == 2       # same leaf
    assert fab.hops(0, 8) == 4       # cross leaf


def test_transfer_validation():
    eng, fab = make()
    with pytest.raises(ValueError):
        fab.transfer(-1, 0, 8)
    with pytest.raises(ValueError):
        fab.transfer(0, 99, 8)
    with pytest.raises(ValueError):
        fab.transfer(0, 1, -8)


def test_transfer_latency_components():
    cfg_kw = dict(leaf_size=4)
    eng, fab = make(n=8, **cfg_kw)
    got = {}
    fab.attach(1, lambda s, k, p, n: got.setdefault("same", eng.now))
    fab.attach(5, lambda s, k, p, n: got.setdefault("cross", eng.now))
    fab.transfer(0, 1, 8)
    fab.transfer(0, 5, 8)
    eng.run()
    # cross-leaf pays two extra switch hops
    assert got["cross"] > got["same"]


def test_message_rate_cap():
    """Tiny messages are paced by msg_gap on the tx channel."""
    eng, fab = make(n=2)
    times = []
    fab.attach(1, lambda s, k, p, n: times.append(eng.now))
    for _ in range(10):
        fab.transfer(0, 1, 8)
    eng.run()
    gaps = np.diff(sorted(times))
    assert np.all(gaps >= fab.config.msg_gap_s * 0.999)


def test_static_route_hash_deterministic():
    assert _route_hash(3, 7, 12) == _route_hash(3, 7, 12)
    # directionality matters (up and down links hash differently)
    vals = {_route_hash(s, d, 12) for s in range(8) for d in range(8)}
    assert len(vals) > 1


def test_memoised_route_hash_equals_blake2b_formula():
    import hashlib

    def formula(src, dst, n):
        h = hashlib.blake2b(f"{src}->{dst}".encode(), digest_size=4)
        return int.from_bytes(h.digest(), "little") % n

    pairs = [(s, d, n) for s in range(0, 300, 7) for d in range(0, 300, 11)
             for n in (1, 4, 12)]
    for _ in range(2):  # computed, then served from the memo
        assert [_route_hash(*p) for p in pairs] == [formula(*p)
                                                    for p in pairs]


@pytest.mark.parametrize("uplinks", [1, 3, 300])
def test_route_table_equals_route_hash_on_every_pair(uplinks):
    """Every cross-leaf route takes the uplink and downlink the blake2b
    formula names, through the lazily filled table that fabrics of one
    shape share."""
    n, leaf = 12, 4
    eng, fab = make(n=n, leaf_size=leaf, uplinks_per_leaf=uplinks)
    for src in range(n):
        for dst in range(n):
            if src // leaf == dst // leaf:
                assert fab._slots(src, dst) == (src, n + dst)
                continue
            assert fab._slots(src, dst) == (
                src,
                fab._up0 + src // leaf * uplinks
                + _route_hash(src, dst, uplinks),
                fab._down0 + dst // leaf * uplinks
                + _route_hash(dst, src, uplinks),
                n + dst)
    pairs = [(s, d) for s in range(n) for d in range(n)]
    assert [fab._uplink(s, d) for s, d in pairs] == [
        _route_hash(s, d, uplinks) for s, d in pairs]
    table = _route_table(n, uplinks)
    assert list(table) == [_route_hash(s, d, uplinks) for s, d in pairs]
    assert make(n=n, leaf_size=leaf, uplinks_per_leaf=uplinks)[1]._routes \
        is table


def test_stats_accumulate():
    eng, fab = make(n=16, leaf_size=8)
    fab.attach(1, lambda s, k, p, n: None)
    fab.attach(9, lambda s, k, p, n: None)
    fab.transfer(0, 1, 100)
    fab.transfer(0, 9, 100)
    eng.run()
    assert fab.stats.messages == 2
    assert fab.stats.bytes == 200
    assert fab.stats.cross_leaf_messages == 1


def test_contention_disabled_gives_private_channels():
    def drain_time(contention):
        eng = Engine()
        fab = IBFabric(eng, IBConfig(leaf_size=4, uplinks_per_leaf=1),
                       8, contention=contention)
        for d in range(4, 8):
            fab.attach(d, lambda s, k, p, n: None)
        for s in range(4):
            fab.transfer(s, s + 4, 1 << 20)
        eng.run()
        return eng.now

    assert drain_time(False) < drain_time(True)


def test_attach_twice_rejected():
    eng, fab = make()
    fab.attach(0, lambda s, k, p, n: None)
    with pytest.raises(ValueError):
        fab.attach(0, lambda s, k, p, n: None)


def test_payload_nbytes_inference():
    from repro.ib.mpi import payload_nbytes
    assert payload_nbytes(np.zeros(10, np.float64)) == 80
    assert payload_nbytes(b"abc") == 3
    assert payload_nbytes(7) == 8
    assert payload_nbytes(None) == 8
    assert payload_nbytes((1, 2.0)) == 24
    assert payload_nbytes({0: np.zeros(4)}) == 8 + 32 + 8
    assert payload_nbytes(object()) == 64

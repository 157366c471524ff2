"""Tests for DV memory, group counters, and the surprise FIFO."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dv.counters import GroupCounters
from repro.dv.dvmemory import _CHUNK_WORDS as CHUNK  # words per chunk
from repro.dv.dvmemory import DVMemory
from repro.dv.fifo import FifoOverflow, SurpriseFIFO
from repro.sim import Engine


# --------------------------------------------------------------- memory ---

def test_memory_default_zero():
    m = DVMemory(1024)
    assert m.read_word(0) == 0
    assert m.read_word(1023) == 0


def test_memory_write_read_word():
    m = DVMemory(1024)
    m.write_word(5, 0xDEADBEEF)
    assert m.read_word(5) == 0xDEADBEEF


def test_memory_word_wraps_to_64_bits():
    m = DVMemory(16)
    m.write_word(0, (1 << 64) + 3)
    assert m.read_word(0) == 3


def test_memory_bounds_checked():
    m = DVMemory(10)
    with pytest.raises(IndexError):
        m.read_word(10)
    with pytest.raises(IndexError):
        m.write_word(-1, 0)
    with pytest.raises(IndexError):
        m.scatter(np.array([9, 10]), np.array([1, 2], np.uint64))


def test_memory_scatter_gather():
    m = DVMemory(1 << 20)
    addrs = np.array([3, 70000, 5, 999999])  # spans chunks
    vals = np.array([10, 20, 30, 40], np.uint64)
    m.scatter(addrs, vals)
    assert np.array_equal(m.gather(addrs), vals)
    assert m.read_word(70000) == 20


def test_memory_scatter_last_writer_wins():
    m = DVMemory(100)
    m.scatter(np.array([7, 7, 7]), np.array([1, 2, 3], np.uint64))
    assert m.read_word(7) == 3


def test_memory_range_ops():
    m = DVMemory(1 << 18)
    vals = np.arange(1000, dtype=np.uint64)
    m.write_range(500, vals)
    assert np.array_equal(m.read_range(500, 1000), vals)
    # untouched region still zero
    assert np.array_equal(m.read_range(0, 10), np.zeros(10, np.uint64))


def test_memory_ranges_straddle_chunks():
    """Contiguous ranges cut at the chunk boundaries: the slices of a
    read or write across two or three chunks line up with a word-at-a-
    time model, and untouched chunks in the middle read as zeros."""
    m = DVMemory(4 * CHUNK)
    lo = CHUNK - 3
    vals = np.arange(1, 8, dtype=np.uint64)  # words CHUNK-3 .. CHUNK+3
    m.write_range(lo, vals)
    assert np.array_equal(m.read_range(lo, 7), vals)
    assert [m.read_word(a) for a in range(lo, lo + 7)] == vals.tolist()
    assert m.read_word(lo - 1) == 0 and m.read_word(lo + 7) == 0
    # a range spanning three chunks, of which chunk 2 was never touched
    m.write_word(3 * CHUNK, 99)
    got = m.read_range(CHUNK - 2, 2 * CHUNK + 3)
    want = np.zeros(2 * CHUNK + 3, np.uint64)
    want[:6] = vals[1:]
    want[-1] = 99
    assert np.array_equal(got, want)
    assert m.touched_bytes == 3 * CHUNK * 8
    # overwrites: the last write to a word wins
    m.write_range(CHUNK - 1, np.array([7, 8], np.uint64))
    m.write_range(CHUNK, np.array([9], np.uint64))
    assert m.read_range(CHUNK - 1, 2).tolist() == [7, 9]


def test_memory_range_reads_of_untouched_memory_are_fresh_zeros():
    m = DVMemory(3 * CHUNK)
    out = m.read_range(CHUNK - 4, CHUNK + 8)
    assert out.dtype == np.uint64 and not out.any()
    assert m.touched_bytes == 0
    out[:] = 5  # a copy, never a view of the memory
    m.write_range(0, np.ones(4, np.uint64))
    view = m.read_range(0, 4)
    view[:] = 0
    assert m.read_range(0, 4).tolist() == [1, 1, 1, 1]
    assert m.read_range(CHUNK, 0).size == 0


def test_memory_range_bounds_and_shapes():
    m = DVMemory(CHUNK + 10)
    straddle = re.escape(f"[{CHUNK - 6}, {CHUNK + 10}]")
    with pytest.raises(IndexError, match=straddle):
        m.write_range(CHUNK - 6, np.zeros(17, np.uint64))
    with pytest.raises(IndexError, match=r"\[-1, 2\]"):
        m.read_range(-1, 4)
    with pytest.raises(IndexError):
        m.read_range(CHUNK, 11)
    with pytest.raises(ValueError):
        m.write_range(0, np.zeros((2, 2), np.uint64))
    assert m.touched_bytes == 0
    m.write_range(CHUNK + 10, np.zeros(0, np.uint64))  # empty: no check
    assert m.read_range(CHUNK + 10, 0).size == 0


def test_memory_one_word_scatter_matches_vector_path():
    m = DVMemory(2 * CHUNK)
    m.scatter(np.array([CHUNK + 1]), np.array([2**64 - 1], np.uint64))
    m.scatter(np.array(5), np.array(6, np.uint64))  # 0-d
    assert m.read_word(CHUNK + 1) == 2**64 - 1
    assert m.read_word(5) == 6
    past_end = re.escape(f"[{2 * CHUNK}, {2 * CHUNK}]")
    with pytest.raises(IndexError, match=past_end):
        m.scatter(np.array([2 * CHUNK]), np.array([1], np.uint64))
    with pytest.raises(IndexError, match=r"\[-1, -1\]"):
        m.scatter(np.array([-1]), np.array([1], np.uint64))


def test_memory_lazy_allocation():
    m = DVMemory(4 * 1024 * 1024)  # 32 MB worth of words
    assert m.touched_bytes == 0
    m.write_word(0, 1)
    first = m.touched_bytes
    assert 0 < first < 32 * 1024 * 1024
    m.write_word(1, 1)  # same chunk
    assert m.touched_bytes == first


def test_memory_shape_mismatch():
    m = DVMemory(100)
    with pytest.raises(ValueError):
        m.scatter(np.array([1, 2]), np.array([1], np.uint64))


@given(st.lists(st.tuples(st.integers(0, 9999),
                          st.integers(0, 2**64 - 1)),
                min_size=1, max_size=100))
@settings(max_examples=50, deadline=None)
def test_property_memory_matches_dict_model(ops):
    m = DVMemory(10000)
    model = {}
    for addr, val in ops:
        m.write_word(addr, val)
        model[addr] = val
    for addr, val in model.items():
        assert m.read_word(addr) == val


# -------------------------------------------------------------- counters ---

def make_counters():
    return GroupCounters(Engine(), 64, scratch=63, barrier=(61, 62))


def test_counter_set_and_decrement():
    c = make_counters()
    c.set(0, 5)
    c.decrement(0, 3)
    assert c.value(0) == 2
    c.decrement(0, 2)
    assert c.value(0) == 0


def test_counter_wait_zero_fires_on_transition():
    eng = Engine()
    c = GroupCounters(eng, 64, scratch=63, barrier=(61, 62))
    c.set(1, 2)
    ev = c.wait_zero(1)
    c.decrement(1)
    assert not ev.triggered
    c.decrement(1)
    assert ev.triggered


def test_counter_wait_zero_immediate_when_zero():
    c = make_counters()
    ev = c.wait_zero(3)
    assert ev.triggered


def test_counter_race_skips_zero_and_never_fires():
    """The paper's SS III hazard: data racing ahead of the preset makes the
    counter overshoot and the wait hang."""
    c = make_counters()
    c.decrement(4, 1)        # data arrives before the preset
    c.set(4, 3)              # preset lands late
    ev = c.wait_zero(4)
    c.decrement(4, 3)        # remaining data
    assert c.value(4) == 0   # exact zero only because set() overwrote
    # counter DID hit zero here because set() overwrote the -1; build the
    # true overshoot: preset then too many arrivals
    c2 = make_counters()
    c2.set(5, 2)
    ev2 = c2.wait_zero(5)
    c2.decrement(5, 3)       # overshoot straight past zero
    assert c2.value(5) == -1
    assert not ev2.triggered


def test_counter_bounds_and_validation():
    c = make_counters()
    with pytest.raises(IndexError):
        c.set(64, 0)
    with pytest.raises(IndexError):
        c.value(-1)
    with pytest.raises(ValueError):
        c.set(0, -1)
    with pytest.raises(ValueError):
        c.decrement(0, -1)


def test_counter_zero_mask_and_user_list():
    c = make_counters()
    c.set(0, 1)
    mask = c.zero_mask()
    assert mask[0] is False and mask[1] is True
    users = c.user_counters()
    assert 61 not in users and 62 not in users and 63 not in users
    assert len(users) == 61


def test_counter_set_to_zero_fires():
    c = make_counters()
    c.set(2, 5)
    ev = c.wait_zero(2)
    c.set(2, 0)
    assert ev.triggered


# ------------------------------------------------------------------ fifo ---

def test_fifo_push_pop_order():
    f = SurpriseFIFO(Engine(), capacity=100)
    f.push(np.array([1, 2, 3], np.uint64), src=0)
    f.push(np.array([4, 5], np.uint64), src=1)
    assert len(f) == 5
    assert f.pop(2).tolist() == [1, 2]
    assert f.pop().tolist() == [3, 4, 5]
    assert len(f) == 0


def test_fifo_pop_empty():
    f = SurpriseFIFO(Engine(), capacity=10)
    assert f.pop().size == 0


def test_fifo_partial_segment_pop():
    f = SurpriseFIFO(Engine(), capacity=100)
    f.push(np.arange(10, dtype=np.uint64))
    assert f.pop(4).tolist() == [0, 1, 2, 3]
    assert f.pop(4).tolist() == [4, 5, 6, 7]
    assert len(f) == 2


def test_fifo_overflow_strict_raises():
    f = SurpriseFIFO(Engine(), capacity=4)
    f.push(np.arange(3, dtype=np.uint64))
    with pytest.raises(FifoOverflow):
        f.push(np.arange(2, dtype=np.uint64))


def test_fifo_overflow_lossy_drops_and_counts():
    f = SurpriseFIFO(Engine(), capacity=4, strict=False)
    accepted = f.push(np.arange(6, dtype=np.uint64))
    assert accepted == 4
    assert f.dropped == 2
    assert len(f) == 4


def test_fifo_wait_nonempty():
    eng = Engine()
    f = SurpriseFIFO(eng, capacity=100)

    def consumer(eng):
        yield f.wait_nonempty()
        return (eng.now, f.pop().tolist())

    def producer(eng):
        yield eng.timeout(2.0)
        f.push(np.array([42], np.uint64))

    p = eng.process(consumer(eng))
    eng.process(producer(eng))
    eng.run()
    assert p.value == (2.0, [42])


def test_fifo_pop_with_sources():
    f = SurpriseFIFO(Engine(), capacity=100)
    f.push(np.array([1], np.uint64), src=3)
    f.push(np.array([2, 3], np.uint64), src=7)
    batches = f.pop_with_sources()
    assert [(s, v.tolist()) for s, v in batches] == [(3, [1]), (7, [2, 3])]
    assert len(f) == 0


@given(st.lists(st.lists(st.integers(0, 2**64 - 1), min_size=1,
                         max_size=20), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_property_fifo_preserves_order_and_content(batches):
    f = SurpriseFIFO(Engine(), capacity=10**6)
    flat = []
    for b in batches:
        f.push(np.array(b, np.uint64))
        flat.extend(b)
    assert f.pop().tolist() == flat


# --------------------------------------------- lossy partial accepts ---

def test_fifo_partial_accept_audit():
    """Overflow in drop mode: the accepted prefix is queued under the
    right source tag, ``total_pushed`` counts accepted words only, and
    ``dropped`` matches the obs ``dv.fifo.words_dropped`` counter."""
    from repro import obs
    with obs.session() as reg:
        f = SurpriseFIFO(Engine(), capacity=5, strict=False)
        assert f.push(np.array([1, 2, 3], np.uint64), src=4) == 3
        # 4 words arrive from src 9 with only 2 free
        assert f.push(np.array([10, 11, 12, 13], np.uint64), src=9) == 2
        assert f.dropped == 2
        assert f.total_pushed == 5            # accepted words only
        assert len(f) == 5
        # a full FIFO accepts nothing and appends no empty segment
        assert f.push(np.array([99], np.uint64), src=1) == 0
        assert f.total_pushed == 5
        batches = [(s, v.tolist()) for s, v in f.pop_with_sources()]
        assert batches == [(4, [1, 2, 3]), (9, [10, 11])]
        assert reg.value("dv.fifo.words_dropped") == f.dropped == 3
        assert reg.value("dv.fifo.words_pushed") == 5


def test_fifo_partial_accept_does_not_alias_caller_buffer():
    """The accepted prefix must be copied: a sender reusing its buffer
    after a partial accept must not rewrite words already queued."""
    f = SurpriseFIFO(Engine(), capacity=2, strict=False)
    buf = np.array([7, 8, 9], np.uint64)
    assert f.push(buf, src=0) == 2
    buf[:] = 0                                # sender recycles its buffer
    assert f.pop().tolist() == [7, 8]

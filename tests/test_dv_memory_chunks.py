"""DV memory in chunks: a dense model, and what a run commits.

Random programs of word, vector and range operations run on a
:class:`~repro.dv.dvmemory.DVMemory` of many chunks and on a dense model,
one flat ``np.zeros(n_words, np.uint64)`` image that scatters a word at a
time in program order, so the last writer wins by construction.  Every
read, every error and its message, and the image must agree, and the
memory must commit exactly the chunks the program wrote.  The same
programs run through a tenant's windowed view
(:mod:`repro.tenancy.views`), which must pass in-window operations
through unchanged and reject the others before they touch the memory.
"""

import numpy as np
import pytest

from repro import faults
from repro.core.cluster import ClusterSpec
from repro.dv.config import DVConfig
from repro.dv.dvmemory import _CHUNK_WORDS as CHUNK
from repro.dv.dvmemory import DVMemory
from repro.dv.flow import FlowNetwork, apply_flow_faults
from repro.dv.vic import VIC, MemWrite
from repro.faults import injector as fltreg
from repro.faults.plan import FaultPlan
from repro.kernels.gups import run_gups
from repro.sim.engine import Engine
from repro.tenancy.spec import (
    TenantIsolationError,
    TenantSpec,
    resolve_partitions,
)
from repro.tenancy.views import TenantNetworkView, TenantVICView

N_WORDS = 6 * CHUNK + 123  # many chunks and a ragged last one
WINDOW = (CHUNK - 40, 4 * CHUNK + 17)  # a tenant window across chunks
MASK = 2**64 - 1


class DenseModel:
    """The DV memory as one flat image; scatters go a word at a time."""

    def __init__(self, n_words):
        self.n_words = n_words
        self.image = np.zeros(n_words, np.uint64)
        self.written = set()  # chunk index of every word written

    def _range_error(self, lo, hi):
        return IndexError(
            f"DV memory address out of range: [{lo}, {hi}] "
            f"vs capacity {self.n_words} words"
        )

    def _word(self, addr):
        if not 0 <= addr < self.n_words:
            raise IndexError(f"address {addr} out of range")

    def _flat(self, addrs):
        flat = np.asarray(addrs).ravel().tolist()
        if flat and (min(flat) < 0 or max(flat) >= self.n_words):
            raise self._range_error(min(flat), max(flat))
        return flat

    def _span(self, start, n):
        if start < 0 or start + n > self.n_words:
            raise self._range_error(start, start + n - 1)

    def read_word(self, addr):
        self._word(addr)
        return int(self.image[addr])

    def write_word(self, addr, value):
        self._word(addr)
        self.image[addr] = value & MASK
        self.written.add(addr // CHUNK)

    def scatter(self, addrs, values):
        if np.shape(addrs) != np.shape(values):
            raise ValueError("addrs and values must have identical shapes")
        flat = self._flat(addrs)
        for addr, value in zip(flat, np.asarray(values).ravel().tolist()):
            self.image[addr] = value
            self.written.add(addr // CHUNK)

    def gather(self, addrs):
        flat = self._flat(addrs)
        got = np.array([self.image[a] for a in flat], np.uint64)
        return got.reshape(np.shape(addrs))

    def write_range(self, start, values):
        values = np.asarray(values, np.uint64)
        if values.ndim != 1:
            raise ValueError("addrs and values must have identical shapes")
        if values.size:
            end = start + values.size
            self._span(start, values.size)
            self.image[start:end] = values
            self.written.update(range(start // CHUNK, (end - 1) // CHUNK + 1))

    def read_range(self, start, n):
        if n <= 0:
            return np.zeros(0, np.uint64)
        self._span(start, n)
        return self.image[start : start + n].copy()


class WindowedModel:
    """The dense model behind a tenant's ``[lo, hi)`` DV-memory window."""

    def __init__(self, model, lo, hi, tenant_id):
        self.model, self.lo, self.hi = model, lo, hi
        self.tenant_id = tenant_id
        self.image, self.written = model.image, model.written

    def _check(self, lo, hi):
        if lo < self.lo or hi > self.hi:
            raise TenantIsolationError(
                f"tenant {self.tenant_id!r}: DV-memory access [{lo}, {hi}) "
                f"outside its window [{self.lo}, {self.hi})"
            )

    def _check_addrs(self, addrs):
        flat = np.asarray(addrs).ravel().tolist()
        if flat:
            self._check(min(flat), max(flat) + 1)

    def read_word(self, addr):
        self._check(addr, addr + 1)
        return self.model.read_word(addr)

    def write_word(self, addr, value):
        self._check(addr, addr + 1)
        self.model.write_word(addr, value)

    def scatter(self, addrs, values):
        self._check_addrs(addrs)
        self.model.scatter(addrs, values)

    def gather(self, addrs):
        self._check_addrs(addrs)
        return self.model.gather(addrs)

    # an access that touches no word is not checked against the window
    def write_range(self, start, values):
        n = np.asarray(values).size
        if n:
            self._check(start, start + n)
        self.model.write_range(start, values)

    def read_range(self, start, n):
        if n > 0:
            self._check(start, start + n)
        return self.model.read_range(start, n)


# ------------------------------------------------------------ programs ---


def _addr(rng, lo, hi):
    """An address of ``[lo, hi)``: at a chunk boundary or an end, or
    anywhere; one in twenty lies just outside."""
    r = rng.random()
    if r < 0.025:
        return lo - int(rng.integers(1, 4))
    if r < 0.05:
        return hi + int(rng.integers(0, 3))
    if r < 0.5:
        edges = [lo, hi - 1, *range(CHUNK * (lo // CHUNK + 1), hi, CHUNK)]
        edge = edges[int(rng.integers(len(edges)))]
        return min(max(edge + int(rng.integers(-3, 4)), lo), hi - 1)
    return int(rng.integers(lo, hi))


def _addrs(rng, lo, hi):
    """Addresses for a scatter or gather: empty, 0-d, one element, a few
    or many, sometimes drawn from a small pool (duplicates), sometimes
    2-d or a plain list."""
    shapes = [(0,), (), (1,), (int(rng.integers(2, 9)),), (300,), (4, 6)]
    shape = shapes[int(rng.integers(len(shapes)))]
    n = int(np.prod(shape))
    if rng.random() < 0.3:
        pool = [_addr(rng, lo, hi) for _ in range(3)]
        flat = [pool[int(i)] for i in rng.integers(0, 3, n)]
    else:
        flat = [_addr(rng, lo, hi) for _ in range(n)]
    addrs = np.array(flat, np.int64).reshape(shape)
    if addrs.ndim == 1 and rng.random() < 0.2:
        return addrs.tolist()
    return addrs


def _values(rng, shape):
    return rng.integers(0, MASK, size=shape, dtype=np.uint64, endpoint=True)


def _program(seed, lo, hi, n_ops=40):
    """``n_ops`` random ``(method, args)`` calls over ``[lo, hi)``."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(n_ops):
        kind = int(rng.integers(6))
        if kind == 0:
            # up to 2**65: the memory keeps the low 64 bits
            value = int(rng.integers(8)) << 62 | int(rng.integers(1 << 62))
            ops.append(("write_word", _addr(rng, lo, hi), value))
        elif kind == 1:
            ops.append(("read_word", _addr(rng, lo, hi)))
        elif kind == 2:
            addrs = _addrs(rng, lo, hi)
            values = _values(rng, np.shape(addrs))
            if rng.random() < 0.05:  # a shape mismatch
                values = _values(rng, (np.size(addrs) + 1,))
            ops.append(("scatter", addrs, values))
        elif kind == 3:
            ops.append(("gather", _addrs(rng, lo, hi)))
        else:
            big = int(rng.integers(2 * CHUNK))  # across up to three chunks
            sizes = [0, 1, int(rng.integers(2, 40)), big]
            n = sizes[int(rng.integers(len(sizes)))]
            start = _addr(rng, lo, hi) - int(rng.integers(0, n + 1)) // 2
            if kind == 4:
                values = _values(rng, (n,))
                if rng.random() < 0.05:
                    values = _values(rng, (2, 2))
                ops.append(("write_range", start, values))
            else:
                if rng.random() < 0.05:
                    n = -int(rng.integers(1, 3))
                ops.append(("read_range", start, n))
    return ops


def _outcome(target, method, args):
    try:
        got = getattr(target, method)(*args)
    except (IndexError, ValueError, TenantIsolationError) as exc:
        return "error", type(exc), str(exc)
    if isinstance(got, np.ndarray):
        return "ok", got.dtype, got.shape, got.tolist()
    return "ok", type(got), got


def _run(target, model, memory, ops):
    """Run ``ops`` on ``target`` and ``model``; after each, the two agree
    and ``memory`` commits exactly the chunks written so far."""
    kinds = set()
    for i, (method, *args) in enumerate(ops):
        got = _outcome(target, method, args)
        want = _outcome(model, method, args)
        assert got == want, (i, method)
        kinds.add((method, want[0]))
        assert memory.touched_bytes == len(model.written) * CHUNK * 8, i
    assert np.array_equal(memory.read_range(0, memory.n_words), model.image)
    return kinds


SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
def test_memory_matches_dense_model(seed):
    memory = DVMemory(N_WORDS)
    _run(memory, DenseModel(N_WORDS), memory, _program(seed, 0, N_WORDS))


def _vic_view():
    """A real VIC of N_WORDS words behind a tenant window of it."""
    cfg = DVConfig(dv_memory_bytes=N_WORDS * 8)
    engine = Engine()
    vic = VIC(engine, cfg, 0, FlowNetwork(engine, cfg, 2))
    tenant = TenantSpec("t", workload="gups", n_ranks=1, dv_slots=WINDOW)
    (part,) = resolve_partitions([tenant], 2, cfg)
    return vic.memory, TenantVICView(vic, part, 0).memory


@pytest.mark.parametrize("seed", SEEDS)
def test_windowed_view_matches_dense_model(seed):
    memory, view = _vic_view()
    model = WindowedModel(DenseModel(N_WORDS), *WINDOW, "t")
    _run(view, model, memory, _program(seed, *WINDOW))


def test_programs_reach_every_operation_and_error():
    """The seeds above drive every method both to a result and to an
    error, directly and through the view."""
    memory = DVMemory(N_WORDS)
    model = DenseModel(N_WORDS)
    direct = set()
    for seed in SEEDS:
        direct |= _run(memory, model, memory, _program(seed, 0, N_WORDS))
    methods = ["write_word", "read_word", "scatter", "gather"]
    methods += ["write_range", "read_range"]
    assert direct == {(m, k) for m in methods for k in ("ok", "error")}
    memory, view = _vic_view()
    model = WindowedModel(DenseModel(N_WORDS), *WINDOW, "t")
    windowed = set()
    for seed in SEEDS:
        windowed |= _run(view, model, memory, _program(seed, *WINDOW))
    assert windowed == direct


def test_duplicates_zero_d_and_empty_inputs():
    """The cases a random program might miss, spelled out."""
    memory, model = DVMemory(N_WORDS), DenseModel(N_WORDS)
    dup = np.array([CHUNK + 1, 2, CHUNK + 1, 5 * CHUNK, 2, CHUNK + 1])
    vals = np.arange(1, 7, dtype=np.uint64)
    ops = [
        ("scatter", dup, vals),  # across chunks: later entries win
        ("scatter", dup[:3] % CHUNK, vals[:3]),  # within one chunk
        ("scatter", np.array(7), np.array(8, np.uint64)),  # 0-d
        ("scatter", np.array([N_WORDS - 1]), np.array([9], np.uint64)),
        ("scatter", np.zeros(0, np.int64), np.zeros(0, np.uint64)),
        ("scatter", np.array([N_WORDS]), np.array([1], np.uint64)),
        ("scatter", np.array([-1, 4]), np.array([1, 2], np.uint64)),
        ("gather", dup),
        ("gather", np.array(CHUNK + 1)),  # 0-d: a 0-d array back
        ("gather", np.array([[2, 5 * CHUNK], [N_WORDS - 1, 3 * CHUNK]])),
        ("gather", np.zeros((0, 3), np.int64)),
        ("gather", np.array([0, N_WORDS])),
        ("write_range", N_WORDS, np.zeros(0, np.uint64)),  # empty: no check
        ("write_range", 1, np.zeros(0, np.uint64)),  # empty, left of window
        ("write_range", 1, np.zeros((0, 2), np.uint64)),  # empty but 2-d
        ("write_range", N_WORDS - 2, np.ones(3, np.uint64)),
        ("read_range", N_WORDS + 5, 0),
        ("read_range", 1, 0),
        ("read_range", 3 * CHUNK - 1, -2),
        ("read_range", 4 * CHUNK + 20, -2),  # right of the window
        ("read_range", 2 * CHUNK, -1),  # in the window
        ("read_range", CHUNK - 1, 2 * CHUNK + 2),
        ("write_word", 3, 2**64 + 5),  # wraps to 64 bits
        ("read_word", 3),
        ("read_word", N_WORDS),
    ]
    _run(memory, model, memory, ops)
    # later entries win, across chunks and within one
    assert memory.gather(dup).tolist() == [6, 2, 6, 4, 2, 6]
    assert memory.read_word(1) == 3
    # through a tenant's window: a range that touches no word is a
    # no-op wherever it starts, the rest as the window decides
    memory, view = _vic_view()
    _run(view, WindowedModel(DenseModel(N_WORDS), *WINDOW, "t"), memory, ops)


def test_gups_commits_one_chunk_per_vic(monkeypatch):
    """GUPS uses only the P count slots ``[0, P)`` of each VIC's DV
    memory, so each VIC commits exactly one chunk.  A deterministic
    stand-in for host RSS that does not depend on the allocator."""
    # glibc serves a block at or above its 128 KiB default mmap
    # threshold from mmap (only touched pages resident) until such
    # blocks are freed, which raises the threshold above them; after
    # that calloc zeroes, and so commits, every chunk in full.  Chunks
    # below the default threshold are small heap blocks either way.
    assert CHUNK * 8 < 128 * 1024
    vics = []
    real_init = VIC.__init__

    def vic_init(vic, *args, **kwargs):
        real_init(vic, *args, **kwargs)
        vics.append(vic)

    monkeypatch.setattr(VIC, "__init__", vic_init)
    out = run_gups(ClusterSpec(n_nodes=8, seed=1), "dv", validate=True)
    assert out["valid"]
    assert [vic.memory.touched_bytes for vic in vics] == [CHUNK * 8] * 8


def _vic():
    """VIC 0 of N_WORDS words on a two-port network."""
    cfg = DVConfig(dv_memory_bytes=N_WORDS * 8)
    engine = Engine()
    return VIC(engine, cfg, 0, FlowNetwork(engine, cfg, 2))


#: what the 16 fault plans below do to a range write of k words
OUTCOMES = {
    1: {"lost", "intact", "corrupted"},
    5: {"dropped", "intact", "corrupted"},
}


@pytest.mark.parametrize("k,one_int", [(1, True), (1, False), (5, False)])
def test_range_memwrite_matches_arrays(k, one_int):
    """A range ``MemWrite`` (an ``int`` start and ``k`` values, one
    word maybe as an ``int``) leaves the same DV memory and counters as
    the address-array form of the same write, across a chunk boundary
    too, and degrades to the same survivors and corruptions under
    faults."""
    start = CHUNK - 2
    values = MASK - np.arange(k, dtype=np.uint64)
    words = int(values[0]) if one_int else values
    ranged = MemWrite(addrs=start, values=words, counter=7)
    arrays = MemWrite(
        addrs=np.arange(start, start + k, dtype=np.int64),
        values=values.copy(),
        counter=7,
    )
    assert ranged.span() == arrays.span() == (start, start + k)
    assert ranged.n_packets == arrays.n_packets == k

    def delivered(effect):
        vic = _vic()
        vic.counters.set(7, 9)
        vic._on_delivery(1, effect, effect.n_packets)
        return (
            vic.memory.read_range(start - 2, k + 4).tolist(),
            sorted(vic.memory._chunks),
            vic.counters.value(7),
            vic.packets_received,
        )

    image = [0, 0, *values.tolist(), 0, 0]
    chunks = [0, 1] if k > 2 else [0]
    assert delivered(ranged) == delivered(arrays)
    assert delivered(ranged) == (image, chunks, 9 - k, k)

    def degraded(plan, effect):
        with faults.session(plan):
            site = fltreg.site("dv.flow")
            out = apply_flow_faults(site, effect, 0, 1, 0.0, 0.0)
        if out is None:
            return None
        addrs, vals = out.expanded()
        return addrs.tolist(), vals.tolist(), out.counter

    outcomes = set()
    for seed in range(16):
        plan = FaultPlan(seed=seed, drop_prob=0.3, corrupt_prob=0.5)
        got = degraded(plan, ranged)
        assert got == degraded(plan, arrays)
        if got is None:
            outcomes.add("lost")
            continue
        if len(got[0]) < k:
            outcomes.add("dropped")
        kept = [int(values[a - start]) for a in got[0]]
        outcomes.add("corrupted" if got[1] != kept else "intact")
    assert outcomes == OUTCOMES[k]


@pytest.mark.parametrize("k", [1, 3])
def test_range_memwrite_past_the_end_raises(k):
    """A range write whose last word lies past the DV memory raises
    before it writes a word."""
    vic = _vic()
    effect = MemWrite(addrs=N_WORDS - k + 1, values=np.ones(k, np.uint64))
    with pytest.raises(IndexError, match="out of range"):
        vic._on_delivery(1, effect, effect.n_packets)
    assert vic.memory._chunks == {}


def test_tenant_view_refuses_a_range_past_its_window():
    """A tenant's network view checks a range write's whole span, not
    its start alone."""
    vic = _vic()
    tenant = TenantSpec("t", workload="gups", n_ranks=1, dv_slots=WINDOW)
    (part,) = resolve_partitions([tenant], 2, vic.config)
    view = TenantNetworkView(vic.network, part)
    hi = WINDOW[1]
    words = np.ones(3, np.uint64)
    view.transmit(0, 0, 3, payload=MemWrite(addrs=hi - 3, values=words))
    spill = MemWrite(addrs=hi - 2, values=words)
    with pytest.raises(TenantIsolationError, match=rf"\[{hi - 2}, {hi + 1}\)"):
        view.transmit(0, 0, 3, payload=spill)
    vic.engine.run()
    assert vic.memory.read_range(hi - 4, 4).tolist() == [0, 1, 1, 1]

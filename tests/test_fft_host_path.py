"""FFT-1D host path: the same bits with fewer host passes.

In :mod:`repro.kernels.fft1d`, ``_twiddle`` builds real angles and
phasors from ``np.cos``/``np.sin`` (or complex ``np.exp`` where those
differ from ``cexp``), ``_check`` takes the error once and the
``np.isclose`` verdict from it, and ``_prepare`` cuts the rank blocks
from one tiled transpose.  The DV branch posts its remote writes with
:meth:`repro.dv.flow.FlowNetwork.post`, which keeps no payload past its
own delivery.  Each is checked against what it replaces.
"""

import random
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.core.cluster import ClusterSpec
from repro.dv.config import DVConfig
from repro.dv.flow import FlowNetwork
from repro.dv.vic import VIC, MemWrite
from repro.kernels import fft1d
from repro.kernels.fft1d import (
    _check,
    _prepare,
    _transpose,
    _twiddle,
    run_fft1d,
)
from repro.sim.engine import Engine
from repro.tenancy.experiments import interference_point
from tests.reference_engines import ReferenceFlowNetwork


def _bits(z):
    return np.ascontiguousarray(z).view(np.uint64)


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# -------------------------------------------------------- twiddles ---

#: (rows, cols, log2 N, j1_offset): below and above NumPy's 256 KiB
#: temporary-elision threshold (16,384 complex128), at offset 0 (the
#: zero-angle sign) and inside the matrix
TWIDDLE_CASES = [
    (4, 64, 10, 0),
    (4, 64, 10, 24),
    (8, 2047, 16, 8),
    (8, 2048, 22, 0),
    (64, 1024, 20, 448),
    (128, 2048, 22, 0),
    (128, 2048, 22, 1920),
]

#: whether the production twiddles take ``np.cos``/``np.sin`` here
COS_SIN_IS_CEXP = fft1d._cos_sin_is_cexp()


@pytest.mark.parametrize("block_kind", ["random", "one-minus-zero"])
@pytest.mark.parametrize("cos_sin", [True, False])
@pytest.mark.parametrize("rows,cols,log2_n,j1_offset", TWIDDLE_CASES)
def test_twiddle_is_bit_identical_to_complex_exp(
    monkeypatch, cos_sin, block_kind, rows, cols, log2_n, j1_offset
):
    """Both phasor paths; ``1 - 0j`` keeps the sign of a zero sine in
    the product, so a ``-0.0`` angle at ``k2 = 0`` shows."""
    if cos_sin and not COS_SIN_IS_CEXP:
        pytest.skip("np.cos/np.sin differ from cexp on this platform")
    monkeypatch.setattr(fft1d, "_cos_sin_is_cexp", lambda: cos_sin)
    N = 1 << log2_n
    if block_kind == "random":
        rng = np.random.default_rng(rows + j1_offset)
        block = _complex(rng, (rows, cols))
    else:
        block = np.full((rows, cols), complex(1.0, -0.0))
    j1 = np.arange(j1_offset, j1_offset + rows)[:, None]
    k2 = np.arange(cols)[None, :]
    want = block * np.exp(-2j * np.pi * (j1 * k2) / N)
    got = _twiddle(block, j1_offset, N)
    assert np.array_equal(_bits(got), _bits(want))


# ----------------------------------------------------------- check ---


def _spoil(outs, ref, case):
    """Plant ``case`` at one point of rank 2's columns (both sides)."""
    outs = [o.copy() for o in outs]
    ref = ref.copy()
    cols = outs[0].shape[1]
    i, j = 5, 3
    at = i * cols * len(outs) + 2 * cols + j
    inf, nan = np.inf, np.nan
    out_v, ref_v = {
        "inf": (inf, None),
        "-inf": (complex(1.0, -inf), None),
        "equal-inf": (inf, inf),
        "equal-inf-imag": (complex(0.5, inf), complex(0.5, inf)),
        "ref-inf": (None, complex(-inf, 2.0)),
        "opposite-inf": (inf, -inf),
        "nan": (nan, None),
        "equal-nan": (nan, nan),
        "off": (outs[2][i, j] + 1.0, None),
        "close": (outs[2][i, j] + 1e-9, None),
    }[case]
    if out_v is not None:
        outs[2][i, j] = out_v
    if ref_v is not None:
        ref[at] = ref_v
    return outs, ref


CHECK_CASES = [
    "inf",
    "-inf",
    "equal-inf",
    "equal-inf-imag",
    "ref-inf",
    "opposite-inf",
    "nan",
    "equal-nan",
    "off",
    "close",
]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("case", CHECK_CASES)
def test_check_equals_whole_vector_allclose(case):
    P, n1, n2 = 4, 16, 32
    N = n1 * n2
    rng = np.random.default_rng(3)
    ref = _complex(rng, N)
    cols = n2 // P
    R = ref.reshape(n1, n2)
    outs = [
        R[:, r * cols : (r + 1) * cols] + 1e-12 * _complex(rng, (n1, cols))
        for r in range(P)
    ]
    outs, ref = _spoil(outs, ref, case)
    X = np.concatenate(outs, axis=1).reshape(-1)
    with np.errstate(invalid="ignore"):
        want_err = float(np.max(np.abs(X - ref)))
    want_valid = bool(np.allclose(X, ref, atol=1e-6 * N))
    assert repr(_check(outs, ref, n1, n2)) == repr((want_err, want_valid))


# --------------------------------------------------------- prepare ---


@pytest.mark.parametrize(
    "log2_points,P",
    [(8, 2), (8, 16), (9, 4), (12, 4), (13, 8), (14, 64), (15, 16)],
)
def test_prepare_blocks_are_rows_of_one_read_only_array(log2_points, P):
    n1, n2, blocks, _ = _prepare(5, log2_points, P, validate=False)
    assert (n1 < fft1d._TILE) == (log2_points < 12)
    assert (n1 != n2) == (log2_points % 2 == 1)
    A = fft1d.make_input(5, 1 << log2_points).reshape(n2, n1).T
    rows = n1 // P
    assert len(blocks) == P
    base = blocks[0].base
    assert base.shape == (n1, n2)
    for r, block in enumerate(blocks):
        assert block.base is base
        assert not block.flags.writeable
        assert block.flags.c_contiguous
        want = A[r * rows : (r + 1) * rows]
        assert np.array_equal(_bits(block), _bits(want))


@pytest.mark.parametrize("shape", [(1, 1), (5, 3), (64, 64), (70, 130)])
def test_transpose_of_shapes_off_the_tile_grid(shape):
    a = np.arange(shape[0] * shape[1], dtype=np.int64).reshape(shape)
    t = _transpose(a)
    assert t.flags.c_contiguous
    assert np.array_equal(t, a.T)


# ------------------------------------------------- DV fire-and-forget ---


def _fanouts(post, seed, n_ports=5, n_rounds=40):
    """Random fire-and-forget ``MemWrite`` fan-outs from several
    processes, posted in one call or as one ``transmit`` per group;
    returns every delivery, the VIC memories and counters, and the
    network's stats and clock."""
    cfg = DVConfig(dv_memory_bytes=1 << 12)
    engine = Engine()
    net = FlowNetwork(engine, cfg, n_ports)
    vics = [VIC(engine, cfg, p, net) for p in range(n_ports)]
    log = []
    for p, vic in enumerate(vics):
        vic.counters.set(1, 1 << 20)
        apply = net._receivers[p]

        def rx(src, eff, n, p=p, apply=apply):
            log.append((float(engine.now).hex(), p, src, n))
            apply(src, eff, n)

        net._receivers[p] = rx
    hop = net.config.hop_time_s
    words = cfg.dv_memory_words
    rng = random.Random(seed)

    def prog(pid):
        for _ in range(n_rounds):
            yield engine.timeout(rng.randrange(0, 4) * hop)
            src = rng.randrange(n_ports)
            dests = rng.sample(range(n_ports), rng.randrange(1, n_ports))
            counts = [rng.randrange(1, 6) for _ in dests]
            payloads = [
                MemWrite(
                    addrs=np.array(rng.sample(range(words), c)),
                    values=np.array(
                        [rng.getrandbits(64) for _ in range(c)], np.uint64
                    ),
                    counter=rng.choice([None, 1]),
                )
                for c in counts
            ]
            rate = rng.choice([None, 0.4 / hop])
            if post:
                net.post(src, dests, counts, payloads, inject_rate=rate)
            else:
                for d, c, p in zip(dests, counts, payloads):
                    net.transmit(src, d, c, payload=p, inject_rate=rate)

    for pid in range(3):
        engine.process(prog(pid))
    engine.run()
    s = net.stats
    return (
        log,
        [_bits(v.memory.read_range(0, words)).tolist() for v in vics],
        [v.counters.value(1) for v in vics],
        (s.packets_sent, s.transfers),
        (s.total_injection_wait_s.hex(), s.total_ejection_wait_s.hex()),
        float(engine.now).hex(),
    )


@pytest.mark.parametrize("seed", range(4))
def test_post_lands_as_transmit_per_group(seed):
    got = _fanouts(True, seed)
    assert got == _fanouts(False, seed)
    assert len(got[0]) > 100


def test_post_frees_each_payload_at_its_delivery():
    """A delivered group's words are gone before the last group lands
    (a ``transmit_batch`` fan-out holds them all until then)."""
    engine = Engine()
    net = FlowNetwork(engine, DVConfig(), 4)
    alive = []
    refs = []

    def rx(src, eff, n):
        alive.append([r() is not None for r in refs])

    for p in range(4):
        net.attach(p, rx)
    payloads = []
    for n in (8, 16, 24):
        values = np.arange(n, dtype=np.uint64)
        refs.append(weakref.ref(values))
        payloads.append(MemWrite(addrs=np.arange(n), values=values))
    net.post(0, [1, 2, 3], [8, 16, 24], payloads)
    del payloads, values
    engine.run()
    assert alive == [
        [True, True, True],
        [False, True, True],
        [False, False, True],
    ]


def test_cotenant_dv_fft_times_as_with_transmit_per_group(monkeypatch):
    """Tenant network views translate ``post`` ranks: a DV FFT on the
    upper half of the cluster times the same as with one ``transmit``
    per group."""

    def run():
        return interference_point(
            victim="gups",
            aggressor="fft",
            fabric="dv",
            workload_params={
                "fft": {"log2_points": 10},
                "gups": {"table_words": 256, "n_updates": 256},
            },
        )

    got = run()
    monkeypatch.setattr(FlowNetwork, "post", ReferenceFlowNetwork.post)
    assert got == run()


def test_validated_dv_fft_numpy_peak_stays_under_four_and_a_half_inputs():
    """4.14x here, 4.21x with a completion per transpose write.  The
    peak falls at the end of the run, so this bounds the whole run; the
    weakref test above is what tells ``post`` from a fan-out that keeps
    its payloads."""
    log2_points = 20
    input_bytes = 16 << log2_points
    run_fft1d(ClusterSpec(n_nodes=4), "dv", log2_points=8, validate=True)
    tracemalloc.start()
    try:
        res = run_fft1d(
            ClusterSpec(n_nodes=16),
            "dv",
            log2_points=log2_points,
            validate=True,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res["valid"]
    assert peak <= 4.5 * input_bytes, peak / input_bytes

"""FFT-1D staging: same results as first staged, less memory alive.

:func:`repro.kernels.fft1d._prepare` computes the reference transform
first, cuts the P read-only row blocks once and drops the input; each
rank program drops its temporaries once they are consumed, and
:func:`repro.kernels.fft1d._check` validates one rank's columns at a
time.  :func:`tests.reference_engines.reference_run_fft1d` is the kernel
as first staged (``a + 1j*b`` input, blocks cut inside the rank program,
validation over the concatenated output).  The two must agree bit for
bit on both fabrics; the new staging must stay under a numpy memory
bound the old one exceeds, and must survive the tenancy shadow's
in-process rerun.
"""

import tracemalloc

import numpy as np
import pytest

from repro import tenancy
from repro.core.cluster import ClusterSpec, run_spmd
from repro.core.metrics import gflops_fft1d
from repro.kernels import fft1d, fft2d
from repro.kernels.fft1d import (
    _check,
    _fft_program,
    _prepare,
    fft1d_job,
    run_fft1d,
)
from repro.sim.rng import complex_normal
from tests.reference_engines import (
    reference_fft_check,
    reference_fft_input,
    reference_run_fft1d,
)

#: (n_nodes, log2_points): three sizes, three rank counts, one of them
#: with n1 != n2
CASES = [(2, 9), (4, 12), (16, 16)]


def _bits(z):
    return np.ascontiguousarray(z).view(np.uint64)


def _run_new(spec, fabric, log2_points):
    """The production program run directly, for its rank outputs."""
    n1, n2, blocks, _ = _prepare(
        spec.seed, log2_points, spec.n_nodes, validate=False
    )

    def program(ctx):
        return (yield from _fft_program(ctx, blocks, n1, n2, fabric))

    return run_spmd(spec, program, fabric).values


def _assert_same_values(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g["elapsed"] == w["elapsed"]
        assert g["out"].shape == w["out"].shape
        assert np.array_equal(_bits(g["out"]), _bits(w["out"]))


# --------------------------------------------------------- inputs ---


@pytest.mark.parametrize("seed", [0, 1, 2017])
@pytest.mark.parametrize("n", [1, 7, 1 << 12])
def test_fft1d_input_is_bit_identical(seed, n):
    assert np.array_equal(
        _bits(fft1d.make_input(seed, n)),
        _bits(reference_fft_input(seed, n)),
    )


@pytest.mark.parametrize("seed", [0, 3, 2017])
@pytest.mark.parametrize("n", [1, 16, 64])
def test_fft2d_input_is_bit_identical(seed, n):
    rng = np.random.default_rng(seed)
    want = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    got = fft2d.make_input(seed, n)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(_bits(got), _bits(want))


def test_complex_normal_consumes_the_same_draws():
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    complex_normal(a, (3, 4))
    b.standard_normal((3, 4))
    b.standard_normal((3, 4))
    assert a.random() == b.random()


def test_blocks_are_read_only_copies_of_the_layout():
    n1, n2, blocks, ref = _prepare(9, 10, 4, validate=True)
    x = fft1d.make_input(9, 1 << 10)
    A = x.reshape(n2, n1).T
    rows = n1 // 4
    assert len(blocks) == 4
    for r, block in enumerate(blocks):
        assert not block.flags.writeable
        assert block.flags.c_contiguous
        assert np.array_equal(block, A[r * rows : (r + 1) * rows])
    assert np.array_equal(_bits(ref), _bits(np.fft.fft(x)))
    assert _prepare(9, 10, 4, validate=False)[3] is None


# ------------------------------------------------- against the oracle ---


@pytest.mark.parametrize("fabric", ["mpi", "dv"])
@pytest.mark.parametrize("n_nodes,log2_points", CASES)
def test_fft1d_equals_first_staging(fabric, n_nodes, log2_points):
    spec = ClusterSpec(n_nodes=n_nodes, seed=11)
    want, want_values = reference_run_fft1d(
        spec, fabric, log2_points=log2_points, validate=True
    )
    got = run_fft1d(spec, fabric, log2_points=log2_points, validate=True)
    assert got == want
    assert got["valid"]
    for key in ("elapsed_s", "gflops", "max_error"):
        assert float(got[key]).hex() == float(want[key]).hex()
    _assert_same_values(_run_new(spec, fabric, log2_points), want_values)


def test_check_equals_whole_vector_check_on_bad_outputs():
    """Per-block max and allclose give the whole-vector answers, also
    when one rank's columns are off or not a number."""
    spec = ClusterSpec(n_nodes=4, seed=2)
    _, values = reference_run_fft1d(spec, "mpi", log2_points=12)
    x = reference_fft_input(2, 1 << 12)
    ref = np.fft.fft(x)
    outs = [v["out"] for v in values]
    for bad in (1e-3, 1.0, np.nan):
        spoiled = [o.copy() for o in outs]
        spoiled[2][5, 3] += bad
        got = _check(spoiled, ref, 64, 64)
        want = reference_fft_check(spoiled, x)
        assert repr(got) == repr(want)
    assert _check(outs, ref, 64, 64) == reference_fft_check(outs, x)
    assert not _check(spoiled, ref, 64, 64)[1]


@pytest.mark.parametrize("fabric", ["mpi", "dv"])
def test_tenancy_fft_finish_equals_first_staging(fabric):
    spec = ClusterSpec(n_nodes=4, seed=6)
    log2_points = 12
    N = 1 << log2_points
    _, want_values = reference_run_fft1d(spec, fabric, log2_points=log2_points)
    job = fft1d_job(4, fabric, 6, log2_points=log2_points, validate=True)
    values = run_spmd(spec, job.programs[0], fabric).values
    _assert_same_values(values, want_values)
    elapsed = max(v["elapsed"] for v in want_values)
    x = reference_fft_input(6, N)
    max_error, valid = reference_fft_check([v["out"] for v in want_values], x)
    assert job.finish([values]) == {
        "fabric": fabric,
        "n_nodes": 4,
        "n_points": N,
        "elapsed_s": elapsed,
        "gflops": gflops_fft1d(N, elapsed),
        "max_error": max_error,
        "valid": valid,
    }


# ---------------------------------------------------------- memory ---


def test_validated_fft_numpy_peak_stays_under_four_inputs():
    """The numpy peak of a validated 2^20-point, 16-node MPI FFT is at
    most 4x the input (the first staging peaked at about 5.5x)."""
    log2_points = 20
    input_bytes = 16 << log2_points
    run_fft1d(ClusterSpec(n_nodes=4), "mpi", log2_points=8, validate=True)
    tracemalloc.start()
    try:
        res = run_fft1d(
            ClusterSpec(n_nodes=16),
            "mpi",
            log2_points=log2_points,
            validate=True,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res["valid"]
    assert peak <= 4.0 * input_bytes, peak / input_bytes


def test_reference_runs_while_only_the_input_is_alive(monkeypatch):
    """The reference transform comes before the blocks are cut.
    ``tracemalloc`` does not see pocketfft's scratch, so the peak bound
    above cannot tell the order; the traced size at the call can."""
    log2_points = 20
    input_bytes = 16 << log2_points
    seen = []
    reference = fft1d.serial_fft_reference

    def spy(x):
        seen.append(tracemalloc.get_traced_memory()[0])
        return reference(x)

    monkeypatch.setattr(fft1d, "serial_fft_reference", spy)
    tracemalloc.start()
    try:
        _prepare(1, log2_points, 16, validate=True)
    finally:
        tracemalloc.stop()
    assert len(seen) == 1
    assert seen[0] <= 1.25 * input_bytes, seen[0] / input_bytes


# ---------------------------------------------------------- reruns ---


@pytest.mark.parametrize("fabric", ["mpi", "dv"])
def test_tenancy_shadow_rerun_equals_serial(fabric):
    spec = ClusterSpec(n_nodes=4, seed=8)
    want = run_fft1d(spec, fabric, log2_points=12, validate=True)
    with tenancy.shadow_session():
        got = run_fft1d(spec, fabric, log2_points=12, validate=True)
    assert got == want

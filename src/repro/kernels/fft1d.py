"""Distributed 1-D FFT (paper §VI, Fig. 7) — the four-step algorithm.

N = n1 * n2 points, viewed as an n1 x n2 matrix A with
``A[j1, j2] = x[j1 + n1*j2]``:

1. FFT of length n2 along each row (local; rows are block-distributed);
2. twiddle multiplication ``A[j1, k2] *= w_N^(j1*k2)`` (local);
3. global transpose (the communication step);
4. FFT of length n1 along each column (local after the transpose).

The output element ``X[k2 + n2*k1]`` is then found at ``C[k1, k2]`` with
columns k2 block-distributed — verified, one rank's columns at a time,
against ``numpy.fft.fft`` of the input.

The rank blocks are cut once by :func:`_prepare` and are read-only: the
tenancy shadow reruns the rank program in the same process
(docs/architecture.md, "FFT memory").

Communication:

* **MPI** — ``alltoall`` of contiguous sub-blocks plus local pack/unpack
  (the reference HPCC structure);
* **Data Vortex** — the transpose is *folded into the communication*:
  each rank DMAs its block into VIC memory once and scatters words
  directly to the transposed addresses in the destination VICs' DV
  memory, so no separate pack/unpack pass exists (the paper's §VI
  "natural scatter/gather capabilities" argument).  Completion uses a
  preset group counter + hardware barrier.
"""

from __future__ import annotations

import functools
from typing import Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cluster import ClusterSpec, KernelJob, run_spmd
from repro.core.context import RankContext
from repro.core.metrics import fft1d_flops, gflops_fft1d
from repro.sim.rng import complex_normal

_CTR_FFT = 40


def _twiddle(block: np.ndarray, j1_offset: int, n_total: int) -> np.ndarray:
    """``block * w_N^(j1*k2)`` for rows [j1_offset, j1_offset+rows) of
    the matrix, bit for bit ``block * np.exp(-2j*np.pi*(j1*k2)/N)``.

    The angles are built real: the complex argument's real part is
    +0.0 and its imaginary part is this ``th`` exactly (N is a power
    of two), except where ``j1*k2 = 0``: there ``0 * -2pi`` is -0.0 and
    the complex product +0.0, hence ``th += 0.0``.  The product keeps the
    fresh phasor array on the right: FMA makes complex multiply
    non-commutative bitwise, and at 256 KiB and up NumPy's temporary
    elision computes ``block * tmp`` as ``tmp *= block``.
    """
    rows, cols = block.shape
    j1 = np.arange(j1_offset, j1_offset + rows)[:, None]
    k2 = np.arange(cols)[None, :]
    th = (j1 * k2) * (-2 * np.pi)
    th /= n_total
    th += 0.0
    return block * _phasors(th)


def _phasors_cos_sin(th: np.ndarray) -> np.ndarray:
    """``exp(1j*th)`` as ``cos(th) + 1j*sin(th)``, written in place."""
    z = np.empty(th.shape, np.complex128)
    np.cos(th, out=z.real)
    np.sin(th, out=z.imag)
    return z


def _phasors_exp(th: np.ndarray) -> np.ndarray:
    """``exp(1j*th)`` through complex ``np.exp`` (the C library's
    ``cexp``) of ``0.0 + 1j*th``."""
    z = np.empty(th.shape, np.complex128)
    z.real = 0.0
    z.imag = th
    return np.exp(z, out=z)


def _phasors(th: np.ndarray) -> np.ndarray:
    """``exp(1j*th)`` for real angles: through ``np.cos``/``np.sin``
    where they agree with ``cexp`` bit for bit, else through
    ``np.exp``."""
    if _cos_sin_is_cexp():
        return _phasors_cos_sin(th)
    return _phasors_exp(th)


@functools.lru_cache(maxsize=None)
def _cos_sin_is_cexp() -> bool:
    """Whether this platform's ``np.cos``/``np.sin`` give the bits of
    ``cexp`` on the twiddle angles of a 4096-point transform (they are
    separate implementations, SIMD ones on some CPUs); asked once, at
    the first twiddle."""
    th = np.arange(1 << 12) * (-2 * np.pi)
    th /= 1 << 12
    th += 0.0
    return np.array_equal(_phasors_cos_sin(th).view(np.uint64),
                          _phasors_exp(th).view(np.uint64))


def serial_fft_reference(x: np.ndarray) -> np.ndarray:
    """numpy reference for validation."""
    return np.fft.fft(x)


def make_input(seed: int, n_points: int) -> np.ndarray:
    """The benchmark's random complex input vector."""
    return complex_normal(np.random.default_rng(seed), n_points)


def _prepare(seed: int, log2_points: int, P: int, *, validate: bool
             ) -> Tuple[int, int, List[np.ndarray], Optional[np.ndarray]]:
    """Factor N = 2**log2_points = n1 * n2 and stage the input for P
    ranks: ``(n1, n2, blocks, ref)``.

    ``blocks[r]`` is rank r's row block ``A[r*rows:(r+1)*rows]``
    (``A[j1, j2] = x[j1 + n1*j2]``), a row slice of one read-only
    C-contiguous ``(n1, n2)`` array; ``ref`` is ``numpy.fft.fft(x)``
    when validating, else ``None``.  The reference is computed first,
    while ``x`` is the only other full-size array alive, and ``x`` is
    dropped once ``A`` is built.
    """
    half = log2_points // 2
    n1, n2 = 1 << half, 1 << (log2_points - half)
    if n1 % P or n2 % P:
        raise ValueError(
            f"2^{half} and 2^{log2_points - half} must both be divisible "
            f"by {P} ranks (power-of-two rank counts only)")
    x = make_input(seed, 1 << log2_points)
    ref = serial_fft_reference(x) if validate else None
    A = _transpose(x.reshape(n2, n1))
    A.flags.writeable = False
    rows = n1 // P
    return n1, n2, [A[r0:r0 + rows] for r0 in range(0, n1, rows)], ref


#: edge of the square tiles :func:`_transpose` copies one at a time
_TILE = 64


def _transpose(a: np.ndarray) -> np.ndarray:
    """``a.T`` as a new C-contiguous array, copied tile by tile: a
    tile's rows on both sides stay in cache, where a whole strided copy
    misses on every element of its strided side."""
    m, n = a.shape
    out = np.empty((n, m), a.dtype)
    for i in range(0, n, _TILE):
        for j in range(0, m, _TILE):
            out[i:i + _TILE, j:j + _TILE] = a[j:j + _TILE, i:i + _TILE].T
    return out


def _check(outs: Sequence[np.ndarray], ref: np.ndarray, n1: int,
           n2: int) -> Tuple[float, bool]:
    """``(max_error, valid)`` of the per-rank ``(n1, cols)`` outputs
    against the reference, one rank's columns at a time.

    Row-major C is exactly X, so rank r's output is the view
    ``ref.reshape(n1, n2)[:, r*cols:(r+1)*cols]``.  ``max_error`` is
    the max over ranks of ``max |out - ref|`` and ``valid`` holds when
    every rank's ``allclose(atol=1e-6*N)`` does: the same values as the
    whole-vector predicates, without full-size temporaries.

    The verdict is ``np.isclose``'s own formula (default ``rtol``) on
    the error already taken for the max, and it is needed only when
    that max exceeds ``atol`` (or is NaN): an error within ``atol`` is
    within ``atol + rtol*|want|``, and a finite ``out - want`` means a
    finite ``want``.
    """
    atol = 1e-6 * (n1 * n2)
    R = ref.reshape(n1, n2)
    cols = n2 // len(outs)
    errors = []
    valid = True
    for r, out in enumerate(outs):
        want = R[:, r * cols:(r + 1) * cols]
        err = np.abs(out - want)
        errors.append(np.max(err))
        if valid and not errors[-1] <= atol:
            with np.errstate(invalid="ignore"):
                valid = bool(((err <= atol + 1e-05 * np.abs(want))
                              & np.isfinite(want) | (out == want)).all())
    return float(np.max(errors)), valid


def _complex_to_words(z: np.ndarray) -> np.ndarray:
    """View a complex128 array as pairs of 64-bit payload words."""
    return z.view(np.float64).view(np.uint64).ravel()


def _words_to_complex(w: np.ndarray) -> np.ndarray:
    return w.view(np.float64).view(np.complex128)


def _fft_program(ctx: RankContext, blocks: Sequence[np.ndarray], n1: int,
                 n2: int, fabric: str) -> Generator:
    """SPMD body shared by both fabrics; returns this rank's output
    columns and the timed duration.

    ``blocks[rank]`` is this rank's row block A[r0:r0+rows, :] from
    :func:`_prepare`; it is only read, so the program can be rerun.
    """
    P = ctx.size
    N = n1 * n2
    rows = n1 // P          # rows of A this rank owns
    cols = n2 // P          # columns of C this rank owns after transpose
    r0 = ctx.rank * rows

    yield from ctx.barrier()
    ctx.mark("t0")

    # Step 1: row FFTs (length n2), charged at 5 n log n flops each
    block = np.fft.fft(blocks[ctx.rank], axis=1)
    yield from ctx.compute(flops=rows * fft1d_flops(n2), dispatches=1)
    # Step 2: twiddles (6 flops per point: complex multiply)
    block = _twiddle(block, r0, N)
    yield from ctx.compute(flops=6.0 * rows * n2, dispatches=1)

    # Step 3: transpose so this rank ends with columns
    # [rank*cols, (rank+1)*cols) of the n1 x n2 matrix.
    if fabric == "mpi":
        mpi = ctx.mpi
        # pack: column-block d gets my rows of its columns
        chunks = [np.ascontiguousarray(block[:, d * cols:(d + 1) * cols])
                  for d in range(P)]
        packed_bytes = block.nbytes
        del block
        yield from ctx.compute(stream_bytes=2 * packed_bytes, dispatches=1)
        got = yield from mpi.alltoall(chunks)
        # unpack into (n1, cols)
        mine = np.concatenate(got, axis=0)
        del chunks, got
        yield from ctx.compute(stream_bytes=2 * mine.nbytes, dispatches=1)
    else:
        api = ctx.dv
        # incoming words from the P-1 other ranks; my own sub-block
        # never touches the switch (it moves VIC-locally)
        expected_words = 2 * (n1 - rows) * cols
        yield from api.set_counter(_CTR_FFT, expected_words)
        yield from ctx.barrier()
        # scatter straight to transposed addresses at each destination:
        # dest d's DV memory holds an (n1, cols) block at word address
        # 2*(j1*cols + (j2 - d*cols)).  The staging DMA, switch
        # injection and receive-side drain are all pipelined: packets
        # stream into the switch as the DMA delivers them.
        from repro.dv.vic import MemWrite
        rate = api._inject_rate("dma", True)
        # the word addresses of my rows do not depend on the
        # destination: one read-only array serves all P writes
        j1 = np.arange(r0, r0 + rows)[:, None, None]
        j2l = np.arange(cols)[None, :, None]
        half = np.arange(2)[None, None, :]
        addrs = (2 * (j1 * cols + j2l) + half).ravel()
        addrs.flags.writeable = False
        # staggered destination order: rank r starts at r+1, so ejection
        # ports receive balanced streams instead of all ranks hammering
        # destination 0 first; my own sub-block comes last
        dests = [(ctx.rank + 1 + i) % P for i in range(P)]
        words = [_complex_to_words(np.ascontiguousarray(
            block[:, d * cols:(d + 1) * cols])) for d in dests]
        own = words.pop()
        # the P-1 remote writes are one fire-and-forget fan-out; each
        # carries its own copy, freed at its own delivery
        api.network.post(
            ctx.rank, dests[:-1], [own.size] * (P - 1),
            [MemWrite(addrs=addrs, values=w, counter=_CTR_FFT)
             for w in words],
            inject_rate=rate)
        del block, words
        # own sub-block: a host-memory transpose — it never crosses
        # PCIe or the switch
        api.vic.memory.scatter(addrs, own)
        yield from ctx.compute(stream_bytes=2 * own.nbytes)
        del own
        # the host blocks for the remote-bound DMA share (concurrent
        # with switch injection)
        yield from api.vic.pcie.dma_write(
            2 * rows * (n2 - cols) * 8)
        yield from api.wait_counter_zero(_CTR_FFT)
        # receive side: overlapped multi-buffered drain into host memory
        yield from api.drain_overlapped(2 * n1 * cols)
        mine = _words_to_complex(
            api.vic.memory.read_range(0, 2 * n1 * cols)).reshape(n1, cols)

    # Step 4: column FFTs (length n1)
    mine = np.fft.fft(mine, axis=0)
    yield from ctx.compute(flops=cols * fft1d_flops(n1), dispatches=1)

    yield from ctx.barrier()
    elapsed = ctx.since("t0")
    return {"elapsed": elapsed, "out": mine}


def fft1d_job(n_ranks: int, fabric: str, seed: int, traffic=None,
              agg_spec=None, *, log2_points: int = 16,
              validate: bool = False) -> KernelJob:
    """The distributed FFT benchmark as a kernel job.

    ``log2_points`` sets N = 2**log2_points (the paper used 2**33; the
    simulation default is scaled down, with the same four-step structure
    and communication volume per point).  The all-to-all pattern is
    fixed: a traffic model or an aggregation spec raises.
    """
    if traffic is not None:
        raise ValueError("the FFT has a fixed all-to-all pattern; "
                         "traffic models do not apply")
    if agg_spec is not None:
        raise ValueError("aggregation does not apply to the FFT")
    N = 1 << log2_points
    n1, n2, blocks, ref = _prepare(seed, log2_points, n_ranks,
                                   validate=validate)

    def program(ctx):
        return (yield from _fft_program(ctx, blocks, n1, n2, fabric))

    def finish(runs) -> Dict[str, object]:
        (values,) = runs
        elapsed = max(v["elapsed"] for v in values)
        out: Dict[str, object] = {
            "fabric": fabric,
            "n_nodes": n_ranks,
            "n_points": N,
            "elapsed_s": elapsed,
            "gflops": gflops_fft1d(N, elapsed),
        }
        if validate:
            out["max_error"], out["valid"] = _check(
                [v["out"] for v in values], ref, n1, n2)
        return out

    return KernelJob((program,), finish)


def run_fft1d(spec: ClusterSpec, fabric: str, **params) -> Dict[str, object]:
    """Run the distributed FFT benchmark; ``params`` are
    :func:`fft1d_job`'s keywords.  A ``spec.traffic`` or
    ``spec.aggregation`` raises: the FFT's all-to-all pattern is
    fixed."""
    job = fft1d_job(spec.n_nodes, fabric, spec.seed, spec.traffic,
                    spec.aggregation, **params)
    return job.finish([run_spmd(spec, job.programs[0], fabric).values])

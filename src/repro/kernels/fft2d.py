"""Distributed 2-D FFT kernel.

The paper notes (§VI) that "if a 2D or 3D FFT is performed, additional
matrix transpositions may be required to optimize memory distributions";
this kernel makes that concrete.  An ``n x n`` complex matrix is
row-distributed; the transform is

1. 1-D FFTs along the local rows;
2. a global transpose;
3. 1-D FFTs along the (new) local rows;
4. optionally a transpose back to the canonical layout.

The Data Vortex version folds the transposes into the communication via
:func:`repro.kernels.transpose.dv_transpose_batch`; the MPI version uses
alltoall.  Validation compares against ``numpy.fft.fft2``.
"""

from __future__ import annotations

from typing import Dict, Generator

import numpy as np

from repro.core.cluster import ClusterSpec, run_spmd
from repro.core.context import RankContext
from repro.core.metrics import fft1d_flops
from repro.kernels.transpose import dv_transpose_batch, mpi_transpose
from repro.sim.rng import complex_normal

_CTR_FFT2D = 46


def make_input(seed: int, n: int) -> np.ndarray:
    """Random complex n x n input matrix."""
    return complex_normal(np.random.default_rng(seed), (n, n))


def fft2d_flops(n: int) -> float:
    """Operation count: 2n transforms of length n at 5 n log2 n each."""
    return 2.0 * n * fft1d_flops(n)


def _fft2d_program(ctx: RankContext, x: np.ndarray, n: int, fabric: str,
                   restore_layout: bool) -> Generator:
    P = ctx.size
    rows = n // P
    block = x[ctx.rank * rows:(ctx.rank + 1) * rows].copy()

    yield from ctx.barrier()
    ctx.mark("t0")
    # pass 1: transform along axis 1 (the locally contiguous axis)
    block = np.fft.fft(block, axis=1)
    yield from ctx.compute(flops=rows * fft1d_flops(n), dispatches=1)
    # global transpose
    if fabric == "dv":
        (block,) = yield from dv_transpose_batch(ctx, [block], n,
                                                 counter=_CTR_FFT2D)
    else:
        block = yield from mpi_transpose(ctx, block, n)
    # pass 2: transform along the other axis (now axis 1 again)
    block = np.fft.fft(block, axis=1)
    yield from ctx.compute(flops=rows * fft1d_flops(n), dispatches=1)
    if restore_layout:
        if fabric == "dv":
            (block,) = yield from dv_transpose_batch(ctx, [block], n,
                                                     counter=_CTR_FFT2D)
        else:
            block = yield from mpi_transpose(ctx, block, n)
    yield from ctx.barrier()
    return {"elapsed": ctx.since("t0"), "out": block}


def run_fft2d(spec: ClusterSpec, fabric: str, *, n: int = 256,
              restore_layout: bool = True,
              validate: bool = False) -> Dict[str, object]:
    """Run the distributed 2-D FFT.

    With ``restore_layout=True`` the output is row-distributed like the
    input (one extra transpose); otherwise it is left transposed, which
    many consumers (e.g. pointwise spectral operators) accept.
    """
    P = spec.n_nodes
    if n % P:
        raise ValueError(f"n={n} not divisible by {P} ranks")
    x = make_input(spec.seed, n)

    def program(ctx):
        return (yield from _fft2d_program(ctx, x, n, fabric,
                                          restore_layout))

    res = run_spmd(spec, program, fabric)
    elapsed = max(v["elapsed"] for v in res.values)
    out: Dict[str, object] = {
        "fabric": fabric, "n_nodes": P, "n": n, "elapsed_s": elapsed,
        "gflops": fft2d_flops(n) / elapsed / 1e9,
    }
    if validate:
        got = np.concatenate([v["out"] for v in res.values], axis=0)
        ref = np.fft.fft2(x)
        if not restore_layout:
            ref = ref.T
        err = np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-30)
        out["max_rel_error"] = float(err)
        out["valid"] = bool(err < 1e-10)
    return out

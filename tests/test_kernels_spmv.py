"""Tests for the distributed SpMV / power-iteration kernel."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import ClusterSpec
from repro.kernels import run_spmv
from repro.kernels.spmv import (_exchange_plan, build_matrix,
                                serial_power_iteration)


def test_matrix_symmetric_no_loops():
    a = build_matrix(8, 4, seed=1)
    assert (a != a.T).nnz == 0
    assert a.diagonal().sum() == 0


def test_matrix_deterministic():
    a = build_matrix(7, 4, seed=5)
    b = build_matrix(7, 4, seed=5)
    assert (a != b).nnz == 0


def test_serial_power_iteration_converges_to_unit_norm():
    a = build_matrix(8, 8, seed=0)
    rng = np.random.default_rng(0)
    x = serial_power_iteration(a, rng.random(a.shape[0]), 10)
    assert np.linalg.norm(x) == pytest.approx(1.0)


def test_exchange_plan_symmetric_views():
    """If rank r's plan says peer p needs entry g of r, then p's plan
    must want g from r."""
    a = build_matrix(7, 4, seed=2)
    P = 4
    plans = [_exchange_plan(a, r, P) for r in range(P)]
    for r in range(P):
        needed_r = plans[r][0]
        for p in range(P):
            if p == r:
                continue
            assert np.array_equal(needed_r[p], plans[p][1][r])


@pytest.mark.parametrize("fabric", ["dv", "mpi"])
@pytest.mark.parametrize("n_nodes", [1, 2, 4, 6])
def test_spmv_matches_scipy(fabric, n_nodes):
    spec = ClusterSpec(n_nodes=n_nodes)
    r = run_spmv(spec, fabric, scale=8, iters=3, validate=True)
    assert r["valid"], r["max_error"]


def test_spmv_rejects_zero_iters():
    with pytest.raises(ValueError):
        run_spmv(ClusterSpec(n_nodes=2), "dv", iters=0)


def test_spmv_dv_faster_at_scale():
    spec = ClusterSpec(n_nodes=8)
    dv = run_spmv(spec, "dv", scale=11, iters=4)
    ib = run_spmv(spec, "mpi", scale=11, iters=4)
    assert dv["gflops"] > ib["gflops"]


def test_spmv_deterministic():
    spec = ClusterSpec(n_nodes=4, seed=3)
    a = run_spmv(spec, "dv", scale=8, iters=3)
    b = run_spmv(spec, "dv", scale=8, iters=3)
    assert a["elapsed_s"] == b["elapsed_s"]


def test_importing_kernels_leaves_scipy_unloaded():
    """scipy.sparse is a third of ``import repro.kernels``; only the
    spmv matrix builder needs it, so it loads on first use."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, repro.kernels; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

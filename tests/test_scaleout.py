"""Cluster-projection sweeps (repro.core.scaling scale-out section,
the ``fig_scaleout`` experiment, and its ``repro.api.run`` facade
entry).

The heavy 64-to-1024-node grid is exercised elsewhere by hand; these
tests pin the cheap invariants tier-1 can afford: parameter laws,
point/sweep plumbing and table shape.  The golden determinism of the
committed ``fig_scaleout`` config along every harness axis is
``tests/test_golden_harness.py::test_harness_all_axes_bit_identical``.
"""

import math

import pytest

import repro.api as api
from repro.core.scaling import (SCALEOUT_FABRICS, SCALEOUT_NODES,
                                SCALEOUT_WORKLOADS, scaleout_params,
                                scaleout_point, scaleout_sweep)


# ----------------------------------------------------------- params ------

def test_scaleout_params_weak_scaling_laws():
    # GUPS: fixed per-node work at every node count
    for n in SCALEOUT_NODES:
        assert scaleout_params("gups", n) == {
            "table_words": 1 << 12, "n_updates": 1 << 7, "window": 256}
    # BFS: constant vertices per node -> scale grows with log2(P)
    for n in SCALEOUT_NODES:
        assert scaleout_params("bfs", n)["scale"] == 6 + int(math.log2(n))
    # FFT: four-step needs n1 and n2 both divisible by P
    for n in SCALEOUT_NODES:
        lp = scaleout_params("fft", n)["log2_points"]
        assert (1 << (lp // 2)) % n == 0 and (1 << (lp - lp // 2)) % n == 0
    assert scaleout_params("fft", 1024)["log2_points"] == 20


def test_scaleout_params_rejects_unknown_workload():
    with pytest.raises(ValueError, match="unknown scale-out workload"):
        scaleout_params("linpack", 64)


# ------------------------------------------------------ point & sweep ----

def test_scaleout_point_shape_and_determinism():
    row = scaleout_point("gups", "dv", 64)
    assert row["workload"] == "gups" and row["fabric"] == "dv"
    assert row["nodes"] == 64
    assert row["per_pe"] > 0 and row["elapsed_s"] > 0
    assert row["total"] == pytest.approx(row["per_pe"] * 64)
    assert scaleout_point("gups", "dv", 64) == row


def test_scaleout_point_fast_matches_reference(monkeypatch):
    from repro.core import cluster
    from tests.reference_engines import ReferenceFlowNetwork
    fast = scaleout_point("gups", "dv", 64)
    monkeypatch.setattr(cluster, "FlowNetwork", ReferenceFlowNetwork)
    ref = scaleout_point("gups", "dv", 64)
    assert fast == ref


def test_every_workload_and_fabric_runs_at_64_nodes():
    """Every point of the projection runs to the end on both fabrics
    (BFS points once raised ``KeyError: 'elapsed_s'`` after
    simulating)."""
    rows = scaleout_sweep(workloads=SCALEOUT_WORKLOADS, nodes=(64,),
                          fabrics=SCALEOUT_FABRICS)
    assert [(r["workload"], r["fabric"]) for r in rows] == [
        (w, f) for w in SCALEOUT_WORKLOADS for f in SCALEOUT_FABRICS]
    for r in rows:
        assert r["per_pe"] > 0 and r["elapsed_s"] > 0


def test_scaleout_sweep_rejects_unknown_override_before_running():
    with pytest.raises(ValueError, match="'fft' takes no parameter "
                                         "'window'"):
        scaleout_sweep(workloads=("gups", "fft"), nodes=(64,), window=8)
    with pytest.raises(ValueError, match="unknown scale-out workload"):
        scaleout_sweep(workloads=("linpack",), nodes=(64,))


def test_scaleout_sweep_grid_order():
    rows = scaleout_sweep(workloads=("gups",), nodes=(64,),
                          fabrics=SCALEOUT_FABRICS)
    assert [(r["workload"], r["nodes"], r["fabric"]) for r in rows] == \
        [("gups", 64, "dv"), ("gups", 64, "mpi")]
    # DV's flat latency should not lose to MPI on random updates
    assert rows[0]["per_pe"] >= rows[1]["per_pe"]


# ----------------------------------------------------------- facade ------

def _scaleout_spec(**params):
    return api.ExperimentSpec(exp_id="fig_scaleout", params=params)


def test_run_scaleout_table_shape():
    table = api.run(spec=_scaleout_spec(workloads=("gups",), nodes=(64,)))
    assert table.columns == ["workload", "nodes", "dv_per_pe",
                             "mpi_per_pe", "dv_total", "mpi_total"]
    (row,) = table.rows
    assert row[0] == "gups" and row[1] == 64
    assert row[4] == pytest.approx(row[2] * 64)


def test_run_scaleout_is_keyword_only():
    with pytest.raises(TypeError):
        api.run(_scaleout_spec(workloads=("gups",), nodes=(64,)))


def test_facade_public_callables_are_keyword_only():
    """The contract tools/check_api_signatures.py enforces at lint
    time, re-checked live against the imported module."""
    import inspect
    banned = (inspect.Parameter.POSITIONAL_ONLY,
              inspect.Parameter.POSITIONAL_OR_KEYWORD,
              inspect.Parameter.VAR_POSITIONAL)
    for name in api.__all__:
        obj = getattr(api, name)
        if not inspect.isfunction(obj):
            continue
        for p in inspect.signature(obj).parameters.values():
            assert p.kind not in banned, f"{name}({p.name})"


def test_defaults_cover_paper_grid():
    assert SCALEOUT_NODES == (64, 128, 256, 512, 1024)
    assert SCALEOUT_WORKLOADS == ("gups", "bfs", "fft")

"""The parallel executor must be a pure speed-up: identical rows to a
serial run, original exceptions surfaced once, counted serial
fallback."""

import concurrent.futures as cf
import errno

import pytest

from repro import obs
from repro.core.scaling import switch_scaling
from repro.exec import Executor
from repro.exec.pool import _auto_chunksize, run_points


def point_runner(a, b=0):
    """Module-level so it pickles into pool workers."""
    return {"sum": a + b, "prod": a * b, "tag": f"{a}/{b}"}


def crashing_runner(a):
    if a == 3:
        raise ValueError(f"boom at {a}")
    return {"a": a}


def missing_file_runner(a, log):
    """Logs each call to ``log``; point 0's input is missing."""
    with open(log, "a") as f:
        f.write(f"{a}\n")
    if a == 0:
        raise FileNotFoundError(f"no input for point {a}")
    return {"a": a}


GRID = [{"a": a, "b": b} for a in range(6) for b in (1, 2, 3)]


# ----------------------------------------------------------- run_points ---

def test_parallel_results_bit_identical_to_serial():
    serial = [r for _, r in run_points(point_runner, GRID, workers=1)]
    parallel = [r for _, r in run_points(point_runner, GRID, workers=4)]
    assert parallel == serial


def test_chunked_dispatch_preserves_order():
    pts = [{"a": i} for i in range(17)]
    out = [r for _, r in run_points(point_runner, pts, workers=3,
                                    chunksize=2)]
    assert [r["sum"] for r in out] == list(range(17))


def test_worker_crash_surfaces_original_exception():
    pts = [{"a": i} for i in range(6)]
    with pytest.raises(ValueError, match="boom at 3"):
        run_points(crashing_runner, pts, workers=2)


def test_serial_crash_surfaces_original_exception():
    pts = [{"a": i} for i in range(6)]
    with pytest.raises(ValueError, match="boom at 3"):
        run_points(crashing_runner, pts, workers=1)


def test_worker_oserror_raises_once(tmp_path):
    """An OSError raised by the runner in a worker is the runner's
    failure, not the platform's: it surfaces as is, with no serial
    rerun of the grid."""
    log = tmp_path / "calls"
    pts = [{"a": i, "log": str(log)} for i in range(4)]
    with pytest.raises(FileNotFoundError, match="no input for point 0"):
        run_points(missing_file_runner, pts, workers=2)
    assert log.read_text().split().count("0") == 1


def test_unpicklable_runner_falls_back_to_serial():
    pts = [{"a": i} for i in range(5)]
    with obs.session() as reg:
        out = [r for _, r in run_points(lambda a: {"sq": a * a}, pts,
                                        workers=4)]
    assert [r["sq"] for r in out] == [0, 1, 4, 9, 16]
    assert reg.value("exec.pool.fallbacks", reason="unpicklable") == 1


def _pool_failing_at(k):
    """A thread-backed stand-in for ProcessPoolExecutor whose ``k``-th
    submit fails as a fork failure would."""
    class Pool(cf.ThreadPoolExecutor):
        submits = 0

        def submit(self, *args, **kwargs):
            if Pool.submits == k:
                raise OSError(errno.EAGAIN, "cannot fork")
            Pool.submits += 1
            return super().submit(*args, **kwargs)

    return Pool


def test_pool_that_cannot_start_falls_back_counted(monkeypatch):
    pts = [{"a": i} for i in range(6)]
    serial = run_points(point_runner, pts, workers=1)
    with obs.session() as reg:
        monkeypatch.setattr(cf, "ProcessPoolExecutor", _pool_failing_at(0))
        first = run_points(point_runner, pts, workers=2, chunksize=2)

        def no_pool(max_workers):
            raise PermissionError(errno.EACCES, "no semaphores")

        monkeypatch.setattr(cf, "ProcessPoolExecutor", no_pool)
        built = run_points(point_runner, pts, workers=2)
    assert [r for _, r in first] == [r for _, r in serial]
    assert [r for _, r in built] == [r for _, r in serial]
    assert reg.value("exec.pool.fallbacks", reason="no-pool") == 2


def test_pool_failing_after_dispatch_began_raises(monkeypatch):
    """Once a chunk may be running, a failing submit is not retried."""
    monkeypatch.setattr(cf, "ProcessPoolExecutor", _pool_failing_at(1))
    pts = [{"a": i} for i in range(6)]
    with obs.session() as reg:
        with pytest.raises(OSError, match="cannot fork"):
            run_points(point_runner, pts, workers=2, chunksize=2)
    assert reg.total("exec.pool.fallbacks") == 0


def test_timings_are_reported_per_point():
    timed = run_points(point_runner, GRID[:4], workers=1)
    assert all(dt >= 0 for dt, _ in timed)


# --------------------------------------------- heterogeneous-cost grids ---

def test_homogeneous_grid_keeps_chunked_dispatch():
    pts = [{"n_nodes": 64, "seed": s} for s in range(32)]
    assert _auto_chunksize(pts, workers=4) > 1


def test_heterogeneous_grid_switches_to_size_one_chunks():
    # a 64-node point chunked with a 1024-node point: 16x cost spread
    pts = [{"n_nodes": n, "seed": 1} for n in (64, 128, 256, 512, 1024)] * 8
    assert _auto_chunksize(pts, workers=4) == 1


def test_non_numeric_and_bool_params_do_not_fake_a_spread():
    pts = [{"workload": w, "fast": f, "n_nodes": 64, "rep": r}
           for w in ("gups", "bfs", "fft") for f in (True, False)
           for r in (2, 2, 2, 2)]
    assert _auto_chunksize(pts, workers=2) > 1


def test_heterogeneous_costs_reassemble_in_point_order():
    """The size-1 dynamic path must not reorder results: a grid whose
    costs vary wildly (so _auto_chunksize picks 1) comes back in point
    order even though workers finish out of order."""
    pts = [{"a": a, "b": b} for a, b in
           [(1000, 2), (1, 2), (500, 3), (2, 2), (900, 5), (3, 2)]]
    assert _auto_chunksize(pts, workers=3) == 1
    out = [r for _, r in run_points(point_runner, pts, workers=3)]
    assert out == [point_runner(**p) for p in pts]


# ------------------------------------------------------------- Executor ---

def test_executor_map_matches_serial():
    serial = Executor(workers=1).map(point_runner, GRID)
    parallel = Executor(workers=4).map(point_runner, GRID)
    assert parallel == serial


def test_switch_scaling_parallel_identical_to_serial():
    serial = switch_scaling(heights=(4, 8, 16), per_port=16)
    parallel = switch_scaling(heights=(4, 8, 16), per_port=16,
                              executor=Executor(workers=3))
    assert parallel == serial

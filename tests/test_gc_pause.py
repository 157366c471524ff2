"""The cyclic collector is paused while the event loop runs.

:meth:`repro.sim.engine.Engine.run` turns automatic garbage collection
off for the run and back on when it returns or raises.  That is exact
only while runs make no cyclic garbage: a collection would free
nothing, and nothing in the simulator has a finaliser or a weakref
callback that one could set off.  These tests pin the state handling
and the cycle-free contract.  Each checked run is wrapped in
``gc.freeze()`` at entry and ``gc.collect()`` at exit, so only garbage
made inside the run is counted, and that count must be 0.
"""

import gc

import pytest

from repro import faults
from repro.agg import AggSpec
from repro.core.cluster import ClusterSpec
from repro.faults.plan import FaultPlan
from repro.golden import GOLDEN_CONFIGS, run_golden_fig
from repro.kernels.bfs import run_bfs
from repro.kernels.fft1d import run_fft1d
from repro.kernels.gups import run_gups
from repro.sim.engine import Engine


@pytest.fixture
def gc_on():
    """Automatic collection on for the test, as it was after."""
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


@pytest.fixture
def gc_off():
    """Automatic collection off for the test, as it was after."""
    was = gc.isenabled()
    gc.disable()
    yield
    if was:
        gc.enable()


def _seen_by_callback(engine, seen):
    engine.call_in(1.0, lambda: seen.append(gc.isenabled()))


# -------------------------------------------------------- state handling ---


def test_run_pauses_and_restores_enabled_gc(gc_on):
    engine = Engine()
    seen = []
    _seen_by_callback(engine, seen)
    engine.run()
    assert seen == [False]
    assert gc.isenabled()


def test_run_leaves_disabled_gc_disabled(gc_off):
    engine = Engine()
    seen = []
    _seen_by_callback(engine, seen)
    engine.run()
    assert seen == [False]
    assert not gc.isenabled()


def test_run_restores_gc_after_a_callback_raises(gc_on):
    engine = Engine()

    def boom():
        assert not gc.isenabled()
        raise RuntimeError("boom")

    engine.call_in(1.0, boom)
    with pytest.raises(RuntimeError, match="boom"):
        engine.run()
    assert gc.isenabled()


@pytest.mark.parametrize("kwargs", [{"until": 2.0}, {"max_events": 10}])
def test_every_run_loop_restores_gc(gc_on, kwargs):
    engine = Engine()
    seen = []
    _seen_by_callback(engine, seen)
    engine.run(**kwargs)
    assert seen == [False]
    assert gc.isenabled()


def test_nested_run_keeps_gc_paused_until_the_outer_run_returns(gc_on):
    outer, inner = Engine(), Engine()
    seen = []

    def nested():
        seen.append(("outer before", gc.isenabled()))
        inner.run()
        seen.append(("outer after", gc.isenabled()))

    inner.call_in(1.0, lambda: seen.append(("inner", gc.isenabled())))
    outer.call_in(1.0, nested)
    outer.call_in(2.0, lambda: seen.append(("outer later", gc.isenabled())))
    outer.run()
    assert seen == [
        ("outer before", False),
        ("inner", False),
        ("outer after", False),
        ("outer later", False),
    ]
    assert gc.isenabled()


# ------------------------------------------------------- cycle-free runs ---


def _count_garbage(monkeypatch):
    """Wrap :meth:`Engine.run` to count the cyclic garbage each
    outermost run makes; returns the per-run counts."""
    counts = []
    depth = [0]
    real_run = Engine.run

    def run(engine, *args, **kwargs):
        if depth[0]:
            return real_run(engine, *args, **kwargs)
        gc.freeze()
        depth[0] += 1
        try:
            real_run(engine, *args, **kwargs)
            counts.append(gc.collect())
        finally:
            depth[0] -= 1
            gc.unfreeze()

    monkeypatch.setattr(Engine, "run", run)
    return counts


def _assert_cycle_free(monkeypatch, run):
    """``run()`` once to pay for lazy imports (numpy and the standard
    library leave cyclic garbage the first time some paths run), then
    again with every run checked."""
    run()
    counts = _count_garbage(monkeypatch)
    run()
    assert counts, "no Engine.run was checked"
    assert counts == [0] * len(counts), counts


SPEC = ClusterSpec(n_nodes=4, seed=5)
RUNS = {
    "gups-dv": lambda: run_gups(SPEC, "dv", table_words=256),
    "gups-mpi": lambda: run_gups(SPEC, "mpi", table_words=256),
    "gups-verbs": lambda: run_gups(SPEC, "verbs", table_words=256),
    "gups-agg": lambda: run_gups(
        ClusterSpec(n_nodes=4, seed=5, aggregation=AggSpec(watermark=8)),
        "mpi",
        table_words=256,
    ),
    "fft1d-dv": lambda: run_fft1d(SPEC, "dv", log2_points=10),
    "fft1d-mpi": lambda: run_fft1d(SPEC, "mpi", log2_points=10),
    "bfs-dv": lambda: run_bfs(SPEC, "dv", scale=7, n_roots=2),
    "bfs-mpi": lambda: run_bfs(SPEC, "mpi", scale=7, n_roots=2),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_kernel_runs_make_no_cyclic_garbage(monkeypatch, name):
    _assert_cycle_free(monkeypatch, RUNS[name])


def test_fault_plan_run_makes_no_cyclic_garbage(monkeypatch):
    def run():
        with faults.session(FaultPlan(seed=3, ib_drop_prob=0.3)):
            run_gups(SPEC, "mpi", table_words=256)

    _assert_cycle_free(monkeypatch, run)


@pytest.mark.parametrize("fig", sorted(GOLDEN_CONFIGS))
def test_golden_figures_make_no_cyclic_garbage(monkeypatch, fig):
    _assert_cycle_free(monkeypatch, lambda: run_golden_fig(fig))

"""Tests for the experiment registry and replication statistics."""

import pytest

from repro.core.experiments import (REGISTRY, index_table,
                                    run_experiment)
from repro.core.report import Table
from repro.core.stats import replicate, summarize


# ------------------------------------------------------------- registry ---

def test_registry_covers_every_figure():
    assert set(REGISTRY) == {"fig3a", "fig3b", "fig4", "fig5", "fig6a",
                             "fig6b", "fig7", "fig8", "fig9",
                             "fig_scaleout", "fig_skew", "fig_agg",
                             "fig_interference", "fig_faults",
                             "fig_switch_scaling"}


def test_registry_entries_complete():
    for exp in REGISTRY.values():
        assert exp.title and exp.workload and exp.bench
        assert exp.modules
        assert exp.paper_expectation
        assert exp.bench.startswith("benchmarks/")


def test_index_table_renders():
    t = index_table()
    text = t.render()
    for exp_id in REGISTRY:
        assert exp_id in text


def test_run_experiment_unknown_id():
    with pytest.raises(KeyError, match="unknown experiment"):
        run_experiment("fig42")


def test_run_experiment_trace_has_no_runner():
    with pytest.raises(ValueError, match="no table runner"):
        run_experiment("fig5")


def test_run_experiment_fig4_small():
    t = run_experiment("fig4", nodes=(2, 4))
    assert isinstance(t, Table)
    assert t.column("nodes") == [2, 4]
    mpi = t.column("mpi")
    assert mpi[1] > mpi[0]


def test_run_experiment_fig6_small():
    t = run_experiment("fig6a", nodes=(4,))
    assert t.column("dv_per_pe")[0] > t.column("mpi_per_pe")[0]


def test_run_experiment_hands_its_executor_to_the_runner(tmp_path):
    """A runner with an ``executor=`` keyword fans its own points
    through the caller's executor: with a cache, every switch size is
    stored beside the whole-figure entry, and the table matches the
    executor-free run."""
    from repro.exec import Executor
    executor = Executor(cache_dir=str(tmp_path))
    kw = dict(heights=(4, 8), per_port=8)
    t = run_experiment("fig_switch_scaling", executor=executor, **kw)
    assert executor.cache.stats()["entries"] == 3   # 2 points + figure
    assert t.to_dict() == run_experiment("fig_switch_scaling",
                                         **kw).to_dict()
    assert t.column("ports") == [8, 16]


# ----------------------------------------------------------------- stats ---

def test_summarize_basic():
    s = summarize([1.0, 2.0, 3.0])
    assert s.n == 3
    assert s.mean == 2.0
    assert s.minimum == 1.0 and s.maximum == 3.0
    assert s.std == pytest.approx(1.0)
    assert s.ci95 == pytest.approx(1.96 / 3 ** 0.5)


def test_summarize_single_sample():
    s = summarize([5.0])
    assert s.mean == 5.0 and s.std == 0.0 and s.ci95 == 0.0


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_summary_rel_ci():
    assert summarize([10.0]).rel_ci == 0.0
    s = summarize([9.0, 11.0])
    assert s.rel_ci == pytest.approx(s.ci95 / 10.0)


def test_summary_str():
    assert "n=2" in str(summarize([1.0, 2.0]))


def test_replicate_collects_numeric_fields():
    def runner(seed):
        return {"value": seed * 2.0, "label": "ignored",
                "flag": True}

    out = replicate(runner, seeds=[1, 2, 3])
    assert set(out) == {"value"}
    assert out["value"].mean == 4.0
    assert out["value"].n == 3


def test_replicate_requires_seeds():
    with pytest.raises(ValueError):
        replicate(lambda s: {"x": 1.0}, seeds=[])

"""Determinism harness + the repo's committed golden gate.

The committed goldens under ``goldens/`` are part of the test surface:
``test_committed_goldens_match_fresh_run`` is the same gate CI runs via
``repro verify --compare``, so a PR that drifts a figure fails tier-1
locally before it ever reaches CI.
"""

import pathlib

import pytest

from repro.core.experiments import REGISTRY
from repro.golden import (AXES, GOLDEN_CONFIGS, GoldenStore, check_axis,
                          compare_goldens, record_goldens, run_golden_fig,
                          run_goldens, run_harness)

REPO_GOLDENS = pathlib.Path(__file__).resolve().parents[1] / "goldens"


# ------------------------------------------------------------- configs ---

def test_every_golden_config_names_a_registered_runner():
    for fig in GOLDEN_CONFIGS:
        assert REGISTRY[fig].runner is not None


def test_run_golden_fig_rejects_unknown_fig():
    with pytest.raises(KeyError):
        run_golden_fig("fig999")


def test_run_goldens_returns_all_requested():
    tables = run_goldens(["fig4", "fig6a"])
    assert sorted(tables) == ["fig4", "fig6a"]
    assert tables["fig4"].column("nodes") == [2, 4, 8]


# ---------------------------------------------------- determinism axes ---

@pytest.mark.parametrize("fig", sorted(GOLDEN_CONFIGS))
def test_harness_all_axes_bit_identical(fig):
    """Every tier-1 figure along all five axes (workers, cache, obs,
    all-zero fault plan, tenancy) — the acceptance-criteria sweep."""
    reports = run_harness([fig])
    assert [r.axis for r in reports] == list(AXES)
    for r in reports:
        assert r.ok, r.describe()


def test_check_axis_rejects_unknown_axis():
    with pytest.raises(KeyError):
        check_axis("fig4", "moon-phase")
    for gone in ("shards", "agg"):  # the removed axes
        with pytest.raises(KeyError):
            check_axis("fig4", gone)


def test_axis_divergence_names_axis_cell_and_seed(monkeypatch):
    """An unstable runner must be caught and the report must name the
    offending axis, table cell, and seed."""
    from repro.core import experiments
    from repro.core.report import Table

    state = {"calls": 0}

    def unstable_runner(seed=2017, nodes=(2,)):
        state["calls"] += 1
        t = Table("unstable", ["nodes", "dv"])
        t.add_row(2, 1.0 + 0.001 * state["calls"])   # drifts every call
        return t

    exp = experiments.Experiment(
        "figX", "unstable", "-", (), "-", "-", runner=unstable_runner)
    monkeypatch.setitem(experiments.REGISTRY, "figX", exp)
    monkeypatch.setitem(GOLDEN_CONFIGS, "figX",
                        {"seed": 2017, "nodes": (2,)})

    report = check_axis("figX", "obs")
    assert not report.ok
    assert report.axis == "obs" and report.seed == 2017
    text = report.describe()
    assert "figX" in text and "'dv'" in text and "2017" in text


def test_cache_axis_requires_a_warm_hit(monkeypatch, tmp_path):
    """If the warm re-run misses the cache, the axis must not silently
    pass (an unstable cache identity would make the check vacuous)."""
    from repro.exec.cache import ResultCache

    monkeypatch.setattr(ResultCache, "get",
                        lambda self, key: (False, None))
    with pytest.raises(AssertionError, match="did not hit the cache"):
        check_axis("fig4", "cache", cache_dir=str(tmp_path))


def test_workers_axis_fails_when_no_point_reaches_a_pool(monkeypatch):
    """A pool that cannot start falls back to serial dispatch; the
    workers axis must then fail and say so, not pass on two serial
    runs."""
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise OSError("no semaphores")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    report = check_axis("fig6a", "workers")
    assert not report.ok and not report.diffs
    assert "fell back to serial" in report.describe()


# -------------------------------------------------- committed goldens ---

def test_committed_goldens_exist_for_every_config():
    store = GoldenStore(str(REPO_GOLDENS))
    assert store.figs() == sorted(GOLDEN_CONFIGS)


def test_committed_goldens_match_fresh_run():
    """The CI golden gate, runnable straight from tier-1."""
    store = GoldenStore(str(REPO_GOLDENS))
    for report in compare_goldens(store):
        assert report.ok, report.describe()


def test_record_then_compare_round_trip(tmp_path):
    store = GoldenStore(str(tmp_path))
    paths = record_goldens(store, figs=["fig4"])
    assert sorted(paths) == ["fig4"]
    (report,) = compare_goldens(store, figs=["fig4"])
    assert report.ok and not report.missing


def test_compare_against_empty_store_reports_missing(tmp_path):
    (report,) = compare_goldens(GoldenStore(str(tmp_path)),
                                figs=["fig4"])
    assert not report.ok and report.missing
    assert "repro verify --record" in report.describe()

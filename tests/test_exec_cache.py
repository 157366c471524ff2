"""Cache semantics: hit/miss/invalidate, key stability, corruption
tolerance, and the zero-invocation warm re-run guarantee."""

import json
import os

from repro.core.report import Table
from repro.exec import Executor, ResultCache
from repro.exec.cache import cache_key

CALLS_FILE = None  # set per-test via env so pool workers can record


def counting_runner(a, _marker_dir=None):
    """Counts invocations through the filesystem (works across
    processes)."""
    if _marker_dir:
        with open(os.path.join(_marker_dir, f"call-{a}-{os.getpid()}"),
                  "a") as fh:
            fh.write("x")
    return {"sq": a * a}


def _invocations(marker_dir):
    return sum(1 for n in os.listdir(marker_dir)
               if n.startswith("call-"))


# ----------------------------------------------------------- raw cache ---

def test_miss_then_hit(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = cache.key("r", {"a": 1})
    hit, _ = cache.get(key)
    assert not hit
    cache.put(key, {"v": 42})
    hit, value = cache.get(key)
    assert hit and value == {"v": 42}
    assert cache.stats()["hits"] == 1
    assert cache.stats()["misses"] == 1
    assert cache.stats()["entries"] == 1


def test_key_changes_with_params_runner_and_version():
    base = cache_key("runner", {"a": 1}, version="1.0.0")
    assert cache_key("runner", {"a": 2}, version="1.0.0") != base
    assert cache_key("other", {"a": 1}, version="1.0.0") != base
    assert cache_key("runner", {"a": 1}, version="9.9.9") != base
    # param order must not matter
    assert cache_key("runner", {"a": 1, "b": 2}) == cache_key(
        "runner", {"b": 2, "a": 1})


def test_invalidate_one_and_all(tmp_path):
    cache = ResultCache(str(tmp_path))
    k1, k2 = cache.key("r", {"a": 1}), cache.key("r", {"a": 2})
    cache.put(k1, 1)
    cache.put(k2, 2)
    assert cache.invalidate(k1) == 1
    assert cache.get(k1) == (False, None)
    assert cache.get(k2) == (True, 2)
    assert cache.invalidate() == 1
    assert cache.entries() == 0


def test_corrupted_entry_is_recomputed_not_crashed(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = cache.key("r", {"a": 1})
    cache.put(key, {"v": 1})
    (tmp_path / f"{key}.json").write_text("{ not json !!")
    hit, _ = cache.get(key)
    assert not hit                      # miss, no exception
    cache.put(key, {"v": 2})            # rewrite heals the entry
    assert cache.get(key) == (True, {"v": 2})


def test_unserialisable_value_is_skipped_not_crashed(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = cache.key("r", {"a": 1})
    assert cache.put(key, {"v": object()}) is False
    assert cache.entries() == 0


# ------------------------------------------------- executor integration ---

def _grid(a_values, marker_dir=None):
    return [{"a": a, "_marker_dir": marker_dir} for a in a_values]


def test_warm_sweep_performs_zero_runner_invocations(tmp_path):
    cache_dir = tmp_path / "cache"
    marker_dir = tmp_path / "markers"
    marker_dir.mkdir()
    grid = _grid([1, 2, 3, 4], str(marker_dir))

    cold = Executor(cache_dir=str(cache_dir)).map(counting_runner, grid)
    assert _invocations(marker_dir) == 4

    warm = Executor(cache_dir=str(cache_dir)).map(counting_runner, grid)
    assert _invocations(marker_dir) == 4      # zero new invocations
    assert warm == cold


def test_warm_parallel_run_matches_cold_serial(tmp_path):
    cache_dir = str(tmp_path / "cache")
    marker_dir = tmp_path / "markers"
    marker_dir.mkdir()
    grid = _grid(range(8), str(marker_dir))
    cold = Executor(workers=4, cache_dir=cache_dir).map(counting_runner,
                                                        grid)
    n_cold = _invocations(marker_dir)
    assert n_cold == 8
    warm = Executor(workers=4, cache_dir=cache_dir).map(counting_runner,
                                                        grid)
    assert _invocations(marker_dir) == n_cold
    assert warm == cold == Executor().map(counting_runner, _grid(range(8)))


def test_partial_cache_recomputes_only_missing_points(tmp_path):
    cache_dir = str(tmp_path / "cache")
    marker_dir = tmp_path / "markers"
    marker_dir.mkdir()
    Executor(cache_dir=cache_dir).map(counting_runner,
                                      _grid([1, 2], str(marker_dir)))
    assert _invocations(marker_dir) == 2
    rows = Executor(cache_dir=cache_dir).map(
        counting_runner, _grid([1, 2, 3], str(marker_dir)))
    assert _invocations(marker_dir) == 3      # only a=3 ran
    assert [r["sq"] for r in rows] == [1, 4, 9]


def test_executor_call_caches_whole_tables(tmp_path):
    calls = []

    def build(n):
        calls.append(n)
        t = Table("demo", ["n", "v"])
        t.add_row(n, n * 10)
        return t

    ex = Executor(cache_dir=str(tmp_path))
    t1 = ex.call(build, name="demo.table", n=3)
    t2 = ex.call(build, name="demo.table", n=3)
    assert calls == [3]
    assert isinstance(t2, Table)
    assert t2.render() == t1.render()


def test_run_experiment_warm_cache_zero_work(tmp_path):
    from repro.core.experiments import run_experiment
    ex = Executor(cache_dir=str(tmp_path))
    t1 = run_experiment("fig4", executor=ex, nodes=(2,))
    t2 = run_experiment("fig4", executor=ex, nodes=(2,))
    assert ex.cache.hits == 1
    assert t2.render() == t1.render()


def test_obs_counters_record_cache_traffic(tmp_path):
    from repro import obs
    with obs.session() as reg:
        grid = _grid([1, 2])
        Executor(cache_dir=str(tmp_path)).map(counting_runner, grid)
        Executor(cache_dir=str(tmp_path)).map(counting_runner, grid)
        assert reg.value("exec.cache.misses") == 2
        assert reg.value("exec.cache.hits") == 2


# ------------------------------------------- canonical parameter types ---

def test_numpy_params_key_like_python_scalars():
    """np.int64(8) and 8 name the same point (sweeps built from
    np.arange must warm-hit on re-run)."""
    import numpy as np
    assert (cache_key("r", {"n": np.int64(8), "x": np.float64(0.5)})
            == cache_key("r", {"n": 8, "x": 0.5}))
    assert (cache_key("r", {"flag": np.bool_(True)})
            == cache_key("r", {"flag": True}))
    assert (cache_key("r", {"v": np.array([1, 2, 3])})
            == cache_key("r", {"v": [1, 2, 3]}))


def test_dataclass_params_have_stable_keys():
    from repro.faults import FaultPlan
    a = cache_key("r", {"plan": FaultPlan(seed=3, drop_prob=0.1)})
    b = cache_key("r", {"plan": FaultPlan(seed=3, drop_prob=0.1)})
    c = cache_key("r", {"plan": FaultPlan(seed=4, drop_prob=0.1)})
    assert a == b and a != c


def test_unhashable_param_raises_typeerror():
    import pytest
    with pytest.raises(TypeError):
        cache_key("r", {"fh": open(os.devnull)})


def test_numpy_point_warm_hits_cache(tmp_path):
    """Regression: the old default=repr keyed np.int64 params on their
    repr, so a sweep over np.arange never warm-hit."""
    import numpy as np
    calls = []

    def runner(a, x):
        calls.append((a, x))
        return {"sq": a * a, "x": np.float64(x)}

    points = [{"a": np.int64(3), "x": np.float64(0.5)}]
    ex1 = Executor(cache_dir=str(tmp_path / "cache"))
    out1 = ex1.map(runner, points, name="np-point")
    ex2 = Executor(cache_dir=str(tmp_path / "cache"))
    # warm run keys with the plain-python equivalents: must hit
    out2 = ex2.map(runner, [{"a": 3, "x": 0.5}], name="np-point")
    assert out1 == out2 == [{"sq": 9, "x": 0.5}]
    assert len(calls) == 1
    assert ex2.cache.hits == 1


def test_uncacheable_point_still_runs(tmp_path):
    """A point whose params cannot be canonicalised executes uncached
    (every run recomputes it) instead of crashing or mis-keying."""
    class Opaque:
        pass

    calls = []
    ex = Executor(cache_dir=str(tmp_path / "cache"))
    point = {"a": 2, "_opaque": Opaque()}

    def runner(a, _opaque=None):
        calls.append(a)
        return {"sq": a * a}

    assert ex.map(runner, [point], name="opaque") == [{"sq": 4}]
    assert ex.map(runner, [point], name="opaque") == [{"sq": 4}]
    assert calls == [2, 2]                     # ran both times
    assert ex.cache.entries() == 0             # nothing was stored
    assert ex.call(lambda _opaque=None: {"v": 1},
                   name="opaque-call", _opaque=Opaque()) == {"v": 1}


# --------------------------------------------- what else keys a result ---

def test_aggregation_session_is_part_of_the_cache_identity(tmp_path):
    """Regression: fig_skew's runner has no ``aggregation=`` keyword,
    so ``api.run`` applies the spec's AggSpec through ``agg.session``.
    A cached un-aggregated table must not answer the aggregated run."""
    import repro.api as api
    from repro.agg import AggSpec
    params = {"seed": 2017, "nodes": 2, "exponents": (0.0,),
              "include_hotset": False, "table_words": 1024,
              "n_updates": 256}
    plain = api.ExperimentSpec(exp_id="fig_skew", params=params)
    aggregated = api.ExperimentSpec(exp_id="fig_skew", params=params,
                                    aggregation=AggSpec(watermark=64))
    cached = api.RunOptions(cache_dir=str(tmp_path))
    api.run(spec=plain, options=cached)
    warm = api.run(spec=aggregated, options=cached)
    fresh = api.run(spec=aggregated)
    assert warm.rows == fresh.rows
    assert fresh.rows != api.run(spec=plain).rows


def test_fault_session_is_part_of_the_cache_identity(tmp_path):
    from repro import faults
    calls = []

    def build(n):
        calls.append(n)
        return {"v": n}

    ex = Executor(cache_dir=str(tmp_path))
    ex.call(build, name="demo", n=1)
    with faults.session(faults.FaultPlan(seed=3, drop_prob=0.1)):
        ex.call(build, name="demo", n=1)
        ex.call(build, name="demo", n=1)
    ex.call(build, name="demo", n=1)
    assert calls == [1, 1]                     # one miss per context
    assert ex.cache.hits == 2


def test_source_digest_change_misses_the_cache(tmp_path, monkeypatch):
    """A code change must not warm-hit tables computed by older code."""
    import repro.exec.cache as cache_mod
    calls = []

    def build(n):
        calls.append(n)
        return {"v": n}

    Executor(cache_dir=str(tmp_path)).call(build, name="demo", n=1)
    monkeypatch.setattr(cache_mod, "source_digest", lambda: "edited")
    ex = Executor(cache_dir=str(tmp_path))
    ex.call(build, name="demo", n=1)
    assert calls == [1, 1]
    assert ex.cache.hits == 0


def test_unchanged_source_digest_hits_the_cache(tmp_path):
    from repro.exec.cache import source_digest
    calls = []

    def build(n):
        calls.append(n)
        return {"v": n}

    Executor(cache_dir=str(tmp_path)).call(build, name="demo", n=1)
    ex = Executor(cache_dir=str(tmp_path))
    ex.call(build, name="demo", n=1)
    assert calls == [1]
    assert ex.cache.hits == 1
    assert source_digest() == source_digest()
    assert len(source_digest()) == 64


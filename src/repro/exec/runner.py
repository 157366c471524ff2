"""The Executor: cache-aware parallel dispatch + observability glue.

Everything that executes a grid of experiment points —
``Sweep.run``, ``switch_scaling``/``cluster_scaling``,
``run_experiment`` and ``repro run`` — routes through one
:class:`Executor`, so parallelism, caching and per-point metrics live
in exactly one place:

* cached points are returned without invoking the runner at all (a
  warm re-run of a sweep performs **zero** runner invocations);
* missing points fan out through :func:`repro.exec.pool.run_points`
  (ordered reassembly keeps output tables bit-identical to serial);
* per-point wall-times feed the ``exec.point.seconds`` histogram and
  cache traffic feeds the ``exec.cache.hits`` / ``exec.cache.misses``
  counters in :mod:`repro.obs`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.exec.cache import ResultCache, run_context
from repro.exec.pool import run_points
from repro.obs import registry as obsreg

__all__ = ["Executor", "runner_name"]

_TABLE_TAG = "__repro_table__"


def runner_name(runner: Callable) -> str:
    """Stable identity of a runner for cache keys."""
    mod = getattr(runner, "__module__", None) or "?"
    qual = getattr(runner, "__qualname__", None) or repr(runner)
    return f"{mod}.{qual}"


def _encode_value(value: Any) -> Any:
    """Make a runner result JSON-friendly (Tables get a tagged dict)."""
    from repro.core.report import Table
    if isinstance(value, Table):
        return {_TABLE_TAG: value.to_dict()}
    return value


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict) and _TABLE_TAG in value:
        from repro.core.report import Table
        return Table.from_dict(value[_TABLE_TAG])
    return value


class Executor:
    """Parallel, cached execution of experiment points.

    Parameters
    ----------
    workers:
        Process-pool width; ``1`` (the default) runs serially in
        process.
    cache:
        A :class:`ResultCache`, or ``None`` to disable caching.
    cache_dir:
        Convenience: builds a :class:`ResultCache` at this path when
        ``cache`` is not given.
    chunksize:
        Points per pool task (``0`` = automatic).
    """

    def __init__(self, workers: int = 1,
                 cache: Optional[ResultCache] = None,
                 cache_dir: Optional[str] = None,
                 chunksize: int = 0) -> None:
        self.workers = max(1, int(workers))
        if cache is None and cache_dir:
            cache = ResultCache(cache_dir)
        self.cache = cache
        self.chunksize = chunksize
        self._obs_hits = obsreg.counter("exec.cache.hits")
        self._obs_misses = obsreg.counter("exec.cache.misses")
        self._obs_uncacheable = obsreg.counter("exec.cache.uncacheable")
        self._obs_points = obsreg.counter("exec.points")
        self._obs_seconds = obsreg.histogram("exec.point.seconds")

    def _key_for(self, name: str, params: Mapping[str, Any],
                 context: Mapping[str, Any]) -> Optional[str]:
        """Cache key, or None for a point with no canonical identity
        (such a point runs uncached — never under a repr-derived key)."""
        try:
            return self.cache.key(name, params, context=context)
        except TypeError:
            self._obs_uncacheable.inc()
            return None

    # -- grid execution --------------------------------------------------
    def map(self, runner: Callable[..., Mapping[str, Any]],
            points: Sequence[Dict[str, Any]],
            name: Optional[str] = None) -> List[Any]:
        """Run every point; results in point order.

        With a cache attached, only points without a stored result are
        executed; their results are stored afterwards (unless not
        JSON-serialisable, in which case they are returned uncached).
        """
        points = list(points)
        name = name or runner_name(runner)
        out: List[Any] = [None] * len(points)
        missing: List[int] = []
        if self.cache is not None:
            context = run_context()
            keys = [self._key_for(name, p, context) for p in points]
            for i, key in enumerate(keys):
                if key is None:
                    missing.append(i)
                    continue
                hit, value = self.cache.get(key)
                if hit:
                    out[i] = _decode_value(value)
                    self._obs_hits.inc()
                else:
                    missing.append(i)
                    self._obs_misses.inc()
        else:
            missing = list(range(len(points)))

        if missing:
            timed = run_points(runner, [points[i] for i in missing],
                               workers=self.workers,
                               chunksize=self.chunksize)
            for i, (dt, result) in zip(missing, timed):
                out[i] = result
                self._obs_points.inc()
                self._obs_seconds.observe(dt)
                if self.cache is not None and keys[i] is not None:
                    self.cache.put(keys[i], _encode_value(result),
                                   meta={"runner": name,
                                         "params": {k: repr(v) for k, v
                                                    in points[i].items()}})
        return out

    # -- single cached call ----------------------------------------------
    def call(self, fn: Callable[..., Any], name: Optional[str] = None,
             **params: Any) -> Any:
        """One cached in-process invocation (whole figure tables)."""
        import time
        name = name or runner_name(fn)
        key = None
        if self.cache is not None:
            key = self._key_for(name, params, run_context())
            if key is not None:
                hit, value = self.cache.get(key)
                if hit:
                    self._obs_hits.inc()
                    return _decode_value(value)
                self._obs_misses.inc()
        t0 = time.perf_counter()
        result = fn(**params)
        self._obs_points.inc()
        self._obs_seconds.observe(time.perf_counter() - t0)
        if self.cache is not None and key is not None:
            self.cache.put(key, _encode_value(result),
                           meta={"runner": name})
        return result

"""Chunked process-pool fan-out with ordered reassembly.

:func:`run_points` is the only entry point: it executes
``runner(**params)`` for every point in a list and returns the results
*in point order*, regardless of which worker finished first — so any
table assembled from the results is bit-identical to a serial run.

Dispatch is chunked (several points per task) to amortise pickling and
process wake-up over short simulation points — unless the grid's
point-cost proxy says the points are heterogeneous, in which case
chunks shrink to one point each and the pool balances dynamically
(:func:`_auto_chunksize`).  A worker exception is
re-raised in the parent exactly as the runner raised it, once: it is
never retried.  The serial path is used when ``workers <= 1``, when
there is at most one point, and as a fallback counted under
``exec.pool.fallbacks{reason}`` when the runner cannot be pickled
(``unpicklable``: lambdas, closures) or the platform cannot start a
process pool at all (``no-pool``).
"""

from __future__ import annotations

import pickle
import time
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro.obs import registry as obsreg

__all__ = ["run_points"]

#: (elapsed_seconds, result) per executed point.
TimedResult = Tuple[float, Mapping[str, Any]]


def _run_one(runner: Callable[..., Mapping[str, Any]],
             params: Dict[str, Any]) -> TimedResult:
    t0 = time.perf_counter()
    result = runner(**params)
    return (time.perf_counter() - t0, result)


def _run_chunk(runner: Callable[..., Mapping[str, Any]],
               chunk: List[Tuple[int, Dict[str, Any]]]
               ) -> List[Tuple[int, TimedResult]]:
    """Worker-side body: run every point of one chunk, keep indices."""
    return [(idx, _run_one(runner, params)) for idx, params in chunk]


def _picklable(obj: Any) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


def _serial(runner: Callable[..., Mapping[str, Any]],
            points: Sequence[Dict[str, Any]]) -> List[TimedResult]:
    return [_run_one(runner, params) for params in points]


def _fallback(reason: str, runner: Callable[..., Mapping[str, Any]],
              points: Sequence[Dict[str, Any]]) -> List[TimedResult]:
    """The serial path in place of a pool, counted."""
    obsreg.counter("exec.pool.fallbacks", reason=reason).inc()
    return _serial(runner, points)


#: max/min point-cost spread above which chunking is abandoned for
#: size-1 dynamic dispatch (see :func:`_auto_chunksize`).
COST_SPREAD_THRESHOLD = 4.0


def _point_cost(params: Mapping[str, Any]) -> float:
    """Crude relative-cost proxy for one point: the product of its
    positive numeric parameters (node counts, problem sizes, iteration
    counts all multiply simulated work).  Only *relative* spread across
    a grid is ever used, so the absolute scale is meaningless.  ``seed``
    is the one numeric knob that is cost-neutral by construction, so it
    is excluded."""
    cost = 1.0
    for k, v in params.items():
        if k == "seed" or isinstance(v, bool) \
                or not isinstance(v, (int, float)):
            continue
        if v > 1:
            cost *= float(v)
    return cost


def _auto_chunksize(points: Sequence[Mapping[str, Any]],
                    workers: int) -> int:
    """Chunk size for a grid: a handful of tasks per worker normally,
    but **1** when the cost proxy says the points are heterogeneous.

    Chunks are contiguous, so on a mixed grid (a 64-node point chunked
    with a 1024-node point) static chunking strands the small points
    behind the big one on a single worker; size-1 chunks let the pool
    dispatch dynamically — whichever worker frees up takes the next
    point — at the price of one pickle round-trip per point, which the
    heterogeneity implies is negligible next to the big points anyway.
    Ordered reassembly is index-based and unaffected.
    """
    costs = [_point_cost(p) for p in points]
    lo, hi = min(costs), max(costs)
    if lo > 0.0 and hi / lo > COST_SPREAD_THRESHOLD:
        return 1
    return max(1, len(points) // (workers * 4))


def run_points(runner: Callable[..., Mapping[str, Any]],
               points: Sequence[Dict[str, Any]],
               workers: int = 1,
               chunksize: int = 0) -> List[TimedResult]:
    """Execute ``runner(**p)`` for every point; ordered timed results.

    ``chunksize=0`` picks a chunk size that gives each worker a handful
    of tasks (load balance without drowning in dispatch overhead).
    """
    points = list(points)
    if workers <= 1 or len(points) <= 1:
        return _serial(runner, points)
    if not _picklable(runner):
        return _fallback("unpicklable", runner, points)
    import concurrent.futures as cf

    workers = min(workers, len(points))
    if chunksize <= 0:
        chunksize = _auto_chunksize(points, workers)
    indexed = list(enumerate(points))
    chunks = [indexed[i:i + chunksize]
              for i in range(0, len(indexed), chunksize)]

    out: List[TimedResult] = [None] * len(points)  # type: ignore[list-item]
    try:
        pool = cf.ProcessPoolExecutor(max_workers=workers)
    except OSError:  # no semaphores or pipes for a pool here
        return _fallback("no-pool", runner, points)
    with pool:
        futures = []
        try:
            for chunk in chunks:
                futures.append(pool.submit(_run_chunk, runner, chunk))
        except OSError:
            # workers start at submit; dispatch starts after them, so a
            # failing first submit has run no point
            if futures:
                raise
            pool.shutdown(cancel_futures=True)
            return _fallback("no-pool", runner, points)
        for fut in futures:
            # .result() re-raises the runner's original exception
            for idx, timed in fut.result():
                out[idx] = timed
    return out

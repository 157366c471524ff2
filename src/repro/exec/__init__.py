"""repro.exec — deterministic parallel experiment executor with caching.

The paper's figures and the §IX scale-up study are grids of independent
simulation points; this package is the execution substrate that fans
those points out across worker processes and memoises finished points on
disk, while guaranteeing that the assembled result tables stay
bit-identical to a serial run:

* :mod:`repro.exec.pool` — chunked fan-out over a
  ``ProcessPoolExecutor`` with ordered result reassembly and a serial
  fallback (``workers=1``, unpicklable runner, or no pool available);
* :mod:`repro.exec.cache` — content-addressed on-disk JSON cache keyed
  by a stable hash of (runner name, params, repro version, source
  digest, active aggregation and fault sessions), with
  ``invalidate``/``stats`` APIs; a corrupted entry is recomputed, never
  a crash;
* :mod:`repro.exec.runner` — the :class:`Executor` glue that
  ``switch_scaling``, ``scaleout_sweep``, ``run_experiment``,
  ``api.run_figures`` and the CLI all route through, feeding per-point
  wall-times and cache hit/miss counters into :mod:`repro.obs`.

Quick use::

    from repro.exec import Executor

    ex = Executor(workers=4, cache_dir=".repro-cache")
    points = switch_scaling(executor=ex)     # parallel + cached
"""

from repro.exec.cache import ResultCache
from repro.exec.pool import run_points
from repro.exec.runner import Executor

__all__ = ["Executor", "ResultCache", "run_points"]

"""Parameter-sweep helper for experiments.

A tiny declarative layer used by ``api.run`` (and available to users) to run
a benchmark function over a grid of parameters and collect rows into a
:class:`~repro.core.report.Table`.  Execution streams through
:class:`repro.exec.Executor`, so every sweep gains parallel fan-out and
on-disk result caching for free — with rows reassembled in point order
so the output is bit-identical to a serial run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.core.report import Table


@dataclass
class Sweep:
    """A cartesian parameter sweep over a runner function.

    Parameters
    ----------
    runner:
        Called as ``runner(**params)``; must return a mapping of result
        fields.  Module-level functions parallelise and cache; lambdas
        and closures still work but run serially and uncached.
    axes:
        Ordered mapping of parameter name -> list of values.
    fixed:
        Extra keyword arguments passed to every invocation.
    """

    runner: Callable[..., Mapping[str, Any]]
    axes: Dict[str, Sequence[Any]]
    fixed: Dict[str, Any] = field(default_factory=dict)

    def points(self) -> List[Dict[str, Any]]:
        """All parameter combinations, in axis order."""
        names = list(self.axes)
        out = []
        for combo in itertools.product(*(self.axes[n] for n in names)):
            params = dict(zip(names, combo))
            params.update(self.fixed)
            out.append(params)
        return out

    def run(self, executor: Optional["Executor"] = None
            ) -> List[Dict[str, Any]]:
        """Execute every point; returns param+result dicts in grid order.

        ``executor`` carries the workers/cache policy; by default a
        serial uncached :class:`~repro.exec.Executor` is used, so the
        rows are identical whichever policy executes them.
        """
        from repro.exec import Executor
        executor = executor or Executor()
        points = self.points()
        results = executor.map(self.runner, points)
        rows = []
        for params, result in zip(points, results):
            row = {k: v for k, v in params.items() if k in self.axes}
            row.update(dict(result))
            rows.append(row)
        return rows

    def run_table(self, title: str, columns: Sequence[str],
                  executor: Optional["Executor"] = None) -> Table:
        """Run the sweep and render the chosen columns (the one place
        sweep output formatting lives; the CLI uses this)."""
        t = Table(title, columns)
        for row in self.run(executor=executor):
            t.add_row(*(row.get(c, "") for c in columns))
        return t

    def table(self, title: str, columns: Sequence[str],
              executor: Optional["Executor"] = None) -> Table:
        """Alias of :meth:`run_table` (kept for existing callers)."""
        return self.run_table(title, columns, executor=executor)


# -- named sweeps (CLI: ``repro run sweep:gups``) ----------------------------
#
# Module-level runners so they pickle into pool workers and carry stable
# cache identities.

def gups_sweep_point(nodes: int, seed: int = 2017,
                     fabric: str = "dv") -> Dict[str, Any]:
    """One GUPS weak-scaling point (Fig. 6 shape)."""
    from repro.core.cluster import ClusterSpec
    from repro.kernels.gups import run_gups
    spec = ClusterSpec(n_nodes=nodes, seed=seed)
    r = run_gups(spec, fabric, table_words=1 << 14, n_updates=1 << 13)
    return {"mups_per_pe": r["mups_per_pe"],
            "mups_total": r["mups_total"]}


def barrier_sweep_point(nodes: int, seed: int = 2017,
                        impl: str = "dv") -> Dict[str, Any]:
    """One barrier-latency point (Fig. 4 shape)."""
    from repro.core.cluster import ClusterSpec
    from repro.kernels.barrier_bench import run_barrier_bench
    spec = ClusterSpec(n_nodes=nodes, seed=seed)
    return {"latency_us": run_barrier_bench(spec, impl,
                                            iters=8)["latency_us"]}


NAMED_SWEEPS: Dict[str, Dict[str, Any]] = {
    "gups": {
        "runner": gups_sweep_point,
        "axes": {"nodes": [4, 8, 16, 32]},
        "columns": ["nodes", "mups_per_pe", "mups_total"],
        "title": "GUPS weak scaling (MUPS)",
    },
    "barrier": {
        "runner": barrier_sweep_point,
        "axes": {"nodes": [2, 4, 8, 16, 32]},
        "columns": ["nodes", "latency_us"],
        "title": "DV barrier latency (us)",
    },
}


def named_sweep(name: str, axes: Optional[Dict[str, Sequence[Any]]] = None,
                fixed: Optional[Dict[str, Any]] = None) -> Sweep:
    """Build one of the :data:`NAMED_SWEEPS` (``api.run``'s sweep arm)."""
    try:
        spec = NAMED_SWEEPS[name]
    except KeyError:
        raise KeyError(f"unknown sweep {name!r}; "
                       f"known: {sorted(NAMED_SWEEPS)}") from None
    return Sweep(runner=spec["runner"], axes=dict(axes or spec["axes"]),
                 fixed=dict(fixed or {}))

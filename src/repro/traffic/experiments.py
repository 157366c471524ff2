"""The ``fig_skew`` experiment: fabric degradation as skew concentrates
destinations.

The paper's irregularity question, pushed to where it bites in
production: hold the workload fixed (GUPS — the purest cannot-
aggregate-by-destination kernel) and sweep the *destination
distribution* from uniform through Zipf exponents to a hot-set
extreme, on both fabrics.  The Data Vortex deflects hotspot traffic
through its cylinders; the fat-tree model serialises it on the hot
node's links — so the DV/IB ratio should widen as the skew
concentrates, which is exactly what the table measures.

Every point is a module-level, keyword-only runner over primitives
(distribution registry name + params), so the grid pickles into pool
workers and memoises in the exec result cache like every other
experiment in the repo.  ``fig_skew`` is registered in
:data:`repro.core.experiments.REGISTRY`, golden-pinned at a small
config, and determinism-verified on every harness axis (see
docs/traffic.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.report import Table

__all__ = ["SKEW_EXPONENTS", "skew_levels", "skew_point", "skew_table"]

#: Default Zipf exponent axis: uniform (s=0) through head-dominated.
SKEW_EXPONENTS: Tuple[float, ...] = (0.0, 0.6, 1.2, 1.8)

#: The hot-set extreme appended after the Zipf sweep: a quarter of the
#: nodes absorb three quarters of the updates.
HOTSET_LEVEL: Dict[str, float] = {"hot_fraction": 0.25,
                                  "hot_mass": 0.75}


def skew_levels(exponents: Sequence[float] = SKEW_EXPONENTS,
                include_hotset: bool = True
                ) -> List[Tuple[str, Dict[str, float]]]:
    """The (distribution name, params) axis of the sweep."""
    levels: List[Tuple[str, Dict[str, float]]] = [
        ("zipf", {"exponent": float(s)}) for s in exponents]
    if include_hotset:
        levels.append(("hotset", dict(HOTSET_LEVEL)))
    return levels


def skew_point(*, dist: str, dist_params: Dict[str, float], fabric: str,
               nodes: int, seed: int = 2017,
               table_words: int = 1 << 12, n_updates: int = 1 << 9,
               window: int = 256) -> Dict[str, object]:
    """One (distribution, fabric) GUPS sample under shaped traffic.

    Module-level, keyword-only, primitives in and primitives out — the
    exec-cache/pool contract.  ``max_share`` is the hottest node's
    exact pmf mass (the sweep's skew coordinate).
    """
    from repro.kernels.gups import run_gups
    from repro.traffic.model import TrafficModel, model_from_names
    import repro.api as api

    model: TrafficModel = model_from_names(dist, dist_params)
    spec = api.build_cluster(n_nodes=nodes, seed=seed, traffic=model)
    r = run_gups(spec, fabric, table_words=table_words,
                 n_updates=n_updates, window=window)
    return {
        "traffic": model.dist.label(),
        "fabric": fabric,
        "nodes": nodes,
        "max_share": float(model.dist.pmf(nodes).max()),
        "mups_total": r["mups_total"],
        "mups_per_pe": r["mups_per_pe"],
        "elapsed_s": r["elapsed_s"],
    }


def skew_table(executor: Optional["Executor"] = None, *,
               nodes: int = 4, seed: int = 2017,
               exponents: Sequence[float] = SKEW_EXPONENTS,
               include_hotset: bool = True,
               table_words: int = 1 << 12, n_updates: int = 1 << 9,
               window: int = 256) -> Table:
    """The full sweep as a rendered table: one row per distribution,
    both fabrics side by side, points fanned through the executor."""
    from repro.exec import Executor
    executor = executor or Executor()
    levels = skew_levels(exponents, include_hotset)
    grid = [dict(dist=d, dist_params=p, fabric=f, nodes=int(nodes),
                 seed=int(seed), table_words=int(table_words),
                 n_updates=int(n_updates), window=int(window))
            for d, p in levels for f in ("dv", "mpi")]
    rows = executor.map(skew_point, grid, name="traffic.skew")
    by_key = {(r["traffic"], r["fabric"]): r for r in rows}
    t = Table("fig_skew: GUPS (MUPS) vs destination skew",
              ["traffic", "max_share", "dv_mups", "mpi_mups",
               "dv_over_mpi"])
    for d, p in levels:
        from repro.traffic.model import model_from_names
        label = model_from_names(d, p).dist.label()
        dv = by_key[(label, "dv")]
        ib = by_key[(label, "mpi")]
        t.add_row(label, dv["max_share"], dv["mups_total"],
                  ib["mups_total"],
                  dv["mups_total"] / ib["mups_total"])
    return t

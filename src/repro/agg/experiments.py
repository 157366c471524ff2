"""The ``fig_agg`` experiment: destination-coalescing vs fabric choice.

The paper's MPI numbers sink because irregular kernels pay per-message
software overhead on every tiny update; the Data Vortex was *designed*
for that traffic.  The obvious software rebuttal is aggregation —
coalesce updates per destination and amortise the overhead — so this
sweep asks the quantitative question: **at what (watermark, skew) does
an aggregated InfiniBand run catch the un-aggregated Data Vortex, and
where does the DV still win?**

Held fixed: GUPS with a small look-ahead window (64), the regime where
the legacy MPI path drowns in per-window messages.  Swept: the
destination distribution (PR 6's Zipf/hot-set levels) × the aggregation
watermark.  Each row compares three systems on identical update
streams: DV (no aggregation — its hardware *is* the aggregation),
plain IB, and IB + :class:`repro.agg.AggSpec`.  With the default
parameters the uniform row crosses over at watermark >= 1024 (~1.5x
DV) and the hot-set row at the largest watermark, while plain IB
stays ~5-10x behind everywhere; the steep Zipf rows never cross —
coalescing amortises per-message software overhead, but a hot
receiver serialises either way, so the crossover is a property of
the *traffic*, not just the watermark.

Every point is a module-level keyword-only runner over primitives, so
the grid pickles into pool workers and memoises in the exec result
cache.  ``fig_agg`` is registered in
:data:`repro.core.experiments.REGISTRY`, golden-pinned at a small
config, and determinism-verified across all five golden axes (see
docs/aggregation.md).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.core.report import Table

__all__ = ["AGG_WATERMARKS", "agg_point", "agg_table"]

#: Default watermark axis: near-off through the crossover regime.
AGG_WATERMARKS: Tuple[int, ...] = (64, 1024, 8192)

#: Default skew axis (Zipf exponents; the hot-set extreme rides along
#: unless disabled) — a subset of PR 6's :data:`SKEW_EXPONENTS`.
AGG_EXPONENTS: Tuple[float, ...] = (0.0, 1.2, 1.8)


def agg_point(*, dist: str, dist_params: Dict[str, float], fabric: str,
              watermark: int = 0, routing: str = "direct",
              timeout_s: Optional[float] = None, nodes: int = 8,
              seed: int = 2017, table_words: int = 1 << 10,
              n_updates: int = 1 << 12, window: int = 64
              ) -> Dict[str, object]:
    """One (distribution, fabric, watermark) GUPS sample.

    ``watermark=0`` turns aggregation off (the legacy per-window
    exchange, byte-identical to the pre-aggregation paths); any other
    value routes the same update stream through the
    :mod:`repro.agg` runtime.  Module-level, keyword-only, primitives
    in and primitives out — the exec-cache/pool contract.
    """
    from repro.agg.spec import AggSpec
    from repro.kernels.gups import run_gups
    from repro.traffic.model import TrafficModel, model_from_names
    import repro.api as api

    model: TrafficModel = model_from_names(dist, dist_params)
    agg = (None if watermark == 0 else
           AggSpec(watermark=int(watermark), timeout_s=timeout_s,
                   routing=routing))
    spec = api.build_cluster(n_nodes=nodes, seed=seed, traffic=model,
                             aggregation=agg)
    r = run_gups(spec, fabric, table_words=table_words,
                 n_updates=n_updates, window=window)
    out = {
        "traffic": model.dist.label(),
        "fabric": fabric,
        "watermark": int(watermark),
        "routing": routing,
        "nodes": nodes,
        "mups_total": r["mups_total"],
        "mups_per_pe": r["mups_per_pe"],
        "elapsed_s": r["elapsed_s"],
    }
    if agg is not None:
        out["message_ratio"] = r["agg"]["message_ratio"]
        out["messages_post"] = r["agg"]["messages_post"]
        out["forwarded_words"] = r["agg"]["forwarded_words"]
    return out


def agg_table(executor: Optional["Executor"] = None, *,
              nodes: int = 8, seed: int = 2017,
              exponents: Sequence[float] = AGG_EXPONENTS,
              include_hotset: bool = True,
              watermarks: Sequence[int] = AGG_WATERMARKS,
              routing: str = "direct",
              table_words: int = 1 << 10, n_updates: int = 1 << 12,
              window: int = 64) -> Table:
    """The watermark-by-skew sweep as a rendered table.

    One row per (distribution, watermark): the two un-aggregated
    fabrics are the fixed baselines, ``ib_agg_mups`` is the contender,
    and ``ib_agg_over_dv`` >= 1 marks the crossover.  Points fan
    through the executor (pool + result cache).
    """
    from repro.exec import Executor
    from repro.traffic.experiments import skew_levels
    executor = executor or Executor()
    levels = skew_levels(exponents, include_hotset)
    common = dict(nodes=int(nodes), seed=int(seed),
                  table_words=int(table_words),
                  n_updates=int(n_updates), window=int(window))
    grid = []
    for d, p in levels:
        grid.append(dict(dist=d, dist_params=p, fabric="dv",
                         watermark=0, **common))
        grid.append(dict(dist=d, dist_params=p, fabric="mpi",
                         watermark=0, **common))
        for wm in watermarks:
            grid.append(dict(dist=d, dist_params=p, fabric="mpi",
                             watermark=int(wm), routing=routing,
                             **common))
    rows = executor.map(agg_point, grid, name="agg.sweep")
    by_key = {(r["traffic"], r["fabric"], r["watermark"]): r
              for r in rows}
    t = Table("fig_agg: GUPS (MUPS) — aggregated IB vs Data Vortex",
              ["traffic", "watermark", "dv_mups", "ib_mups",
               "ib_agg_mups", "ib_agg_over_dv", "msg_ratio"])
    from repro.traffic.model import model_from_names
    for d, p in levels:
        label = model_from_names(d, p).dist.label()
        dv = by_key[(label, "dv", 0)]
        ib = by_key[(label, "mpi", 0)]
        for wm in watermarks:
            a = by_key[(label, "mpi", int(wm))]
            t.add_row(label, int(wm), dv["mups_total"],
                      ib["mups_total"], a["mups_total"],
                      a["mups_total"] / dv["mups_total"],
                      a["message_ratio"])
    return t

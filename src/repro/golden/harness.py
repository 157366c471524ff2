"""The determinism harness and the record/compare drivers.

This module generalises the per-feature differential tests that grew up
with the obs, exec, and faults layers (obs on/off bit-identity, serial
vs parallel pools, warm-cache equivalence, all-zero fault plans) into
**one driver**: every golden figure is re-run along six axes —

* ``workers`` — serial in-process vs a two-worker process pool,
* ``cache``  — cold run vs a warm re-run through a result cache,
* ``obs``    — metrics collection off vs on,
* ``faults`` — no fault plan vs an installed all-zero :class:`FaultPlan`,
* ``agg``    — the figure under a scoped :func:`repro.agg.session`
  aggregation override: two repeats must agree with each other
  bit-for-bit (seeded flush ordering), though kernels that
  consult the override legitimately diverge from the un-aggregated
  baseline,
* ``tenancy`` — the figure inside a
  :func:`repro.tenancy.shadow_session`: every ``run_spmd`` is routed
  through the co-scheduler as one full-width identity tenant, which
  must reproduce the untenanted path bit-for-bit (docs/tenancy.md)

— and every axis must reproduce its baseline table **bit-identically**
(exact policy, not the per-figure tolerance: these are same-process
guarantees, so even the last float bit must hold).  A divergence is
reported as the offending axis plus the cell-level diff and the seeds
involved, e.g.::

    fig6a / axis 'workers' (seed 2017): fig6a[row 1 (4), col
    'dv_total']: expected 326.65, got 326.66 — exact equality violated

The golden figure configs (:data:`GOLDEN_CONFIGS`) are deliberately
small — every figure finishes in well under a second — so the whole
harness rides in tier-1 CI on every push.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.api import _figure_point
from repro.core.report import Table
from repro.golden.policy import (CellDiff, FigPolicy, compare_tables,
                                 policy_for)
from repro.golden.store import GoldenStore

__all__ = [
    "GOLDEN_CONFIGS", "AXES", "AxisReport", "FigReport",
    "run_golden_fig", "run_goldens", "record_goldens",
    "compare_goldens", "check_axis", "run_harness",
]

#: Seed shared by every golden config (the paper's publication year,
#: like the rest of the harness) and by the all-zero fault plan.
GOLDEN_SEED = 2017

#: The small tier-1 figure configs the committed goldens cover.  Keys
#: are experiment ids from :data:`repro.core.experiments.REGISTRY`;
#: values are the runner kwargs.  fig3b/fig6b share fig3a/fig6a's
#: runner (they re-plot the same table), so only one of each pair is
#: snapshotted.
GOLDEN_CONFIGS: Dict[str, Dict[str, Any]] = {
    "fig3a": {"seed": GOLDEN_SEED, "sizes": (1, 8, 64, 512)},
    "fig4": {"seed": GOLDEN_SEED, "nodes": (2, 4, 8)},
    "fig6a": {"seed": GOLDEN_SEED, "nodes": (2, 4)},
    "fig7": {"seed": GOLDEN_SEED, "nodes": (2, 4)},
    "fig8": {"seed": GOLDEN_SEED, "nodes": (2,)},
    "fig9": {"seed": GOLDEN_SEED, "n_nodes": 4},
    # one small scale-out projection point: pins a 64-node flow
    # simulation into the golden set
    "fig_scaleout": {"seed": GOLDEN_SEED, "nodes": (64,),
                     "workloads": ("gups",)},
    # skewed-traffic sweep at a tiny config: pins the traffic layer's
    # shaped destination streams into the golden set
    "fig_skew": {"seed": GOLDEN_SEED, "nodes": 2,
                 "exponents": (0.0, 1.2), "include_hotset": True,
                 "table_words": 1 << 10, "n_updates": 1 << 8},
    # aggregation crossover sweep at a tiny config: pins the repro.agg
    # coalescing runtime (explicit AggSpecs inside the grid, so the
    # workers/cache axes exercise aggregated runs in worker
    # processes too)
    "fig_agg": {"seed": GOLDEN_SEED, "nodes": 2,
                "exponents": (0.0, 1.2), "include_hotset": True,
                "watermarks": (1, 64),
                "table_words": 1 << 10, "n_updates": 1 << 8},
    # a 4-pair slice of the interference matrix: pins the tenancy
    # co-scheduler (partitioned fabrics, per-tenant barriers, the
    # solo-baseline identity path) on both fabrics
    "fig_interference": {"seed": GOLDEN_SEED,
                         "pairs": (("gups", "fft"), ("fft", "gups"),
                                   ("bfs", "scan"), ("scan", "bfs"))},
}

#: The six determinism axes, in report order.  ``agg`` is special:
#: its candidates are compared against *each other*, not the shared
#: baseline (see :func:`check_axis`).
AXES: Tuple[str, ...] = ("workers", "cache", "obs", "faults", "agg",
                         "tenancy")


def _config_for(fig: str,
                overrides: Optional[Mapping[str, Any]] = None
                ) -> Dict[str, Any]:
    if fig not in GOLDEN_CONFIGS:
        raise KeyError(
            f"no golden config for {fig!r}; known: "
            f"{', '.join(sorted(GOLDEN_CONFIGS))}")
    cfg = dict(GOLDEN_CONFIGS[fig])
    if overrides:
        cfg.update(overrides)
    return cfg


def run_golden_fig(fig: str, executor: Optional["Executor"] = None,
                   **overrides: Any) -> Table:
    """One golden figure at its small config (through an Executor when
    given, so ``--workers``/``--cache`` apply)."""
    params = _config_for(fig, overrides)
    if executor is None:
        return _figure_point(fig, **params)
    return executor.call(_figure_point, name="golden.figure",
                         fig=fig, **params)


def run_goldens(figs: Optional[Iterable[str]] = None,
                executor: Optional["Executor"] = None
                ) -> Dict[str, Table]:
    """All requested golden figures, fanned across the executor's pool
    (each figure is one point)."""
    from repro.exec import Executor
    figs = list(figs) if figs else sorted(GOLDEN_CONFIGS)
    grid = [{"fig": f, **_config_for(f)} for f in figs]
    executor = executor or Executor()
    tables = executor.map(_figure_point, grid, name="golden.figure")
    return dict(zip(figs, tables))


# ---------------------------------------------------------- record mode ---

def record_goldens(store: GoldenStore,
                   figs: Optional[Iterable[str]] = None,
                   executor: Optional["Executor"] = None
                   ) -> Dict[str, str]:
    """Compute and store goldens; returns ``{fig: path_written}``."""
    tables = run_goldens(figs, executor)
    return {
        fig: store.record(fig, _config_for(fig), table,
                          meta={"policy": _policy_meta(fig)})
        for fig, table in tables.items()
    }


def _policy_meta(fig: str) -> Dict[str, str]:
    pol = policy_for(fig)
    meta = {"default": pol.default.describe()}
    meta.update({c: t.describe() for c, t in sorted(pol.columns.items())})
    return meta


# --------------------------------------------------------- compare mode ---

@dataclass
class FigReport:
    """Outcome of comparing one recomputed figure against its golden."""

    fig: str
    params: Dict[str, Any]
    ok: bool
    missing: bool = False
    diffs: List[CellDiff] = field(default_factory=list)

    def describe(self) -> str:
        if self.missing:
            return (f"{self.fig}: NO GOLDEN recorded for this "
                    f"params/version identity — run "
                    f"`repro verify --record` and commit goldens/")
        if self.ok:
            return f"{self.fig}: ok"
        lines = [f"{self.fig}: {len(self.diffs)} cell(s) out of "
                 f"tolerance"]
        lines += [f"  {d.describe()}" for d in self.diffs]
        return "\n".join(lines)


def compare_goldens(store: GoldenStore,
                    figs: Optional[Iterable[str]] = None,
                    executor: Optional["Executor"] = None
                    ) -> List[FigReport]:
    """Recompute the golden figures and compare cell-by-cell under each
    figure's tolerance policy."""
    tables = run_goldens(figs, executor)
    reports: List[FigReport] = []
    for fig, actual in tables.items():
        params = _config_for(fig)
        expected, _entry = store.load(fig, params)
        if expected is None:
            reports.append(FigReport(fig, params, ok=False,
                                     missing=True))
            continue
        diffs = compare_tables(fig, expected, actual)
        reports.append(FigReport(fig, params, ok=not diffs,
                                 diffs=diffs))
    return reports


# --------------------------------------------------- determinism harness ---

@dataclass
class AxisReport:
    """Outcome of one (figure, axis) bit-identity check."""

    fig: str
    axis: str
    seed: int
    ok: bool
    diffs: List[CellDiff] = field(default_factory=list)
    note: str = ""

    def describe(self) -> str:
        head = f"{self.fig} / axis {self.axis!r} (seed {self.seed})"
        if self.ok:
            return f"{head}: bit-identical"
        lines = [f"{head}: {'DIVERGED' if self.diffs else 'FAILED'}"]
        lines += [f"  {d.describe()}" for d in self.diffs]
        if self.note:
            lines.append(f"  {self.note}")
        return "\n".join(lines)


_EXACT_POLICY = FigPolicy()      # bit-identity for every axis


def _pid_golden_point(fig: str, **params: Any) -> Tuple[int, Table]:
    """:func:`_figure_point` and the id of the process that ran it."""
    return os.getpid(), _figure_point(fig, **params)


def _axis_workers(fig: str,
                  params: Dict[str, Any]) -> List[Tuple[int, Table]]:
    """The figure computed twice inside a two-worker process pool
    (two points so the pool path is actually exercised — a single
    point falls back to serial dispatch), each with the id of the
    process that ran it."""
    from repro.exec import Executor
    point = {"fig": fig, **params}
    return Executor(workers=2).map(_pid_golden_point, [point, dict(point)],
                                   name="golden.axis.workers")


def _axis_cache(fig: str, params: Dict[str, Any],
                cache_dir: str) -> List[Table]:
    """Cold run (fills the cache) then a warm run (must be served from
    it) through two independent executors sharing one cache dir."""
    from repro.exec import Executor, ResultCache
    point = {"fig": fig, **params}
    cold_cache = ResultCache(cache_dir)
    cold = Executor(cache=cold_cache).map(_figure_point, [point],
                                          name="golden.axis.cache")
    warm_cache = ResultCache(cache_dir)
    warm = Executor(cache=warm_cache).map(_figure_point, [dict(point)],
                                          name="golden.axis.cache")
    if warm_cache.hits == 0:
        raise AssertionError(
            f"{fig}: warm re-run did not hit the cache "
            f"(cache identity unstable for these params)")
    return [cold[0], warm[0]]


def _axis_obs(fig: str, params: Dict[str, Any]) -> List[Table]:
    from repro.obs import registry as obsreg
    with obsreg.session(True):
        return [_figure_point(fig, **params)]


def _axis_faults(fig: str, params: Dict[str, Any]) -> List[Table]:
    from repro import faults
    from repro.faults import FaultPlan
    with faults.session(FaultPlan(seed=GOLDEN_SEED)):   # all-zero plan
        return [_figure_point(fig, **params)]


def _axis_agg(fig: str, params: Dict[str, Any]) -> List[Table]:
    """The figure under a scoped aggregation session, run twice.
    Kernels that consult :func:`repro.agg.resolve_spec` legitimately
    produce *different* tables from the un-aggregated baseline
    (coalescing changes message timing), so this axis demands
    bit-identity between the two aggregated runs — seeded flush
    ordering must hold across repeat runs.  Figures whose kernels
    ignore aggregation simply reproduce the baseline twice."""
    from repro import agg
    from repro.agg import AggSpec
    with agg.session(AggSpec(watermark=64)):
        return [_figure_point(fig, **params) for _ in range(2)]


def _axis_tenancy(fig: str, params: Dict[str, Any]) -> List[Table]:
    """The figure inside a tenancy shadow session: every run_spmd in
    the figure executes through the co-scheduler as a single full-width
    identity tenant.  The contract is bit-identity with the untenanted
    serial baseline — the partition views, per-tenant barriers, and
    translated payloads must be invisible at full width."""
    from repro import tenancy
    with tenancy.shadow_session():
        return [_figure_point(fig, **params)]


def check_axis(fig: str, axis: str, baseline: Optional[Table] = None,
               cache_dir: Optional[str] = None,
               **overrides: Any) -> AxisReport:
    """Run one figure along one axis and demand bit-identity with the
    serial / uncached / obs-off / fault-free baseline."""
    if axis not in AXES:
        raise KeyError(f"unknown axis {axis!r}; known: {AXES}")
    params = _config_for(fig, overrides)
    seed = int(params.get("seed", GOLDEN_SEED))
    if baseline is None and axis != "agg":
        baseline = _figure_point(fig, **params)
    if axis == "workers":
        ran = _axis_workers(fig, params)
        if any(pid == os.getpid() for pid, _ in ran):
            return AxisReport(fig, axis, seed, ok=False, note=(
                "the process pool fell back to serial dispatch: a point "
                "ran in this process, so the axis exercised no worker"))
        candidates = [table for _, table in ran]
    elif axis == "cache":
        import tempfile
        if cache_dir is not None:
            candidates = _axis_cache(fig, params, cache_dir)
        else:
            with tempfile.TemporaryDirectory() as tmp:
                candidates = _axis_cache(fig, params, tmp)
    elif axis == "obs":
        candidates = _axis_obs(fig, params)
    elif axis == "tenancy":
        candidates = _axis_tenancy(fig, params)
    elif axis == "agg":
        candidates = _axis_agg(fig, params)
        # aggregation may legitimately shift results away from the
        # un-aggregated baseline; the axis contract is bit-identity
        # among the aggregated runs themselves
        baseline = candidates[0]
        candidates = candidates[1:]
    else:
        candidates = _axis_faults(fig, params)
    diffs: List[CellDiff] = []
    note = ""
    for cand in candidates:
        diffs = compare_tables(fig, baseline, cand,
                               policy=_EXACT_POLICY)
        if diffs:
            if axis == "faults":
                note = (f"all-zero FaultPlan(seed={GOLDEN_SEED}) "
                        f"perturbed the run")
            break
    return AxisReport(fig, axis, seed, ok=not diffs, diffs=diffs,
                      note=note)


def run_harness(figs: Optional[Iterable[str]] = None,
                axes: Optional[Iterable[str]] = None
                ) -> List[AxisReport]:
    """The full determinism sweep: every figure along every axis.

    The baseline for each figure is computed once and shared by its
    axes, so a figure costs ``1 + len(axes)`` runs (+1 for the warm
    cache re-run, which is nearly free)."""
    figs = list(figs) if figs else sorted(GOLDEN_CONFIGS)
    axes = list(axes) if axes else list(AXES)
    reports: List[AxisReport] = []
    for fig in figs:
        params = _config_for(fig)
        baseline = _figure_point(fig, **params)
        for axis in axes:
            reports.append(check_axis(fig, axis, baseline=baseline))
    return reports

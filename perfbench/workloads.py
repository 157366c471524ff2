"""The four benchmark workloads: what one operation runs and what it
returns for checking.

Every workload calls the simulator's public entry points
(``repro.kernels.run_gups``, ``run_fft1d``,
``repro.golden.harness.compare_goldens``) once per operation, in the
calling process: no pool workers, no PDES shards.

An operation's *fingerprint* is the simulated result it must reproduce
exactly: simulated ``elapsed_s`` and MUPS/GFLOPS for the kernels, the
per-figure golden verdicts for ``paper_figs``.  Host time never enters
a fingerprint.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

#: The seed of the kernel fingerprints pinned in ``pinned.json``; every
#: run checks one untimed operation at this seed against its pin.
DEFAULT_SEED = 2017

#: The tiny ``paper_figs`` run compares the golden figures that are
#: cheap at their golden config, and runs the others, uncompared, at
#: these smaller parameters, so that it touches every figure's code.
_TINY_FIG_PARAMS: Dict[str, Dict[str, Any]] = {
    "fig7": {"nodes": (2,)},
    "fig9": {"n_nodes": 2},
    "fig_interference": {"pairs": (("gups", "fft"),)},
    "fig_scaleout": {"nodes": (8,)},
}
_CHEAP_FIGS = ("fig3a", "fig4", "fig6a", "fig8", "fig_agg", "fig_skew")


Op = Callable[[int], Tuple[bool, List[Any]]]


@dataclass(frozen=True)
class Workload:
    """One workload: its timed operation and a tiny twin of it."""

    #: ``op(seed) -> (valid, fingerprint)``; runs the simulation once.
    op: Op
    #: The same operation at a size that runs in about a second or
    #: less: the untimed warm-up, and what the smoke test times.
    tiny: Op


# ------------------------------------------------------------- kernels ---

def _gups(fabric: str, n_nodes: int, table_words: int, n_updates: int
          ) -> Op:
    def op(seed: int) -> Tuple[bool, List[Any]]:
        from repro.core.cluster import ClusterSpec
        from repro.kernels import run_gups
        spec = ClusterSpec(n_nodes=n_nodes, seed=seed, flow_impl="fast")
        res = run_gups(spec, fabric, table_words=table_words,
                       n_updates=n_updates, validate=True)
        return bool(res["valid"]), [res["elapsed_s"], res["mups_total"]]
    return op


def _fft(n_nodes: int, log2_points: int) -> Op:
    def op(seed: int) -> Tuple[bool, List[Any]]:
        from repro.core.cluster import ClusterSpec
        from repro.kernels import run_fft1d
        spec = ClusterSpec(n_nodes=n_nodes, seed=seed, flow_impl="fast")
        res = run_fft1d(spec, "mpi", log2_points=log2_points,
                        validate=True)
        return bool(res["valid"]), [res["elapsed_s"], res["gflops"]]
    return op


# --------------------------------------------------------- golden figs ---

def _golden_dir() -> str:
    return os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "goldens")


def _figs() -> Op:
    """The ten golden figures run serially and compared against
    ``goldens/``; each operation loads the goldens it compares.

    The goldens pin every figure's inputs, its seed included, so this
    operation takes nothing from ``seed``.
    """
    def op(seed: int) -> Tuple[bool, List[Any]]:
        from repro.exec import Executor
        from repro.golden.harness import GOLDEN_CONFIGS, compare_goldens
        from repro.golden.store import GoldenStore
        reports = compare_goldens(GoldenStore(_golden_dir()),
                                  figs=sorted(GOLDEN_CONFIGS),
                                  executor=Executor(workers=1))
        ok = (len(reports) == len(GOLDEN_CONFIGS)
              and all(r.ok for r in reports))
        return ok, [[r.fig, r.ok] for r in reports]
    return op


def _tiny_figs(seed: int) -> Tuple[bool, List[Any]]:
    """Every golden figure once, the costly ones at small parameters."""
    from repro.exec import Executor
    from repro.golden.harness import compare_goldens, run_golden_fig
    from repro.golden.store import GoldenStore
    executor = Executor(workers=1)
    reports = compare_goldens(GoldenStore(_golden_dir()),
                              figs=_CHEAP_FIGS, executor=executor)
    fingerprint: List[Any] = [[r.fig, r.ok] for r in reports]
    for fig, params in sorted(_TINY_FIG_PARAMS.items()):
        table = run_golden_fig(fig, executor=executor, **params)
        fingerprint.append([fig, repr(table.rows)])
    ok = (len(reports) == len(_CHEAP_FIGS)
          and all(r.ok for r in reports))
    return ok, fingerprint


# ------------------------------------------------------------ registry ---

_TINY_GUPS = dict(n_nodes=8, table_words=1 << 10, n_updates=1 << 8)

WORKLOADS: Dict[str, Workload] = {
    "gups_mpi": Workload(_gups("mpi", 128, 1 << 12, 1 << 10),
                         _gups("mpi", **_TINY_GUPS)),
    "gups_dv": Workload(_gups("dv", 128, 1 << 12, 1 << 12),
                        _gups("dv", **_TINY_GUPS)),
    "fft_bulk": Workload(_fft(16, 22), _fft(4, 14)),
    "paper_figs": Workload(_figs(), _tiny_figs),
}

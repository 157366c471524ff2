"""Per-layer view of one traced operation.

Self time comes from ``cProfile`` and is folded by module into the
simulator's layers (:data:`LAYERS`).  A C-level call (a numpy ufunc,
``heapq``, a generator's ``send``) has no module of its own, so its self
time is charged to the layer of the Python function that called it.

Counts come from the ``repro.obs`` registry the traced operation ran
under, and from the profiler's exact call counts of three functions.
Every count repeats exactly between two traced runs of one workload
and seed; :data:`COUNT_METRICS` names them.
"""

from __future__ import annotations

import sys
from typing import Dict, Tuple

#: Module-name prefix -> layer, most specific first.  A module that
#: matches none of them is charged to ``other`` (the standard library,
#: ``repro.obs``, ``repro.faults``, ``repro.api``, ...).
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.ib.mpi", "ib.mpi"),
    ("repro.ib.collectives", "ib.mpi"),
    ("repro.ib", "ib.fabric"),
    ("repro.sim", "sim"),
    ("repro.dv", "dv"),
    ("repro.kernels", "kernels"),
    ("repro.apps", "apps"),
    ("repro.tenancy", "tenancy"),
    ("repro.agg", "agg"),
    ("repro.traffic", "traffic"),
    ("repro.golden", "golden"),
    ("repro.exec", "exec"),
    ("repro.core", "core"),
    ("numpy", "numpy"),
)

LAYER_NAMES: Tuple[str, ...] = tuple(
    dict.fromkeys(layer for _, layer in LAYERS)) + ("other",)

#: Profiler call counts reported as metrics: (module, function) -> name.
CALL_COUNTS: Dict[Tuple[str, str], str] = {
    ("repro.sim.process", "_resume"): "sim.process_resumes",
    ("repro.ib.mpi", "_matches"): "ib.mpi.match_probes",
    ("repro.core.cluster", "run_spmd"): "core.run_spmd_calls",
}

#: obs counters reported as metrics (summed over their labels).
OBS_COUNTERS: Dict[str, str] = {
    "sim.engine.events": "sim.events",
    "ib.mpi.sends": "ib.mpi.sends",
    "ib.mpi.recvs": "ib.mpi.recvs",
    "ib.fabric.messages": "ib.fabric.messages",
    "ib.fabric.bytes": "ib.fabric.bytes",
    "dv.flow.transfers": "dv.flow.transfers",
    "dv.flow.packets": "dv.flow.packets",
    "dv.vic.packets_received": "dv.vic.packets_received",
}

#: obs histograms reported by their sum, in simulated seconds.
OBS_WAITS: Tuple[str, ...] = ("ib.fabric.queue_wait_s",
                              "dv.flow.injection_wait_s")

#: Metrics that must repeat exactly between two traced runs.
COUNT_METRICS: Tuple[str, ...] = (
    tuple(CALL_COUNTS.values()) + tuple(OBS_COUNTERS.values()) + OBS_WAITS)


def layer_of(module: str) -> str:
    for prefix, layer in LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def _module_by_file() -> Dict[str, str]:
    out = {}
    for name, mod in list(sys.modules.items()):
        path = getattr(mod, "__file__", None)
        if path:
            out[path] = name
    return out


def fold_profile(stats: dict) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self seconds per layer and the :data:`CALL_COUNTS`, from a
    ``cProfile.Profile().stats`` mapping
    ``(file, line, func) -> (cc, nc, tt, ct, callers)``."""
    modules = _module_by_file()

    def module_of(key) -> str:
        return modules.get(key[0], "")

    builtin_layer: Dict[tuple, str] = {}

    def layer_for(key, seen=()) -> str:
        """Layer of a Python function, or of a C function's main caller."""
        if key[0] != "~":
            return layer_of(module_of(key))
        if key in builtin_layer:
            return builtin_layer[key]
        callers = stats[key][4]
        layer = "other"
        if callers and key not in seen:
            top = max(callers, key=lambda c: callers[c][2])
            layer = layer_for(top, seen + (key,))
        builtin_layer[key] = layer
        return layer

    self_s = dict.fromkeys(LAYER_NAMES, 0.0)
    counts = dict.fromkeys(CALL_COUNTS.values(), 0)
    for key, (_cc, nc, tt, _ct, callers) in stats.items():
        if key[0] == "~" and callers:
            # charge each calling edge's share to the caller's layer
            for caller, edge in callers.items():
                self_s[layer_for(caller, (key,))] += edge[2]
        else:
            self_s[layer_for(key)] += tt
        name = CALL_COUNTS.get((module_of(key), key[2]))
        if name:
            counts[name] += nc
    return self_s, counts


def obs_counts(registry) -> Dict[str, float]:
    """The :data:`OBS_COUNTERS` and :data:`OBS_WAITS` of one run."""
    out: Dict[str, float] = {
        name: registry.total(series)
        for series, name in OBS_COUNTERS.items()}
    for name in OBS_WAITS:
        out[name] = sum(m.total for m in registry
                        if m.name == name and m.kind == "histogram")
    return out

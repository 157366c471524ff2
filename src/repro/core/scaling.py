"""Scale-up study — the validation the paper's §IX leaves as future work.

The paper argues that Data Vortex network properties should be preserved
when scaling up: "Each doubling of nodes would add an additional
'cylinder' to the Data Vortex Switch ... Those additional hops through
the switch structure would (minimally) increase latency but should not
change overall throughput per node.  Developing and validating such a
simulation is beyond the scope of this paper."

This module develops exactly that simulation, at two levels:

* :func:`switch_scaling` — cycle-accurate switches from 16 to 256+
  ports under saturating uniform-random load: measures mean latency
  (expected: + ~1 hop per doubling) and per-port drain throughput
  (expected: flat);
* :func:`scaleout_sweep` — the full cluster projection: GUPS, BFS and
  FFT on **both** fabrics from 64 up to 1024 nodes, riding the
  vectorised flow engines (:mod:`repro.dv.flow` / :mod:`repro.ib.fabric`)
  that make thousand-node flow simulation tractable.  Points fan across
  an :class:`~repro.exec.Executor` pool and memoise in its cache; a
  :class:`~repro.faults.FaultPlan` can be installed per point (plans
  are applied *inside* the point so they survive the trip into pool
  workers).
"""

from __future__ import annotations

import inspect
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.cluster import ClusterSpec
from repro.dv.switch import CycleSwitch
from repro.dv.topology import DataVortexTopology


@dataclass
class SwitchScalePoint:
    """One switch size in the cycle-accurate scaling study."""

    ports: int
    cylinders: int
    mean_latency_cycles: float
    mean_hops: float
    mean_deflections: float
    throughput_per_port: float    #: packets/cycle/port sustained
    drain_cycles: int


def switch_scale_point(height: int, angles: int = 2, per_port: int = 64,
                       seed: int = 7) -> Dict[str, float]:
    """One switch size under saturating uniform-random load.

    A module-level runner so the scaling grid pickles into pool workers
    and caches; the RNG is seeded per point (from ``seed`` and the
    point's parameters), making every point's result independent of
    which process computes it or in what order.
    """
    rng = random.Random(f"{seed}|{height}|{angles}|{per_port}")
    topo = DataVortexTopology(height=height, angles=angles)
    sw = CycleSwitch(topo)
    for src in range(topo.ports):
        for _ in range(per_port):
            sw.inject(src, rng.randrange(topo.ports))
    sw.run_until_drained(max_cycles=10_000_000)
    total = per_port * topo.ports
    return {
        "ports": topo.ports,
        "cylinders": topo.cylinders,
        "mean_latency_cycles": sw.stats.mean_latency_cycles,
        "mean_hops": sw.stats.mean_hops,
        "mean_deflections": sw.stats.mean_deflections,
        "throughput_per_port": total / sw.cycle / topo.ports,
        "drain_cycles": sw.cycle,
    }


def switch_scaling(heights: Sequence[int] = (8, 16, 32, 64, 128),
                   angles: int = 2, per_port: int = 64,
                   seed: int = 7,
                   executor: Optional["Executor"] = None
                   ) -> List[SwitchScalePoint]:
    """Cycle-accurate study of the switch across sizes.

    Every port injects ``per_port`` packets at uniformly random
    destinations; the switch runs until drained.  Points are
    independent, so an :class:`~repro.exec.Executor` with workers/cache
    fans them out; the returned order always follows ``heights``.
    """
    from repro.exec import Executor
    executor = executor or Executor()
    grid = [{"height": h, "angles": angles, "per_port": per_port,
             "seed": seed} for h in heights]
    rows = executor.map(switch_scale_point, grid)
    return [SwitchScalePoint(**row) for row in rows]


def verify_scaling_claim(points: List[SwitchScalePoint],
                         latency_slack_hops: float = 4.0,
                         throughput_tolerance: float = 0.35) -> Dict:
    """Check §IX's prediction against the measurements.

    * latency grows by roughly one hop per doubling (within slack);
    * per-port throughput varies by less than ``throughput_tolerance``
      across all sizes.

    Returns a summary dict; raises AssertionError when the claim fails.
    """
    for a, b in zip(points, points[1:]):
        grew = b.mean_hops - a.mean_hops
        added_cylinders = b.cylinders - a.cylinders
        if not (0 < grew <= added_cylinders + latency_slack_hops):
            raise AssertionError(
                f"latency growth {grew:.2f} hops from {a.ports} to "
                f"{b.ports} ports outside expectations")
    rates = [p.throughput_per_port for p in points]
    spread = (max(rates) - min(rates)) / max(rates)
    if spread > throughput_tolerance:
        raise AssertionError(
            f"per-port throughput varies {spread:.0%} across sizes — "
            f"the flat-throughput claim fails")
    return {
        "hops_per_doubling": [
            b.mean_hops - a.mean_hops for a, b in zip(points, points[1:])],
        "throughput_spread": spread,
    }


# ------------------------------------------------- scale-out projection ---

#: Node counts of the cluster projection (§IX extended to a full rack
#: row: five doublings past the 32-node testbed).
SCALEOUT_NODES = (64, 128, 256, 512, 1024)

#: Workloads of the projection — the paper's three irregular kernels.
SCALEOUT_WORKLOADS = ("gups", "bfs", "fft")

SCALEOUT_FABRICS = ("dv", "mpi")


def scaleout_params(workload: str, n_nodes: int) -> Dict[str, int]:
    """Default kernel parameters for one projection point.

    Weak scaling, shrunk so the full 64-to-1024-node sweep stays
    tractable on a laptop: GUPS keeps a fixed per-node table and update
    count; BFS grows the Kronecker scale with ``log2(P)`` (constant
    vertices per node); FFT holds the smallest problem the four-step
    factorisation admits at each node count (``n1`` and ``n2`` must both
    divide by ``P``).
    """
    if workload == "gups":
        return {"table_words": 1 << 12, "n_updates": 1 << 7,
                "window": 256}
    if workload == "bfs":
        return {"scale": 6 + int(math.log2(n_nodes)), "n_roots": 1}
    if workload == "fft":
        return {"log2_points": max(16, 2 * math.ceil(math.log2(n_nodes)))}
    raise ValueError(f"unknown scale-out workload {workload!r}; "
                     f"known: {SCALEOUT_WORKLOADS}")


def _kernel(workload: str):
    from repro.kernels import run_bfs, run_fft1d, run_gups
    return {"gups": run_gups, "bfs": run_bfs, "fft": run_fft1d}[workload]


def scaleout_point(workload: str, fabric: str, n_nodes: int,
                   seed: int = 2017,
                   plan: Optional["FaultPlan"] = None,
                   **overrides) -> Dict[str, float]:
    """One (workload, fabric, node-count) projection point.

    Module-level and seeded from its own parameters so the grid pickles
    into pool workers and memoises in the result cache.  ``plan`` (a
    :class:`~repro.faults.FaultPlan`) is installed around the kernel run
    *here*, inside the point, so fault studies work identically under a
    serial executor and a process pool.  Returns ``per_pe`` and
    ``total`` in the workload's natural rate unit (MUPS, MTEPS or
    GFLOPS) plus the simulated ``elapsed_s``.
    """
    from repro import faults

    params = scaleout_params(workload, n_nodes)
    params.update(overrides)
    spec = ClusterSpec(n_nodes=n_nodes, seed=seed)
    with faults.session(plan) if plan is not None else _null():
        r = _kernel(workload)(spec, fabric, **params)
    if workload == "gups":
        per_pe, total = r["mups_per_pe"], r["mups_total"]
    else:
        total = (r["harmonic_teps"] / 1e6 if workload == "bfs"
                 else r["gflops"])
        per_pe = total / n_nodes
    return {"workload": workload, "fabric": fabric, "nodes": n_nodes,
            "per_pe": per_pe, "total": total,
            "elapsed_s": r["elapsed_s"]}


class _null:
    """Minimal no-op context (``contextlib.nullcontext`` without the
    import at module scope)."""

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


def scaleout_sweep(workloads: Sequence[str] = SCALEOUT_WORKLOADS,
                   nodes: Sequence[int] = SCALEOUT_NODES,
                   fabrics: Sequence[str] = SCALEOUT_FABRICS,
                   seed: int = 2017,
                   plan: Optional["FaultPlan"] = None,
                   executor: Optional["Executor"] = None,
                   **overrides) -> List[Dict[str, float]]:
    """The cluster projection grid: workloads x nodes x fabrics.

    Fans every point across the executor's worker pool and memoises in
    its cache (each point's identity is its full parameter set, so a
    re-run of an already-swept grid performs zero simulation work).
    Returns one row dict per point, ordered workload-major then
    node-count then fabric.  The full default grid — three workloads,
    five node counts to 1024, both fabrics — is long serial; use
    ``Executor(workers=N)`` to spread it.  On a shared 2-CPU host the
    GUPS points took (wall times vary by about 20 % run to run;
    docs/scaling.md gives each memory change's before and after):

    ============== ============= ==================
    point          wall (s)      peak RSS (MB)
    ============== ============= ==================
    GUPS DV, 512   4.4           177
    GUPS DV, 1024  20.4          522
    GUPS MPI, 512  7.9           202
    GUPS MPI, 1024 38.6          663
    ============== ============= ==================

    BFS at 1024 nodes took 98.7 s and 992 MB over DV and 111.7 s and
    1.10 GB over MPI, each measured once while other jobs shared the
    host (docs/scaling.md).
    """
    from repro.exec import Executor
    # reject a key some requested kernel does not take before any
    # point runs (inside the pool it would surface as a TypeError)
    for w in workloads:
        scaleout_params(w, 1)           # unknown workload: ValueError
        takes = inspect.signature(_kernel(w)).parameters
        for key in overrides:
            if (key not in takes
                    or takes[key].kind is not inspect.Parameter.KEYWORD_ONLY):
                raise ValueError(f"scale-out workload {w!r} takes no "
                                 f"parameter {key!r}")
    executor = executor or Executor()
    grid = [{"workload": w, "fabric": f, "n_nodes": n, "seed": seed,
             "plan": plan, **overrides}
            for w in workloads for n in nodes for f in fabrics]
    return executor.map(scaleout_point, grid, name="scaling.scaleout")

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
* :func:`cluster_scaling` — flow-level clusters beyond the paper's 32
  nodes running the barrier and GUPS kernels, checking that the flat
  barrier and per-PE GUPS curves extend;
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

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.cluster import ClusterSpec
from repro.dv.fastswitch import FastCycleSwitch
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
    sw = FastCycleSwitch(topo)
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


def cluster_scale_point(n_nodes: int, seed: int = 2017
                        ) -> Dict[str, float]:
    """One flow-level cluster size: DV barrier latency + GUPS per PE."""
    from repro.kernels.barrier_bench import run_barrier_bench
    from repro.kernels.gups import run_gups

    spec = ClusterSpec(n_nodes=n_nodes, seed=seed)
    barrier = run_barrier_bench(spec, "dv", iters=8)
    gups = run_gups(spec, "dv", table_words=1 << 12, n_updates=1 << 11)
    return {
        "barrier_us": barrier["latency_us"],
        "gups_mups_per_pe": gups["mups_per_pe"],
    }


def cluster_scaling(node_counts: Sequence[int] = (8, 16, 32, 64, 128),
                    seed: int = 2017,
                    executor: Optional["Executor"] = None
                    ) -> Dict[int, Dict[str, float]]:
    """Flow-level extrapolation beyond the paper's 32 nodes.

    For each cluster size, measures the DV hardware-barrier latency and
    the DV GUPS per-PE rate (weak scaling).  The §IX claim extends the
    paper's Fig. 4 and Fig. 6a flatness to larger machines.
    """
    from repro.exec import Executor
    executor = executor or Executor()
    grid = [{"n_nodes": n, "seed": seed} for n in node_counts]
    rows = executor.map(cluster_scale_point, grid)
    return {n: row for n, row in zip(node_counts, rows)}


# ---------------------------------------------------- PDES partitioning ---

def partition_ports(n_nodes: int, shards: int, *, fabric: str = "dv",
                    dv: Optional["DVConfig"] = None,
                    ib: Optional["IBConfig"] = None) -> np.ndarray:
    """Topology-aware node → shard assignment for the PDES runner.

    Ports that share switch structure stay together: on the Data Vortex
    the unit is the cylinder *height* (the ``angles`` ports of one
    height row enter the switch together — see
    :class:`~repro.dv.topology.DataVortexTopology.port_coord`); on the
    fat tree it is the leaf switch (``leaf_size`` nodes per leaf).
    Units are split into ``shards`` contiguous, balanced runs.

    The assignment is a pure function of ``(n_nodes, shards,
    angles-or-leaf_size)`` — independent of which ranks run what — so
    it is stable under program-level relabelling (the property the
    partitioner edge-case tests pin).  ``shards`` may exceed the unit
    count, in which case trailing shards own no ports (the runner
    simply has nothing to run there).

    Returns an int64 array of length ``n_nodes``: ``shard_of[port]``.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if fabric == "dv":
        from repro.dv.config import DVConfig
        cfg = (dv or DVConfig()).scaled_to_ports(n_nodes)
        unit = cfg.angles
    elif fabric in ("ib", "mpi"):
        from repro.ib.config import IBConfig
        unit = (ib or IBConfig()).leaf_size
    else:
        raise ValueError(f'fabric must be "dv" or "mpi", got {fabric!r}')
    ports = np.arange(n_nodes, dtype=np.int64)
    groups = ports // unit
    n_groups = int(groups[-1]) + 1
    eff = min(shards, n_groups)
    return (groups * eff) // n_groups


def dv_lookahead_s(config: "DVConfig", n_ports: int) -> float:
    """Conservative PDES lookahead for the DV flow model.

    Every first arrival satisfies ``first_arrival = inj_start + gap +
    (hops + penalty) * hop`` with ``inj_start >= now``, ``gap >= hop``
    and ``penalty >= 0``, so the minimum cross-port latency is
    ``(1 + min_hops) * hop`` — the window width within which shards
    cannot affect each other.
    """
    from repro.dv.flow import hop_table
    cfg = config.scaled_to_ports(n_ports)
    topo = DataVortexTopology(height=cfg.height, angles=cfg.angles)
    return cfg.hop_time_s * (1 + int(hop_table(topo, n_ports).min()))


def ib_lookahead_s(config: "IBConfig") -> float:
    """Conservative PDES lookahead for the IB fabric.

    ``arrival = start + occupancy + wire + hops*hop_lat`` with
    ``start >= now``, ``occupancy >= msg_gap`` and ``hops >= 2``.
    """
    return (config.msg_gap_s + config.wire_latency_s
            + 2 * config.hop_latency_s)


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


def scaleout_point(workload: str, fabric: str, n_nodes: int,
                   seed: int = 2017,
                   plan: Optional["FaultPlan"] = None, shards: int = 1,
                   **overrides) -> Dict[str, float]:
    """One (workload, fabric, node-count) projection point.

    Module-level and seeded from its own parameters so the grid pickles
    into pool workers and memoises in the result cache.  ``plan`` (a
    :class:`~repro.faults.FaultPlan`) is installed around the kernel run
    *here*, inside the point, so fault studies work identically under a
    serial executor and a process pool.  ``shards > 1`` runs the point
    on the multi-process PDES engine (:mod:`repro.sim.pdes`) —
    bit-identical results, wall-clock divided across cores.  Returns
    ``per_pe`` and ``total`` in the workload's natural rate unit (MUPS,
    MTEPS or GFLOPS) plus the simulated ``elapsed_s``.
    """
    from repro import faults
    from repro.kernels import run_bfs, run_fft1d, run_gups

    params = scaleout_params(workload, n_nodes)
    params.update(overrides)
    spec = ClusterSpec(n_nodes=n_nodes, seed=seed, shards=shards)
    with faults.session(plan) if plan is not None else _null():
        if workload == "gups":
            r = run_gups(spec, fabric, **params)
            per_pe, total = r["mups_per_pe"], r["mups_total"]
        elif workload == "bfs":
            r = run_bfs(spec, fabric, **params)
            total = r["harmonic_teps"] / 1e6
            per_pe = total / n_nodes
        else:
            r = run_fft1d(spec, fabric, **params)
            total = r["gflops"]
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
                   shards: int = 1,
                   **overrides) -> List[Dict[str, float]]:
    """The cluster projection grid: workloads x nodes x fabrics.

    Fans every point across the executor's worker pool and memoises in
    its cache (each point's identity is its full parameter set, so a
    re-run of an already-swept grid performs zero simulation work).
    Returns one row dict per point, ordered workload-major then
    node-count then fabric.  The full default grid — three workloads,
    five node counts to 1024, both fabrics — takes tens of minutes
    serial; use ``Executor(workers=N)`` to spread it.
    """
    from repro.exec import Executor
    executor = executor or Executor()
    grid = [{"workload": w, "fabric": f, "n_nodes": n, "seed": seed,
             "plan": plan, "shards": shards,
             **overrides}
            for w in workloads for n in nodes for f in fabrics]
    return executor.map(scaleout_point, grid, name="scaling.scaleout")

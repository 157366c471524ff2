"""Builder for the ``repro obs`` CLI report.

Collects one unified metrics snapshot covering every instrumented layer:

1. a GUPS run on the Data Vortex fabric (engine events, VIC packet
   dispatch, PCIe DMA bytes, FIFO occupancy, flow-network serialisation,
   kernel-level update counts) with tracing on, so the Fig. 5 span
   breakdown appears as ``trace.span_seconds`` histograms;
2. the same GUPS run on MPI-over-InfiniBand (fabric messages/bytes,
   collective latency histograms);
3. a cycle-accurate random-traffic sample on the vectorised switch
   (injections, deflections, ejection-latency histogram) — the layer
   cluster runs replace with the flow model, reported here from the
   ground-truth simulator.

Imports are deliberately local: :mod:`repro.obs` must stay importable
from the bottom of the stack (the engine imports it), so this module
pulls the cluster/kernels layers in lazily.
"""

from __future__ import annotations

from typing import Optional

from repro.obs import export
from repro.obs import registry as obsreg


def collect_gups_metrics(n_nodes: int = 4, seed: int = 2017,
                         table_words: int = 1 << 12,
                         switch_ports: int = 16,
                         packets_per_port: int = 64,
                         registry: Optional[obsreg.MetricsRegistry] = None
                         ) -> obsreg.MetricsRegistry:
    """Run the three report workloads with observability on; returns the
    populated registry."""
    from repro.core.cluster import ClusterSpec
    from repro.dv.switch import CycleSwitch
    from repro.dv.topology import DataVortexTopology
    from repro.kernels.gups import run_gups
    from repro.sim.rng import rng_for

    prev = obsreg.active()
    reg = obsreg.enable(registry)
    try:
        spec = ClusterSpec(n_nodes=n_nodes, seed=seed, trace=True)
        run_gups(spec, "dv", table_words=table_words,
                 n_updates=table_words)
        run_gups(spec, "mpi", table_words=table_words,
                 n_updates=table_words)

        # ground-truth switch layer: uniform random traffic sample
        topo = DataVortexTopology(height=max(2, switch_ports // 2),
                                  angles=2)
        sw = CycleSwitch(topo)
        rng = rng_for(seed, "obs", "switch-traffic")
        for src in range(topo.ports):
            for dst in rng.integers(0, topo.ports, packets_per_port):
                sw.inject(src, int(dst))
        sw.run_until_drained()
    finally:
        if prev is not None:
            obsreg.enable(prev)
        else:
            obsreg.disable()
    return reg


def gups_report(n_nodes: int = 4, seed: int = 2017, fmt: str = "json",
                **kw) -> str:
    """The ``repro obs`` payload: JSON (default) or flat CSV."""
    reg = collect_gups_metrics(n_nodes=n_nodes, seed=seed, **kw)
    if fmt == "csv":
        return export.to_csv(reg)
    meta = {"workload": "gups+switch-traffic", "n_nodes": n_nodes,
            "seed": seed, "fabrics": ["dv", "mpi"]}
    return export.to_json(reg, meta=meta)

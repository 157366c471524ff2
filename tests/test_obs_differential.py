"""Observability must be a pure observer.

Enabling the metrics registry may not perturb the simulation: the same
seeded workload must produce bit-identical results (GUPS timings, update
tables, figure metrics) and identical switch ejection streams whether
collection is on or off.  This pins the design rule that instrumentation
only *reads* simulation state and never participates in scheduling."""

import pytest

from repro.core.cluster import ClusterSpec
from repro.dv.switch import CycleSwitch
from repro.dv.topology import DataVortexTopology
from repro.kernels.gups import run_gups
from repro.obs import registry as obsreg
from repro.sim.rng import rng_for
from tests.reference_engines import ReferenceCycleSwitch


def _gups_fingerprint(fabric: str, enable_obs: bool) -> tuple:
    with obsreg.session(enable_obs):
        spec = ClusterSpec(n_nodes=4, seed=2017, trace=True)
        r = run_gups(spec, fabric, table_words=1 << 10,
                     n_updates=1 << 10, validate=True)
        trace_rows = tuple(r["tracer"].to_rows())
    return (r["elapsed_s"], r["mups_total"], r["mups_per_pe"],
            r["valid"], trace_rows)


@pytest.mark.parametrize("fabric", ["dv", "mpi"])
def test_gups_identical_with_and_without_obs(fabric):
    on = _gups_fingerprint(fabric, enable_obs=True)
    off = _gups_fingerprint(fabric, enable_obs=False)
    assert on == off
    assert on[3] is True        # the validated table matched the serial ref


def _ejection_stream(cls, enable_obs: bool) -> list:
    with obsreg.session(enable_obs):
        topo = DataVortexTopology(height=8, angles=2)
        sw = cls(topo)
        rng = rng_for(2017, "obs-differential", cls.__name__)
        for src in range(topo.ports):
            for dst in rng.integers(0, topo.ports, 64):
                sw.inject(src, int(dst))
        ejections = sw.run_until_drained(max_cycles=500_000)
        stats = (sw.stats.injected, sw.stats.ejected,
                 sw.stats.total_deflections, sw.stats.total_hops,
                 sw.stats.total_latency_cycles)
    stream = [(e.cycle, e.port, e.pkt_id, e.hops, e.deflections)
              for e in ejections]
    return [stats] + stream


@pytest.mark.parametrize("cls", [ReferenceCycleSwitch, CycleSwitch],
                         ids=["reference", "vectorised"])
def test_switch_ejection_stream_identical_with_obs(cls):
    assert (_ejection_stream(cls, enable_obs=True)
            == _ejection_stream(cls, enable_obs=False))


def test_enabled_run_actually_collects():
    """The differential guarantee is vacuous unless the enabled run
    really recorded something — pin the per-layer counters."""
    with obsreg.session() as reg:
        run_gups(ClusterSpec(n_nodes=2, seed=3), "dv",
                 table_words=256, n_updates=256)
        assert reg.total("sim.engine.events") > 0
        assert reg.total("dv.vic.packets_received") > 0
        assert reg.total("dv.flow.packets") > 0
        assert reg.total("kernels.gups.epochs") > 0

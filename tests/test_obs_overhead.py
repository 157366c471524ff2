"""Disabled observability must be near-free on the hot path.

The instrumentation contract (see ``docs/observability.md``) is that a
component resolves metric handles at construction and guards hot-path
recording with one ``is not None`` / cached-bool test.  This test bounds
the cost of those guards on a 64-port vectorised-switch run: the total
time spent evaluating guard expressions — measured directly, times the
number of guard executions the run performs — must stay under 10% of
the run's wall time, i.e. the obs-disabled instrumented switch is
within 10% of its pre-instrumentation self."""

import gc
import time
import timeit

import pytest

from repro.dv.switch import CycleSwitch
from repro.dv.topology import DataVortexTopology
from repro.obs import registry as obsreg
from repro.sim.rng import rng_for


def _uniform_plan(topo, packets_per_port: int):
    rng = rng_for(2017, "obs-overhead", topo.ports)
    return [(src, int(dst)) for src in range(topo.ports)
            for dst in rng.integers(0, topo.ports, packets_per_port)]


def _run(topo, plan, enable_obs: bool):
    with obsreg.session(enable_obs):
        sw = CycleSwitch(topo)
        for s, d in plan:
            sw.inject(s, d)
        t0 = time.perf_counter()
        ejections = sw.run_until_drained()
        elapsed = time.perf_counter() - t0
    return sw, ejections, elapsed


@pytest.mark.slow
def test_disabled_guard_overhead_under_ten_percent():
    topo = DataVortexTopology(height=32, angles=2)      # 64 ports
    plan = _uniform_plan(topo, packets_per_port=64)

    sw, ejections, run_s = _run(topo, plan, enable_obs=False)
    assert sw._obs is None                              # truly disabled
    assert len(ejections) == len(plan)

    # Guard executions this run performed: one handle load per step,
    # at most one ``is not None`` per port per step (injection loop),
    # one per ejection.  Generous upper bound:
    guards = sw.cycle * (1 + topo.ports) + len(ejections)
    obs = sw._obs
    guard_s = timeit.timeit("obs is not None",
                            globals={"obs": obs}, number=guards)
    assert guard_s < 0.10 * run_s, (
        f"guard overhead {guard_s:.4f}s is >= 10% of the "
        f"{run_s:.4f}s obs-disabled run ({guards} guard executions)")


@pytest.mark.slow
def test_enabled_run_matches_disabled_and_collects():
    """Sanity companion: turning collection on neither changes results
    nor blows up the runtime (bound kept loose — wall time is noisy)."""
    topo = DataVortexTopology(height=32, angles=2)
    plan = _uniform_plan(topo, packets_per_port=16)

    # both runs are timed with the cyclic collector paused, as
    # Engine.run pauses it: a full collection of the suite's live
    # objects landing in one of them would dwarf a 0.02 s run
    paused = gc.isenabled()
    gc.disable()
    try:
        _, ej_off, t_off = _run(topo, plan, enable_obs=False)
        with obsreg.session() as reg:
            sw = CycleSwitch(topo)
            for s, d in plan:
                sw.inject(s, d)
            t0 = time.perf_counter()
            ej_on = sw.run_until_drained()
            t_on = time.perf_counter() - t0
            assert reg.value("dv.switch.injected") == len(plan)
            assert reg.value("dv.switch.ejected") == len(plan)
            hist = reg.get("dv.switch.ejection_latency_cycles")
            assert hist.count == len(plan)
    finally:
        if paused:
            gc.enable()

    key = lambda e: (e.cycle, e.port, e.pkt_id, e.hops, e.deflections)
    assert sorted(map(key, ej_on)) == sorted(map(key, ej_off))
    assert t_on < 10 * max(t_off, 1e-3)

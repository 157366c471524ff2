"""The array-based switch must match the node-by-node reference model
packet for packet — with failed nodes, TTL, dead ports and installed
fault plans too — and be substantially faster."""

import dataclasses
import gc
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dv.switch import CycleSwitch
from repro.dv.topology import DataVortexTopology
from repro.faults import injector as faults
from repro.faults.plan import FaultPlan
from repro.obs import registry as obsreg
from tests.reference_engines import ReferenceCycleSwitch


def _run(cls, topo, plan, fault_plan=None, enable_obs=False, **kw):
    """Drive one model through ``plan`` in a fresh fault/obs scope;
    returns (sorted ejections, stats, final cycle, obs snapshot)."""
    with faults.session(fault_plan), obsreg.session(enable_obs) as reg:
        sw = cls(topo, **kw)
        for src, dst in plan:
            sw.inject(src, dst, payload=(src, dst))
        out = sw.run_until_drained(max_cycles=500_000)
        snap = reg.snapshot() if enable_obs else None
    ejections = sorted(
        (e.cycle, e.port, e.pkt_id, e.latency_cycles, e.hops,
         e.deflections, e.payload) for e in out)
    return ejections, dataclasses.astuple(sw.stats), sw.cycle, snap


def drive_both(topo, plan, **kw):
    """Inject the same plan into both models; assert every stats field
    and the drain cycle agree; return the ejection tuples."""
    ref = _run(ReferenceCycleSwitch, topo, plan, **kw)
    fast = _run(CycleSwitch, topo, plan, **kw)
    assert ref[1:] == fast[1:]
    return ref[0], fast[0]


def _random_plan(topo, n, seed):
    rng = random.Random(seed)
    return [(rng.randrange(topo.ports), rng.randrange(topo.ports))
            for _ in range(n)]


def _random_failures(topo, p, seed):
    rng = random.Random(seed)
    return {c for c in topo.iter_nodes() if rng.random() < p}


def test_single_packet_identical():
    topo = DataVortexTopology(height=16, angles=2)
    a, b = drive_both(topo, [(3, 20)])
    assert a == b


def test_random_traffic_identical():
    topo = DataVortexTopology(height=16, angles=2)
    rng = random.Random(7)
    plan = [(rng.randrange(32), rng.randrange(32)) for _ in range(2000)]
    a, b = drive_both(topo, plan)
    assert a == b


def test_hotspot_identical():
    topo = DataVortexTopology(height=8, angles=2)
    plan = [(s, 0) for s in range(16) for _ in range(32)]
    a, b = drive_both(topo, plan)
    assert a == b


def test_staggered_injection_identical():
    """Packets queued behind busy injection ports follow the same
    schedule in both models."""
    topo = DataVortexTopology(height=8, angles=4)
    rng = random.Random(3)
    plan = [(rng.randrange(32) % topo.ports, rng.randrange(topo.ports))
            for _ in range(500)]
    a, b = drive_both(topo, plan)
    assert a == b


@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)),
                min_size=1, max_size=80))
@settings(max_examples=40, deadline=None)
def test_property_models_equivalent(plan):
    topo = DataVortexTopology(height=8, angles=2)
    a, b = drive_both(topo, plan)
    assert a == b


def test_payloads_preserved():
    topo = DataVortexTopology(height=8, angles=2)
    sw = CycleSwitch(topo)
    sw.inject(0, 9, payload={"k": 1})
    (ej,) = sw.run_until_drained()
    assert ej.payload == {"k": 1}


def test_port_validation():
    sw = CycleSwitch(DataVortexTopology(height=8, angles=2))
    with pytest.raises(ValueError):
        sw.inject(-1, 0)
    with pytest.raises(ValueError):
        sw.inject(0, 99)


def test_stats_match_reference():
    topo = DataVortexTopology(height=16, angles=2)
    rng = random.Random(11)
    plan = [(rng.randrange(32), rng.randrange(32)) for _ in range(1000)]
    ref, fast = ReferenceCycleSwitch(topo), CycleSwitch(topo)
    for s, d in plan:
        ref.inject(s, d)
        fast.inject(s, d)
    ref.run_until_drained()
    fast.run_until_drained()
    assert fast.stats.ejected == ref.stats.ejected
    assert fast.stats.total_hops == ref.stats.total_hops
    assert fast.stats.total_deflections == ref.stats.total_deflections
    assert fast.stats.total_latency_cycles == \
        ref.stats.total_latency_cycles
    assert fast.stats == ref.stats
    assert fast.cycle == ref.cycle


def test_faster_on_large_switch():
    topo = DataVortexTopology(height=128, angles=2)
    rng = random.Random(5)
    plan = [(s, rng.randrange(topo.ports))
            for s in range(topo.ports) for _ in range(32)]

    def drain(model):
        """The switch after one inject-and-drain of ``plan``, and the
        best wall time of 3 such drains."""
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            sw = model(topo)
            for s, d in plan:
                sw.inject(s, d)
            sw.run_until_drained()
            best = min(best, time.perf_counter() - t0)
        return sw, best

    # timed with the cyclic collector paused, as Engine.run pauses
    # it: a full collection of the suite's live objects landing in
    # one drain would decide the ratio on a shared host
    paused = gc.isenabled()
    gc.disable()
    try:
        ref, t_ref = drain(ReferenceCycleSwitch)
        fast, t_fast = drain(CycleSwitch)
    finally:
        if paused:
            gc.enable()

    assert fast.stats.ejected == ref.stats.ejected
    # generous bound; typical speedup is ~3x at 256 ports and grows
    # with switch size (the vectorised grids amortise better)
    assert t_fast < 0.7 * t_ref


@given(st.lists(st.tuples(st.integers(0, 31), st.integers(0, 31)),
                min_size=1, max_size=60))
@settings(max_examples=25, deadline=None)
def test_property_models_equivalent_wide_rings(plan):
    """Equivalence must also hold for wider rings (A=4), where the
    deflection permutation and angle wrap interact differently."""
    topo = DataVortexTopology(height=8, angles=4)
    a, b = drive_both(topo, plan)
    assert a == b


@pytest.mark.parametrize("load", [0.25, 1.0, 4.0],
                         ids=["light", "full", "oversubscribed"])
@pytest.mark.parametrize("height,angles", [(4, 2), (8, 2), (16, 4)],
                         ids=["8-port", "16-port", "64-port"])
def test_equivalence_sweep(height, angles, load):
    """Packet-for-packet equivalence across switch sizes and injection
    loads (load = queued packets per port, in units of 8)."""
    from repro.sim.rng import rng_for
    topo = DataVortexTopology(height=height, angles=angles)
    rng = rng_for(2017, "fastswitch-sweep", height, angles, str(load))
    n = max(1, int(load * topo.ports * 8))
    plan = list(zip((int(s) for s in rng.integers(0, topo.ports, n)),
                    (int(d) for d in rng.integers(0, topo.ports, n))))
    a, b = drive_both(topo, plan)
    assert a == b
    assert len(a) == n                  # nothing lost at any load


# ------------------------------------------------------ failed nodes, TTL ---

@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("height,angles", [(8, 2), (8, 4), (16, 2)],
                         ids=["A2-16port", "A4-32port", "A2-32port"])
def test_failed_nodes_identical(height, angles, seed):
    """Random failure sets under saturating load: descents blocked by
    dead nodes, deflections and circulations onto dead nodes dropped,
    TTL reclaiming what can never arrive."""
    topo = DataVortexTopology(height=height, angles=angles)
    failed = _random_failures(topo, 0.06, seed)
    plan = _random_plan(topo, 12 * topo.ports, seed)
    ttl = 16 * (topo.cylinders + topo.angles)
    a, b = drive_both(topo, plan, failed_nodes=failed, ttl_hops=ttl)
    assert a == b
    assert 0 < len(a) < len(plan)       # some delivered, some dropped


nodes_8x2 = st.tuples(st.integers(0, 3), st.integers(0, 7),
                      st.integers(0, 1))
nodes_8x4 = st.tuples(st.integers(0, 3), st.integers(0, 7),
                      st.integers(0, 3))


@given(st.sets(nodes_8x2, max_size=6),
       st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)),
                min_size=1, max_size=60))
@settings(max_examples=30, deadline=None)
def test_property_failed_nodes_equivalent(failed, plan):
    topo = DataVortexTopology(height=8, angles=2)
    a, b = drive_both(topo, plan, failed_nodes=failed, ttl_hops=40)
    assert a == b


@given(st.sets(nodes_8x4, max_size=8),
       st.lists(st.tuples(st.integers(0, 31), st.integers(0, 31)),
                min_size=1, max_size=60))
@settings(max_examples=30, deadline=None)
def test_property_failed_nodes_equivalent_wide_rings(failed, plan):
    topo = DataVortexTopology(height=8, angles=4)
    a, b = drive_both(topo, plan, failed_nodes=failed, ttl_hops=40)
    assert a == b


@pytest.mark.parametrize("ttl", [0, 3, 5, 8])
def test_ttl_drops_identical(ttl):
    """A tight TTL under hotspot load drops packets mid-flight."""
    topo = DataVortexTopology(height=8, angles=2)
    plan = [(s, 5) for s in range(topo.ports) for _ in range(8)]
    a, b = drive_both(topo, plan, ttl_hops=ttl)
    assert a == b
    assert len(a) < len(plan)


@pytest.mark.parametrize("cls", [ReferenceCycleSwitch, CycleSwitch],
                         ids=["reference", "engine"])
def test_ttl_boundary(cls):
    """A packet makes exactly ``ttl_hops`` hops and no more: TTL equal
    to its path length delivers it, one less drops it."""
    topo = DataVortexTopology(height=16, angles=2)
    hops = topo.min_hops(3, 20)
    sw = cls(topo, ttl_hops=hops)
    sw.inject(3, 20)
    (ej,) = sw.run_until_drained()
    assert ej.hops == hops and sw.stats.dropped == 0
    sw = cls(topo, ttl_hops=hops - 1)
    sw.inject(3, 20)
    assert sw.run_until_drained() == []
    assert sw.stats.dropped == 1


@pytest.mark.parametrize("angles", [2, 4])
def test_dead_ports_identical(angles):
    """Dead injection nodes drop their whole queue; dead ejection nodes
    drop the head of every queue addressed to them, one per cycle."""
    topo = DataVortexTopology(height=8, angles=angles)
    inner = topo.cylinders - 1
    failed = {topo.port_coord(2, 0), topo.port_coord(7, 0),
              topo.port_coord(5, inner), topo.port_coord(11, inner)}
    plan = _random_plan(topo, 10 * topo.ports, angles)
    plan += [(s, 5) for s in range(topo.ports) for _ in range(3)]
    a, b = drive_both(topo, plan, failed_nodes=failed, ttl_hops=64)
    assert a == b
    ports = {e[1] for e in a}
    assert not ports & {5, 11}
    assert all(e[-1][0] not in (2, 7) for e in a)


@pytest.mark.parametrize("fault_plan", [
    FaultPlan(seed=21, switch_node_fail_prob=0.05),
    FaultPlan(seed=5, drop_prob=0.05),
    FaultPlan(seed=9, switch_node_fail_prob=0.04, drop_prob=0.03),
], ids=["node-failures", "drop", "both"])
@pytest.mark.parametrize("angles", [2, 4])
def test_installed_plan_identical(fault_plan, angles):
    """An installed plan's switch failures, default TTL and
    ``dv.fastswitch`` injection draws act the same in both models."""
    topo = DataVortexTopology(height=8, angles=angles)
    plan = _random_plan(topo, 10 * topo.ports, 17)
    ref = _run(ReferenceCycleSwitch, topo, plan, fault_plan=fault_plan)
    fast = _run(CycleSwitch, topo, plan, fault_plan=fault_plan)
    assert ref == fast
    assert fast[1][-1] > 0              # SwitchStats.dropped


@pytest.mark.parametrize("fault_plan", [
    None, FaultPlan(seed=9, switch_node_fail_prob=0.04, drop_prob=0.03)],
    ids=["no-faults", "faults"])
def test_obs_registry_identical(fault_plan):
    """Batched obs recording leaves the same registry as the
    reference's per-packet recording, fault counters included."""
    topo = DataVortexTopology(height=8, angles=2)
    plan = _random_plan(topo, 16 * topo.ports, 23)
    ref = _run(ReferenceCycleSwitch, topo, plan, fault_plan=fault_plan,
               enable_obs=True)
    fast = _run(CycleSwitch, topo, plan, fault_plan=fault_plan,
                enable_obs=True)
    assert ref == fast
    assert fast[3]["histograms"]


def test_occupancy_is_read_only_coordinate_map():
    topo = DataVortexTopology(height=8, angles=2)
    sw = CycleSwitch(topo)
    ref = ReferenceCycleSwitch(topo)
    for s, d in _random_plan(topo, 200, 4):
        sw.inject(s, d)
        ref.inject(s, d)
    while sw.pending or sw.in_flight:
        sw.step()
        ref.step()
        assert dict(sw.occupancy) == {
            coord: rec.pkt_id for coord, rec in ref.occupancy.items()}
    with pytest.raises(TypeError):
        sw.occupancy[(0, 0, 0)] = 1


# --------------------------------------------- studies on the oracle -------

def _oracle_in(monkeypatch, *modules):
    for mod in modules:
        monkeypatch.setattr(mod, "CycleSwitch", ReferenceCycleSwitch)


def _on_both(monkeypatch, modules, fn):
    fast = fn()
    _oracle_in(monkeypatch, *modules)
    return fast, fn()


def test_reliability_studies_match_oracle(monkeypatch):
    from repro.dv import reliability
    topo = DataVortexTopology(height=8, angles=4)
    plan = FaultPlan(seed=3, switch_node_fail_prob=0.05)

    def studies():
        return (reliability.routed_delivery_rate(topo, 0.05, trials=8,
                                                 seed=11),
                reliability.routed_delivery_rate(topo, trials=6,
                                                 plan=plan),
                reliability.reliability_curve(
                    topo, p_fails=(0.0, 0.04), trials=20, seed=2))

    fast, ref = _on_both(monkeypatch, [reliability], studies)
    assert fast == ref
    assert 0 < fast[0] < 1 and 0 < fast[1] < 1


def test_traffic_studies_match_oracle(monkeypatch):
    from repro.dv import traffic
    from repro.traffic import MMPP, TrafficModel, Zipf
    topo = DataVortexTopology(height=4, angles=4)
    model = TrafficModel(dist=Zipf(exponent=1.2),
                         arrivals=MMPP(rate_on=0.4, mean_on=8.0,
                                       mean_off=8.0))

    def studies():
        return (traffic.run_traffic(topo, "uniform", 0.3, cycles=300,
                                    seed=6),
                traffic.run_traffic(topo, "hotspot", 0.4, cycles=300,
                                    bursty=True, seed=4),
                traffic.run_traffic_model(topo, model, cycles=300, seed=3))

    fast, ref = _on_both(monkeypatch, [traffic], studies)
    assert fast == ref


def test_calibration_drift_matches_oracle(monkeypatch):
    from repro.golden import drift
    fast, ref = _on_both(monkeypatch, [drift], drift.measure_scenarios)
    assert fast == ref

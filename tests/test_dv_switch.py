"""Tests for the cycle-accurate Data Vortex switch.

These verify the properties the paper claims for the architecture:
self-routing (every packet reaches its addressed port), bufferless
deflection-based contention resolution, congestion tolerance, and the
"statistically ~2 extra hops" deflection cost.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dv.switch import CycleSwitch
from repro.dv.topology import DataVortexTopology


def make_switch(h=16, a=2):
    return CycleSwitch(DataVortexTopology(height=h, angles=a))


# -------------------------------------------------------- single packet ---

def test_single_packet_delivered_to_correct_port():
    sw = make_switch()
    sw.inject(src_port=3, dest_port=20, payload="x")
    out = sw.run_until_drained()
    assert len(out) == 1
    assert out[0].port == 20
    assert out[0].payload == "x"


def test_single_packet_no_deflections_uncontended():
    sw = make_switch()
    sw.inject(0, 25)
    (ej,) = sw.run_until_drained()
    assert ej.deflections == 0


def test_single_packet_hops_equal_min_hops():
    topo = DataVortexTopology(height=16, angles=2)
    for src, dst in [(0, 0), (0, 31), (5, 17), (31, 1), (12, 12)]:
        sw = CycleSwitch(topo)
        sw.inject(src, dst)
        (ej,) = sw.run_until_drained()
        assert ej.hops == topo.min_hops(src, dst), (src, dst)


def test_all_pairs_delivered_small_switch():
    topo = DataVortexTopology(height=4, angles=2)
    for src in range(topo.ports):
        for dst in range(topo.ports):
            sw = CycleSwitch(topo)
            sw.inject(src, dst, payload=(src, dst))
            (ej,) = sw.run_until_drained()
            assert ej.port == dst and ej.payload == (src, dst)


def test_bad_ports_rejected():
    sw = make_switch()
    with pytest.raises(ValueError):
        sw.inject(-1, 0)
    with pytest.raises(ValueError):
        sw.inject(0, 999)


# ------------------------------------------------------------ contention ---

def test_two_packets_same_destination_both_arrive():
    sw = make_switch()
    sw.inject(0, 10, "a")
    sw.inject(1, 10, "b")
    out = sw.run_until_drained()
    assert sorted(e.payload for e in out) == ["a", "b"]
    assert all(e.port == 10 for e in out)


def test_hotspot_traffic_all_delivered():
    """Many sources, one destination: the classic congestion pattern."""
    sw = make_switch()
    n = sw.topo.ports
    for src in range(n):
        for k in range(8):
            sw.inject(src, 7, payload=(src, k))
    out = sw.run_until_drained(max_cycles=100_000)
    assert len(out) == 8 * n
    assert all(e.port == 7 for e in out)


def test_hotspot_ejection_rate_is_one_per_cycle():
    """The single output port bounds throughput: ejections never exceed
    one per cycle, and a long hotspot run approaches that rate."""
    sw = make_switch()
    n = sw.topo.ports
    per_src = 16
    for src in range(n):
        for _ in range(per_src):
            sw.inject(src, 0)
    seen_cycles = []
    while sw.pending or sw.in_flight:
        for e in sw.step():
            seen_cycles.append(e.cycle)
    assert len(seen_cycles) == len(set(seen_cycles))  # <=1 per cycle
    span = max(seen_cycles) - min(seen_cycles) + 1
    assert len(seen_cycles) / span > 0.8  # sustained near line rate


def test_uniform_random_traffic_all_delivered():
    import random
    rng = random.Random(1234)
    sw = make_switch()
    n = sw.topo.ports
    pkts = {}
    for i in range(2000):
        src, dst = rng.randrange(n), rng.randrange(n)
        pid = sw.inject(src, dst, payload=i)
        pkts[pid] = dst
    out = sw.run_until_drained(max_cycles=200_000)
    assert len(out) == 2000
    for e in out:
        assert pkts[e.pkt_id] == e.port


def test_mean_deflection_cost_is_small_under_load():
    """Paper SS II: contention is resolved 'by slightly increasing routing
    latency (statistically by two hops) without need for buffers'."""
    import random
    rng = random.Random(7)
    sw = make_switch()
    n = sw.topo.ports
    for i in range(5000):
        sw.inject(rng.randrange(n), rng.randrange(n))
    sw.run_until_drained(max_cycles=500_000)
    # Mean deflections per delivered packet stays in the low single hops.
    assert sw.stats.mean_deflections < 4.0
    assert sw.stats.ejected == 5000


def test_no_buffering_invariant_one_packet_per_node():
    """The switch must never hold two packets in one node (bufferless)."""
    import random
    rng = random.Random(99)
    sw = make_switch(h=8, a=2)
    n = sw.topo.ports
    for i in range(500):
        sw.inject(rng.randrange(n), rng.randrange(n))
    while sw.pending or sw.in_flight:
        sw.step()
        occ = sw.occupancy
        # every in-flight packet sits on exactly one node of its own
        assert len(occ) == sw.in_flight
        assert len(set(occ.values())) == len(occ)
        for c, h, a in occ:
            assert (0 <= c < sw.topo.cylinders and 0 <= h < sw.topo.height
                    and 0 <= a < sw.topo.angles)


def test_injection_backpressure_counted():
    """Saturating injection at one port must exhibit blocked cycles when a
    deflecting packet claims the injection node."""
    sw = make_switch(h=4, a=2)
    n = sw.topo.ports
    # all-to-one at maximum rate forces deflections on cylinder 0
    for src in range(n):
        for _ in range(64):
            sw.inject(src, 0)
    sw.run_until_drained(max_cycles=100_000)
    assert sw.stats.injection_blocked_cycles > 0


# ------------------------------------------------------- property tests ---

@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)),
                min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_property_every_packet_delivered_exactly_once(pairs):
    topo = DataVortexTopology(height=8, angles=2)
    sw = CycleSwitch(topo)
    expect = {}
    for i, (src, dst) in enumerate(pairs):
        pid = sw.inject(src, dst, payload=i)
        expect[pid] = dst
    out = sw.run_until_drained(max_cycles=50_000)
    assert len(out) == len(pairs)
    assert {e.pkt_id for e in out} == set(expect)
    for e in out:
        assert e.port == expect[e.pkt_id]
        assert e.hops >= topo.levels


@given(st.integers(0, 3))
@settings(max_examples=4, deadline=None)
def test_property_throughput_preserved_across_sizes(k):
    """Weak-scaled uniform traffic drains in O(packets/ports) cycles for
    every switch size (the 'congestion-free scalable' claim)."""
    import random
    h = 4 << k  # 4, 8, 16, 32
    topo = DataVortexTopology(height=h, angles=2)
    sw = CycleSwitch(topo)
    rng = random.Random(h)
    per_port = 32
    for src in range(topo.ports):
        for _ in range(per_port):
            sw.inject(src, rng.randrange(topo.ports))
    sw.run_until_drained(max_cycles=100_000)
    drain_cycles = sw.cycle
    # Perfect line rate would take ~per_port cycles; allow generous slack
    # for deflections and angle circulation.
    assert drain_cycles < per_port * 10 + 10 * topo.cylinders

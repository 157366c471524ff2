"""Validation of the flow-level network model against the cycle-accurate
switch — the contract that lets benchmarks use the fast model."""

import pytest

from repro.dv import CycleSwitch, DVConfig, DataVortexTopology, FlowNetwork
from repro.sim import Engine


def flow_net(n_ports, cfg=None):
    eng = Engine()
    cfg = cfg or DVConfig()
    return eng, FlowNetwork(eng, cfg, n_ports)


# -------------------------------------------------- single-packet latency ---

@pytest.mark.parametrize("src,dst", [(0, 17), (3, 3), (31, 0), (5, 30)])
def test_unloaded_latency_matches_cycle_switch(src, dst):
    cfg = DVConfig(height=16, angles=2)
    topo = DataVortexTopology(height=16, angles=2)

    # cycle-accurate hops
    sw = CycleSwitch(topo)
    sw.inject(src, dst)
    (ej,) = sw.run_until_drained()
    cycle_latency = ej.hops * cfg.hop_time_s

    # flow model
    eng, net = flow_net(32, cfg)
    got = {}
    net.attach(dst, lambda s, p, n: got.setdefault("t", eng.now))
    net.transmit(src, dst, 1)
    eng.run()
    flow_latency = got["t"]

    # within two hop times of the exact model, unloaded
    assert flow_latency == pytest.approx(cycle_latency,
                                         abs=2.5 * cfg.hop_time_s)


# ----------------------------------------------------- hotspot throughput ---

def test_hotspot_drain_time_matches_cycle_switch():
    """All ports to one destination: both models are ejection-limited at
    one packet per cycle, so drain times must agree within ~20%."""
    cfg = DVConfig(height=16, angles=2)
    per_src = 64
    n = 32

    topo = DataVortexTopology(height=16, angles=2)
    sw = CycleSwitch(topo)
    for src in range(n):
        for _ in range(per_src):
            sw.inject(src, 0)
    sw.run_until_drained(max_cycles=1_000_000)
    cycle_time = sw.cycle * cfg.hop_time_s

    eng, net = flow_net(n, cfg)
    net.attach(0, lambda s, p, k: None)
    for src in range(1, n):
        net.transmit(src, 0, per_src)
    net.transmit(0, 0, per_src)
    eng.run()
    flow_time = eng.now

    assert flow_time == pytest.approx(cycle_time, rel=0.25)


def test_uniform_traffic_throughput_close_to_cycle_switch():
    """Random fine-grained traffic: flow model within ~4x of the exact
    switch.  Under saturated uniform-random load the flow model is
    optimistic (it does not model the deflection storms the cycle switch
    exhibits at full injection), so the lower bound is loose; the upper
    bound guards against pathological over-serialisation."""
    import random
    rng = random.Random(5)
    cfg = DVConfig(height=16, angles=2)
    n = 32
    per_src = 32
    plan = [(s, rng.randrange(n)) for s in range(n) for _ in range(per_src)]

    topo = DataVortexTopology(height=16, angles=2)
    sw = CycleSwitch(topo)
    for s, d in plan:
        sw.inject(s, d)
    sw.run_until_drained(max_cycles=1_000_000)
    cycle_time = sw.cycle * cfg.hop_time_s

    eng, net = flow_net(n, cfg)
    for p in range(n):
        net.attach(p, lambda s, pl, k: None)
    # group by (src, dst) as the flow model would see it
    from collections import Counter
    counts = Counter(plan)
    for (s, d), c in counts.items():
        net.transmit(s, d, c)
    eng.run()
    flow_time = eng.now

    assert 0.2 * cycle_time < flow_time < 4.0 * cycle_time


# ------------------------------------------------------------ flow-only ---

def test_transmit_validates_arguments():
    eng, net = flow_net(4)
    with pytest.raises(ValueError):
        net.transmit(-1, 0, 1)
    with pytest.raises(ValueError):
        net.transmit(0, 4, 1)
    with pytest.raises(ValueError):
        net.transmit(0, 1, 0)


def test_attach_twice_rejected():
    eng, net = flow_net(2)
    net.attach(0, lambda s, p, n: None)
    with pytest.raises(ValueError):
        net.attach(0, lambda s, p, n: None)


def test_injection_serialisation():
    """Two back-to-back large transfers from one port must serialise."""
    eng, net = flow_net(4)
    times = []
    net.attach(1, lambda s, p, n: times.append(eng.now))
    net.attach(2, lambda s, p, n: times.append(eng.now))
    k = 10000
    net.transmit(0, 1, k)
    net.transmit(0, 2, k)
    eng.run()
    # second delivery roughly one batch later than the first
    assert times[1] >= times[0] + 0.8 * k * net.config.hop_time_s


def test_ejection_serialisation():
    """Two sources into one port: deliveries cannot overlap."""
    eng, net = flow_net(4)
    times = []
    net.attach(3, lambda s, p, n: times.append((s, eng.now)))
    k = 10000
    net.transmit(0, 3, k)
    net.transmit(1, 3, k)
    eng.run()
    t0, t1 = sorted(t for _, t in times)
    assert t1 >= t0 + 0.8 * k * net.config.hop_time_s


def test_inject_rate_caps_throughput():
    eng, net = flow_net(2)
    seen = {}
    net.attach(1, lambda s, p, n: seen.setdefault("t", eng.now))
    k = 1000
    slow_rate = net.config.port_packet_rate / 10
    net.transmit(0, 1, k, inject_rate=slow_rate)
    eng.run()
    assert seen["t"] >= k / slow_rate


def test_scatter_delivers_everywhere():
    eng, net = flow_net(8)
    got = {}
    for p in range(8):
        net.attach(p, lambda s, pl, n, p=p: got.setdefault(p, (pl, eng.now)))

    net.post(0, [1, 2, 3], [5, 5, 5], ["a", "b", "c"])
    eng.run()
    assert {p: pl for p, (pl, _) in got.items()} == {1: "a", 2: "b", 3: "c"}
    # the posted groups inject back to back: the run drains at the last
    assert eng.now == max(t for _, t in got.values()) > 15 * net._hop


def test_scatter_validates_alignment():
    eng, net = flow_net(4)
    with pytest.raises(ValueError):
        net.post(0, [1, 2], [1], ["x"])


def test_flow_stats_accumulate():
    eng, net = flow_net(2)
    net.attach(1, lambda s, p, n: None)
    net.transmit(0, 1, 5)
    net.transmit(0, 1, 7)
    eng.run()
    assert net.stats.packets_sent == 12
    assert net.stats.transfers == 2


def test_load_matches_bruteforce_port_scan():
    """``_load`` is maintained incrementally (expiry heap + busy count);
    it must equal the O(ports) rescan it replaced at every observation
    time, including after every reservation has expired."""
    import random
    eng, net = flow_net(16)
    rng = random.Random(42)

    def brute(now):
        return sum(1 for t in net._inject_free if t > now) / net.n_ports

    def prog(eng):
        for _ in range(200):
            if rng.random() < 0.6:
                net.transmit(rng.randrange(16), rng.randrange(16),
                             rng.randrange(1, 40))
            assert net._load(eng.now) == brute(eng.now)
            yield eng.timeout(rng.uniform(0.1, 5.0)
                              * net.config.hop_time_s)
        yield eng.timeout(1.0)              # drain: everything expires
        assert net._load(eng.now) == brute(eng.now) == 0.0

    eng.run_process(prog(eng))

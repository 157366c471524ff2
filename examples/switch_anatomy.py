#!/usr/bin/env python3
"""Anatomy of the Data Vortex switch (paper §II), cycle by cycle.

Walks the cycle-accurate switch model through progressively harder
traffic and prints what the deflection-routing fabric does:

1. a single packet's route through the nested cylinders;
2. two packets colliding — contention resolved by deflection signals,
   not buffers;
3. an all-to-one hotspot — ejection-port-limited, still lossless;
4. saturating uniform-random traffic — the "statistically two hops"
   deflection cost and the throughput-preserving scaling claim.

Run with::

    python examples/switch_anatomy.py
"""

import random

from repro.dv import CycleSwitch, DataVortexTopology


def banner(title):
    print(f"\n=== {title} " + "=" * max(0, 66 - len(title)))


def single_packet():
    banner("1. one packet, port 3 -> port 20 (H=16, A=2 switch)")
    topo = DataVortexTopology(height=16, angles=2)
    print(f"geometry: {topo.cylinders} cylinders x {topo.height} heights"
          f" x {topo.angles} angles = {topo.nodes} switching nodes, "
          f"{topo.ports} ports")
    sw = CycleSwitch(topo)
    sw.inject(3, 20, payload="probe")
    trace = []
    while sw.in_flight or sw.pending:
        # record the packet position each cycle
        trace.extend(sw.occupancy)
        ejected = sw.step()
    print("route (cylinder, height, angle):")
    print("  " + " -> ".join(str(c) for c in trace))
    print(f"delivered in {sw.stats.mean_hops:.0f} hops "
          f"(min possible: {topo.min_hops(3, 20)}), "
          f"{sw.stats.mean_deflections:.0f} contention deflections")


def two_packet_collision():
    banner("2. two packets racing for the same output port")
    topo = DataVortexTopology(height=8, angles=2)
    sw = CycleSwitch(topo)
    sw.inject(0, 9, "A")
    sw.inject(2, 9, "B")
    out = sw.run_until_drained()
    for e in sorted(out, key=lambda e: e.cycle):
        print(f"  packet {e.payload}: ejected cycle {e.cycle}, "
              f"{e.hops} hops, {e.deflections} contention deflections")
    assert sum(e.deflections for e in out) > 0
    print("  both delivered; the loser was deflected onto a longer "
          "path, never buffered or dropped")


def hotspot():
    banner("3. hotspot: every port floods port 0")
    topo = DataVortexTopology(height=16, angles=2)
    sw = CycleSwitch(topo)
    per_port = 32
    for src in range(topo.ports):
        for _ in range(per_port):
            sw.inject(src, 0)
    out = sw.run_until_drained()
    span = max(e.cycle for e in out) - min(e.cycle for e in out) + 1
    print(f"  {len(out)} packets drained through one ejection port in "
          f"{sw.cycle} cycles")
    print(f"  sustained ejection rate: {len(out) / span:.2f} "
          f"packets/cycle (line rate = 1)")
    print(f"  injection back-pressure events: "
          f"{sw.stats.injection_blocked_cycles}")


def saturating_random():
    banner("4. saturating uniform-random traffic, growing the switch")
    rng = random.Random(7)
    print(f"  {'ports':>6} {'cylinders':>9} {'mean hops':>10} "
          f"{'deflections':>12} {'drain cycles':>13}")
    for h in (4, 8, 16, 32):
        topo = DataVortexTopology(height=h, angles=2)
        sw = CycleSwitch(topo)
        per_port = 64
        for src in range(topo.ports):
            for _ in range(per_port):
                sw.inject(src, rng.randrange(topo.ports))
        sw.run_until_drained(max_cycles=1_000_000)
        print(f"  {topo.ports:>6} {topo.cylinders:>9} "
              f"{sw.stats.mean_hops:>10.2f} "
              f"{sw.stats.mean_deflections:>12.2f} {sw.cycle:>13}")
    print("  each doubling of ports adds one cylinder (paper SS IX): "
          "latency grows by a couple of hops;")
    print("  drain time stays ~ per-port load — throughput per port is "
          "preserved (the congestion-free claim)")


def main():
    single_packet()
    two_packet_collision()
    hotspot()
    saturating_random()


if __name__ == "__main__":
    main()

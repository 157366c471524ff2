"""Cycle-accurate Data Vortex switch simulator.

This is the ground-truth model of the switch of paper §II: every switching
node moves every cycle, deflection signals propagate outward from the
innermost cylinder, and injection honours back-pressure.  The whole
fabric advances with array operations: one ``(H, A)`` grid of packet ids
per cylinder, descents and deflections as angle shifts and height-row
permutations, deflection-signal claims as boolean grids.  It is used

* to validate the routing algorithm (every packet reaches its destination,
  no packet is ever buffered or dropped);
* to measure latency/deflection statistics under synthetic traffic, which
  calibrate the flow-level model (:mod:`repro.dv.flow`);
* by the §IX scale-up study, the reliability and traffic studies, the
  ``switch_anatomy`` example and the deflection ablation benchmark.

Routing rules:

* per hop the angle advances by one; descents keep the height,
  deflections flip the cylinder's height bit (innermost circulates);
* a node receiving a same-cylinder packet blocks the outer cylinder's
  descent into it and blocks injection on cylinder 0;
* contention deflections are counted only when the packet was
  descent-eligible; ejection happens on arrival at the destination
  node of the innermost cylinder.

Fault rules (failed switching nodes and a hop TTL):

* a failed descent target blocks the descent, like a same-cylinder claim;
* a failed deflection or circulation target drops the packet, and the
  dropped packet claims nothing;
* a packet is dropped once it has made ``ttl_hops`` hops;
* a failed injection node drops its port's whole queue; a failed
  ejection node drops the packet at the head of any queue addressed to
  it, one per cycle.

The simulator is intentionally independent of the discrete-event engine —
it advances in lock-step cycles, which is how the hardware works.
``tests/reference_engines.py::ReferenceCycleSwitch`` is the same switch
simulated node by node in plain Python, and the switch equivalence
tests hold this model to it packet for packet.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Deque, List, Mapping, Optional

import numpy as np

from repro.dv.topology import Coord, DataVortexTopology
from repro.faults import injector as fltreg
from repro.obs import registry as obsreg

_EMPTY = -1


@dataclass(slots=True)
class Ejection:
    """A packet delivered to an output port."""

    cycle: int
    port: int
    pkt_id: int
    payload: Any
    latency_cycles: int
    hops: int
    deflections: int


@dataclass(slots=True)
class SwitchStats:
    """Aggregate statistics of a :class:`CycleSwitch` run."""

    injected: int = 0
    ejected: int = 0
    total_hops: int = 0
    total_deflections: int = 0
    total_latency_cycles: int = 0
    max_latency_cycles: int = 0
    injection_blocked_cycles: int = 0
    dropped: int = 0

    @property
    def mean_latency_cycles(self) -> float:
        return self.total_latency_cycles / self.ejected if self.ejected else 0.0

    @property
    def mean_hops(self) -> float:
        return self.total_hops / self.ejected if self.ejected else 0.0

    @property
    def mean_deflections(self) -> float:
        return self.total_deflections / self.ejected if self.ejected else 0.0


class SwitchObs:
    """Registry handles for one switch instance.

    ``SwitchObs.create()`` returns None while observability is
    disabled, so the switch's hot loop pays a single ``is not None``
    test per recording site (the overhead-guard test bounds this).
    """

    __slots__ = ("injected", "ejected", "deflections", "dropped",
                 "blocked_cycles", "latency", "hops")

    def __init__(self) -> None:
        self.injected = obsreg.counter("dv.switch.injected")
        self.ejected = obsreg.counter("dv.switch.ejected")
        self.deflections = obsreg.counter("dv.switch.deflections")
        self.dropped = obsreg.counter("dv.switch.dropped")
        self.blocked_cycles = obsreg.counter(
            "dv.switch.injection_blocked_cycles")
        self.latency = obsreg.histogram("dv.switch.ejection_latency_cycles")
        self.hops = obsreg.histogram("dv.switch.hops")

    @staticmethod
    def create() -> Optional["SwitchObs"]:
        return SwitchObs() if obsreg.enabled() else None

    def record_ejections(self, latencies, hops, deflections) -> None:
        """One update per step for every packet ejected in it."""
        self.ejected.inc(len(latencies))
        self.deflections.inc(int(sum(deflections)))
        self.latency.observe_many(latencies)
        self.hops.observe_many(hops)


class CycleSwitch:
    """Cycle-level Data Vortex switch.

    Usage::

        sw = CycleSwitch(DataVortexTopology(height=16, angles=2))
        sw.inject(src_port=0, dest_port=17, payload="hello")
        ejections = sw.run_until_drained()

    ``failed_nodes`` takes switching nodes out of service (fault
    injection, in the spirit of the reliability studies the paper
    cites) and ``ttl_hops`` drops packets after that many hops (None =
    never; fault experiments set it so unreachable destinations cannot
    livelock).  An installed :class:`~repro.faults.plan.FaultPlan` adds
    its seeded ``switch_failures`` (with a default TTL) and applies
    link-level loss at injection (``drop_prob`` per packet).
    """

    def __init__(self, topology: DataVortexTopology,
                 failed_nodes: Optional[set] = None,
                 ttl_hops: Optional[int] = None) -> None:
        self.topo = t = topology
        self.cycle = 0
        self._next_id = 0
        #: packet ids waiting at each input port (unbounded host-side
        #: queue; the *switch* itself never buffers).
        self.input_queues: List[Deque[int]] = [
            collections.deque() for _ in range(t.ports)]
        # O(1) queue/fabric occupancy tracking so the drain loop never
        # rescans every queue and cylinder per cycle
        self._pending_count = 0
        self._in_flight = 0
        self._port_h = [p // t.angles for p in range(t.ports)]
        self._port_a = [p % t.angles for p in range(t.ports)]
        shape = (t.height, t.angles)
        #: _occ[c][h, a] = packet id or -1
        self._occ = [np.full(shape, _EMPTY, np.int64)
                     for _ in range(t.cylinders)]
        # double-buffered next-state grids + claim masks, reused every
        # step so the hot loop never allocates
        self._occ_next = [np.full(shape, _EMPTY, np.int64)
                          for _ in range(t.cylinders)]
        self._claimed = [np.zeros(shape, bool) for _ in range(t.cylinders)]
        # per-packet state, grown geometrically.  Hop counts are not
        # tracked per cycle: a deflection network never stalls a packet
        # in-fabric, so hops == latency - 1 by construction.
        cap = 1024
        self._dest_h = np.zeros(cap, np.int64)
        self._dest_a = np.zeros(cap, np.int64)
        self._defl = np.zeros(cap, np.int64)
        self._born = np.zeros(cap, np.int64)
        self._payload: List[object] = [None] * cap
        # deflection height permutation per bit-resolving cylinder
        self._perm = [
            np.arange(t.height) ^ (1 << (t.levels - 1 - c))
            for c in range(t.levels)]
        # height-bit value per (cylinder, height)
        self._hbit = np.array(
            [[t.height_bit(h, c) for h in range(t.height)]
             for c in range(t.levels)], np.int64)

        failed = set(failed_nodes or ())
        # an installed FaultPlan contributes its seeded static failures;
        # TTL defaults on so unreachable destinations cannot livelock
        plan = fltreg.active()
        if plan is not None and plan.switch_node_fail_prob > 0.0:
            failed |= plan.switch_failures(t)
            if ttl_hops is None and failed:
                ttl_hops = 16 * (t.cylinders + t.angles)
        for c in failed:
            if not (0 <= c[0] < t.cylinders and 0 <= c[1] < t.height
                    and 0 <= c[2] < t.angles):
                raise ValueError(f"failed node {c} outside the topology")
        self.failed_nodes = failed
        self.ttl_hops = ttl_hops
        #: _failed[c][h, a]: node out of service (None while none is)
        self._failed: Optional[List[np.ndarray]] = None
        self._dead_in: Optional[List[bool]] = None
        self._dead_out: Optional[List[bool]] = None
        # queued packets addressed to a failed ejection node
        self._doomed: set = set()
        if failed:
            self._failed = [np.zeros(shape, bool)
                            for _ in range(t.cylinders)]
            for c, h, a in failed:
                self._failed[c][h, a] = True
            # port p sits at (h, a) = divmod(p, A): row-major order
            self._dead_in = self._failed[0].ravel().tolist()
            self._dead_out = self._failed[-1].ravel().tolist()
        self.stats = SwitchStats()
        self._obs = SwitchObs.create()
        # the site name predates this module; it keys the plan's
        # seeded loss stream, so it stays
        self._faults = fltreg.site("dv.fastswitch")

    # -- plumbing ------------------------------------------------------------
    def _grow(self, need: int) -> None:
        cap = self._dest_h.size
        if need < cap:
            return
        new = max(2 * cap, need + 1)
        for name in ("_dest_h", "_dest_a", "_defl", "_born"):
            arr = getattr(self, name)
            grown = np.zeros(new, np.int64)
            grown[:cap] = arr
            setattr(self, name, grown)
        self._payload.extend([None] * (new - cap))

    def _drop(self, n: int) -> None:
        self.stats.dropped += n
        if self._obs is not None:
            self._obs.dropped.inc(n)

    def inject(self, src_port: int, dest_port: int,
               payload: Any = None) -> int:
        """Queue a packet at ``src_port`` for ``dest_port``; returns its id."""
        t = self.topo
        if not 0 <= src_port < t.ports:
            raise ValueError(f"bad src_port {src_port}")
        if not 0 <= dest_port < t.ports:
            raise ValueError(f"bad dest_port {dest_port}")
        pid = self._next_id
        self._next_id += 1
        self._grow(pid)
        self._dest_h[pid], self._dest_a[pid] = divmod(dest_port, t.angles)
        self._payload[pid] = payload
        if self._faults is not None and self._faults.drop():
            # link-level loss at the injection fibre: the packet never
            # enters the fabric (it keeps its id for caller bookkeeping)
            self._drop(1)
            return pid
        if self._dead_out is not None and self._dead_out[dest_port]:
            self._doomed.add(pid)
        self.input_queues[src_port].append(pid)
        self._pending_count += 1
        return pid

    @property
    def in_flight(self) -> int:
        """Packets currently inside the switch."""
        return self._in_flight

    @property
    def pending(self) -> int:
        """Packets still waiting at input ports."""
        return self._pending_count

    @property
    def occupancy(self) -> Mapping[Coord, int]:
        """Read-only map from each occupied node to its packet id."""
        occ = {}
        for c, grid in enumerate(self._occ):
            h_idx, a_idx = np.nonzero(grid != _EMPTY)
            for h, a, pid in zip(h_idx.tolist(), a_idx.tolist(),
                                 grid[h_idx, a_idx].tolist()):
                occ[(c, h, a)] = pid
        return MappingProxyType(occ)

    # -- the cycle ----------------------------------------------------------
    def _expire(self) -> None:
        """Drop every packet that has made ``ttl_hops`` hops."""
        limit = self.cycle - 1 - self.ttl_hops
        if limit < 0:
            return
        born = self._born
        for occ in self._occ:
            # an empty cell (-1) reads the last slot; the mask drops it
            old = (occ != _EMPTY) & (born[occ] <= limit)
            n = int(old.sum())
            if n:
                occ[old] = _EMPTY
                self._in_flight -= n
                self._drop(n)

    def step(self) -> List[Ejection]:
        """Advance one cycle; returns the packets ejected this cycle."""
        t = self.topo
        L = t.levels
        innermost = t.cylinders - 1
        old_occ = self._occ
        new_occ = self._occ_next
        claimed = self._claimed
        failed = self._failed
        if self.ttl_hops is not None and self._in_flight:
            self._expire()

        # innermost: circulate at fixed height (same-cylinder move);
        # the roll is two slice copies into the reused buffer
        inner = old_occ[innermost]
        moved = new_occ[innermost]
        moved[:, 0] = inner[:, -1]
        moved[:, 1:] = inner[:, :-1]
        if failed is not None:
            lost = failed[innermost] & (moved != _EMPTY)
            n = int(lost.sum())
            if n:
                moved[lost] = _EMPTY
                self._in_flight -= n
                self._drop(n)
        np.not_equal(moved, _EMPTY, out=claimed[innermost])

        # bit-resolving cylinders, inner to outer
        for c in range(L - 1, -1, -1):
            new_occ[c].fill(_EMPTY)
            claimed[c].fill(False)
            occ = old_occ[c]
            mask = occ != _EMPTY
            if not mask.any():
                continue
            h_idx, a_idx = np.nonzero(mask)
            ids = occ[h_idx, a_idx]
            eligible = (self._hbit[c][h_idx]
                        == self._hbit[c][self._dest_h[ids]])
            # descent target (c+1, h, a+1) must carry no same-cylinder
            # claim and be in service
            a_next = a_idx + 1
            a_next[a_next == t.angles] = 0
            blocked = claimed[c + 1][h_idx, a_next]
            if failed is not None:
                blocked |= failed[c + 1][h_idx, a_next]
            descend = eligible & ~blocked
            deflect = ~descend
            # commit descents
            new_occ[c + 1][h_idx[descend], a_next[descend]] = ids[descend]
            # commit deflections (height bit flipped)
            gh = self._perm[c][h_idx[deflect]]
            ga = a_next[deflect]
            gid = ids[deflect]
            if failed is not None:
                alive = ~failed[c][gh, ga]
                n = int(alive.size - alive.sum())
                if n:
                    gh, ga, gid = gh[alive], ga[alive], gid[alive]
                    self._in_flight -= n
                    self._drop(n)
            new_occ[c][gh, ga] = gid
            claimed[c][gh, ga] = True
            self._defl[ids[eligible & blocked]] += 1

        # injection (cylinder 0, blocked by same-cylinder claims)
        obs = self._obs
        if self._pending_count:
            stats = self.stats
            claimed0 = claimed[0]
            occ0 = new_occ[0]
            port_h, port_a = self._port_h, self._port_a
            dead_in = self._dead_in
            for port, queue in enumerate(self.input_queues):
                if not queue:
                    continue
                if dead_in is not None:
                    if dead_in[port]:
                        # dead input port: its traffic can never enter
                        self._pending_count -= len(queue)
                        self._drop(len(queue))
                        queue.clear()
                        continue
                    if queue[0] in self._doomed:
                        # dead ejection port: the packet could never leave
                        self._doomed.discard(queue.popleft())
                        self._pending_count -= 1
                        self._drop(1)
                        continue
                h = port_h[port]
                a = port_a[port]
                if claimed0[h, a] or occ0[h, a] != _EMPTY:
                    stats.injection_blocked_cycles += 1
                    if obs is not None:
                        obs.blocked_cycles.inc()
                    continue
                pid = queue.popleft()
                self._pending_count -= 1
                self._in_flight += 1
                self._born[pid] = self.cycle
                occ0[h, a] = pid
                stats.injected += 1
                if obs is not None:
                    obs.injected.inc()

        # commit + ejection on arrival at the destination node.  All
        # bookkeeping (latency/hops/deflection sums, obs histograms) is
        # batched with array ops; Ejection objects are built only for
        # the packets actually returned.
        self.cycle += 1
        ejections: List[Ejection] = []
        inner_new = new_occ[innermost]
        mask = inner_new != _EMPTY
        if mask.any():
            h_idx, a_idx = np.nonzero(mask)
            ids = inner_new[mask]
            lats_all = self.cycle - self._born[ids]
            at_dest = ((self._dest_h[ids] == h_idx)
                       & (self._dest_a[ids] == a_idx)
                       & (lats_all > 1))
            if at_dest.any():
                ej_ids = ids[at_dest]
                ej_h = h_idx[at_dest]
                ej_a = a_idx[at_dest]
                lats = lats_all[at_dest]
                hops = lats - 1
                defl = self._defl[ej_ids]
                ports = ej_h * t.angles + ej_a
                st = self.stats
                n = int(ej_ids.size)
                st.ejected += n
                st.total_hops += int(hops.sum())
                st.total_deflections += int(defl.sum())
                st.total_latency_cycles += int(lats.sum())
                peak = int(lats.max())
                if peak > st.max_latency_cycles:
                    st.max_latency_cycles = peak
                cycle = self.cycle
                payload = self._payload
                for pid, prt, lat, hop, dfl in zip(
                        ej_ids.tolist(), ports.tolist(), lats.tolist(),
                        hops.tolist(), defl.tolist()):
                    ejections.append(Ejection(
                        cycle=cycle, port=prt, pkt_id=pid,
                        payload=payload[pid], latency_cycles=lat,
                        hops=hop, deflections=dfl))
                if obs is not None:
                    obs.record_ejections(lats, hops, defl)
                inner_new[ej_h, ej_a] = _EMPTY
                self._in_flight -= n
        self._occ, self._occ_next = new_occ, old_occ
        return ejections

    def run_until_drained(self, max_cycles: int = 1_000_000
                          ) -> List[Ejection]:
        """Step until all injected and pending packets have been ejected.

        Raises ``RuntimeError`` if the switch fails to drain within
        ``max_cycles`` (which would indicate a routing livelock — the
        tests assert this never happens).
        """
        out: List[Ejection] = []
        start = self.cycle
        while self.pending or self.in_flight:
            if self.cycle - start >= max_cycles:
                raise RuntimeError(
                    f"switch failed to drain within {max_cycles} cycles "
                    f"({self.pending} pending, {self.in_flight} in flight)")
            out.extend(self.step())
        return out

"""Scalar reference engines: test oracles for the production flow models.

:class:`ReferenceFlowNetwork` and :class:`ReferenceIBFabric` re-express
:class:`~repro.dv.flow.FlowNetwork` and :class:`~repro.ib.fabric.IBFabric`
the slow, obvious way — one marker :class:`~repro.sim.events.Event` plus
a closure per arrival and per delivery, ``topology.min_hops`` walked per
transmit, a blake2b route hash per IB message, and a transmit-at-a-time
loop for batches.  They are the models the suite was first written
against; ``tests/test_flow_equivalence.py`` holds the production engines
to them bit for bit.  Nothing under ``src/`` uses them.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, List, Optional, Sequence

from repro.dv.flow import FlowNetwork, apply_flow_faults
from repro.dv.vic import FifoPush, MemWrite
from repro.ib.fabric import IBFabric
from repro.sim.events import CompletionEvent, Event


def _marker(engine, name: str, callback, delay: float) -> None:
    """Enqueue a pre-fired marker event running ``callback`` after
    ``delay`` (the pre-``call_in`` idiom)."""
    marker = engine.event(name=name)
    marker.add_callback(callback)
    marker._ok = True
    marker._value = None
    engine._enqueue(marker, delay=delay)


class ReferenceFlowNetwork(FlowNetwork):
    """Scalar Data Vortex flow model: closures, markers, ``min_hops``."""

    def time_of_flight(self, src: int, dest: int, now: float) -> float:
        hops = self.topo.min_hops(src, dest)
        penalty = self.config.deflection_hops_per_load * self._load(now)
        return (hops + penalty) * self.config.hop_time_s

    def transmit(self, src: int, dest: int, n_packets: int,
                 payload: Any = None, inject_rate: Optional[float] = None,
                 ) -> Event:
        if not 0 <= src < self.n_ports:
            raise ValueError(f"bad src port {src}")
        if not 0 <= dest < self.n_ports:
            raise ValueError(f"bad dest port {dest}")
        if n_packets < 1:
            raise ValueError("n_packets must be >= 1")

        engine = self.engine
        now = engine.now
        hop = self.config.hop_time_s
        gap = max(hop, 1.0 / inject_rate) if inject_rate else hop

        inj_start = max(now, self._inject_free[src])
        self.stats.total_injection_wait_s += inj_start - now
        inj_end = inj_start + n_packets * gap
        self._inject_free[src] = inj_end
        if not self._port_busy[src]:
            self._port_busy[src] = True
            self._busy_ports += 1
        heappush(self._busy_heap, (inj_end, src))

        tof = self.time_of_flight(src, dest, now)
        first_arrival = inj_start + gap + tof

        self.stats.packets_sent += n_packets
        self.stats.transfers += 1
        if self._obs_on:
            self._m_packets.inc(n_packets)
            self._m_transfers.inc()
            self._m_inj_wait.observe(inj_start - now)

        done = CompletionEvent(
            engine, fabric="dv", op="transmit", src=src, dest=dest,
            words=n_packets, name=f"dv:tx {src}->{dest} x{n_packets}")
        receiver = self._receivers[dest]
        fsite = self._faults
        sent_at = now

        def _reserve(_ev: Event) -> None:
            t = engine.now
            ej_start = max(t, self._eject_free[dest])
            self.stats.total_ejection_wait_s += ej_start - t
            if self._obs_on:
                self._m_ej_wait.observe(ej_start - t)
            ej_end = max(ej_start + (n_packets - 1) * hop, inj_end + tof)
            self._eject_free[dest] = ej_end

            def _deliver(_ev2: Event) -> None:
                eff = payload
                if fsite is not None and isinstance(eff,
                                                    (MemWrite, FifoPush)):
                    eff = apply_flow_faults(fsite, eff, src, dest,
                                            sent_at, engine.now)
                    if eff is None:
                        done.succeed(payload)
                        return
                if receiver is not None:
                    receiver(src, eff, n_packets)
                done.succeed(payload)

            _marker(engine, "dv:eject", _deliver, ej_end - t)

        _marker(engine, "dv:arrive", _reserve, first_arrival - now)
        return done

    def transmit_batch(self, src: int, dests: Sequence[int],
                       counts: Sequence[int], payloads: Sequence[Any],
                       inject_rate: Optional[float] = None,
                       collect: bool = True) -> List[Event]:
        if not (len(dests) == len(counts) == len(payloads)):
            raise ValueError("dests, counts, payloads must align")
        events = [self.transmit(src, int(d), int(c), payload=p,
                                inject_rate=inject_rate)
                  for d, c, p in zip(dests, counts, payloads)]
        return events if collect else []


class ReferenceIBFabric(IBFabric):
    """Scalar fat tree: a route hash per message, marker deliveries."""

    def transfer(self, src: int, dst: int, nbytes: int, *,
                 kind: str = "data", payload: Any = None) -> Event:
        self._check(src, dst, nbytes)
        cfg = self.config
        engine = self.engine
        now = engine.now
        path = self._path(src, dst)
        occupancy = max(nbytes / cfg.effective_bw, cfg.msg_gap_s)

        retry_lat = 0.0
        fs = self._faults
        if fs is not None:
            k = fs.ib_retries()
            if k:
                occupancy *= (k + 1)
                retry_lat = k * fs.plan.ib_retry_timeout_s

        start = now
        for ch in path:
            start = max(start, self._free.get(ch, 0.0))
        self.stats.total_queue_wait_s += start - now
        for ch in path:
            self._free[ch] = start + occupancy

        arrival = (start + occupancy + retry_lat + cfg.wire_latency_s
                   + self.hops(src, dst) * cfg.hop_latency_s)

        self.stats.messages += 1
        self.stats.bytes += nbytes
        cross = self.leaf_of(src) != self.leaf_of(dst)
        if cross:
            self.stats.cross_leaf_messages += 1
        if self._obs_on:
            self._m_messages.inc()
            self._m_bytes.inc(nbytes)
            self._m_wait.observe(start - now)
            if cross:
                self._m_cross.inc()

        done = CompletionEvent(
            engine, fabric="ib", op=kind, src=src, dest=dst,
            nbytes=nbytes, name=f"ib:{kind} {src}->{dst}")
        receiver = self._receivers[dst]

        def _deliver(_ev: Event) -> None:
            if receiver is not None:
                receiver(src, kind, payload, nbytes)
            done.succeed(payload)

        _marker(engine, "ib:arrive", _deliver, arrival - now)
        return done

"""Flow-level Data Vortex network model for long benchmark runs.

The cycle-accurate switch (:mod:`repro.dv.switch`) is exact but advances
every switching node every cycle — far too slow for benchmarks that
move millions of packets.  :class:`FlowNetwork` replaces it inside the
discrete-event cluster simulation with a conservative analytic model that
keeps the three effects that matter at application level:

1. **injection serialisation** — a port injects at most one packet per
   hop cycle (this is what makes "source aggregation" effective);
2. **ejection serialisation** — a port ejects at most one packet per hop
   cycle, so many-to-one traffic queues *in the network* exactly as the
   deflection fabric would absorb it;
3. **time of flight** — ``min_hops(src, dest) * hop_time`` plus a
   load-dependent deflection penalty (paper §II: "statistically by two
   hops").

``tests/test_dv_flow_vs_cycle.py`` checks this model against the cycle
switch on small configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.dv.config import DVConfig
from repro.dv.fifo import SurpriseFIFO
from repro.dv.topology import DataVortexTopology
from repro.dv.vic import FifoPush, MemWrite
from repro.faults import injector as fltreg
from repro.obs import registry as obsreg
from repro.sim.engine import Engine
from repro.sim.events import CompletionEvent, Event

#: Signature of a port receiver: ``(src_port, payload, n_packets)``.
Receiver = Callable[[int, Any, int], None]


def apply_flow_faults(fsite, effect, src: int, dest: int,
                      sent_at: float, now: float):
    """Degrade a delivered data batch per the installed FaultPlan.

    Only data-bearing effects (MemWrite/FifoPush) are degraded; control
    packets (counter ops, queries, timing-only payloads) are modelled as
    protected by link-level CRC retry, so barriers and counters stay
    live under faults.  Returns the surviving effect, or None when the
    entire batch was lost.  The scalar test oracle
    (``tests/reference_engines.py``) shares it, so the RNG draw sequence
    per delivery is part of the bit-identity contract with it.
    """
    if fsite.has_outages and (fsite.link_down(src, sent_at)
                              or fsite.link_down(dest, now)):
        return None
    if isinstance(effect, MemWrite):
        addrs = np.atleast_1d(np.asarray(effect.addrs))
        values = np.atleast_1d(np.asarray(effect.values, np.uint64))
        mask = fsite.keep_mask(addrs.size)
        if mask is not None:
            addrs = addrs[mask]
            values = values[mask]
            if addrs.size == 0:
                return None
        corrupted = fsite.corrupt_values(values)
        if corrupted is not None:
            values = corrupted
        if mask is None and corrupted is None:
            return effect
        return MemWrite(addrs=addrs, values=values,
                        counter=effect.counter)
    values = np.atleast_1d(np.asarray(effect.values, np.uint64))
    mask = fsite.keep_mask(values.size)
    if mask is not None:
        values = values[mask]
        if values.size == 0:
            return None
    corrupted = fsite.corrupt_values(values)
    if corrupted is not None:
        values = corrupted
    if mask is None and corrupted is None:
        return effect
    return FifoPush(values=values, counter=effect.counter)


def hop_table(topo: DataVortexTopology, n_ports: int) -> np.ndarray:
    """Vectorised ``min_hops`` for every (src, dest) port pair.

    Each height-bit mismatch between source and destination costs one
    deflection on the owning cylinder, so the descent phase takes
    ``levels + popcount(src_h ^ dest_h)`` hops; the packet then
    circulates the innermost cylinder to the destination angle.
    """
    angles = topo.angles
    ports = np.arange(n_ports, dtype=np.int64)
    h, a = np.divmod(ports, angles)
    x = h[:, None] ^ h[None, :]
    defl = np.zeros_like(x)
    for _ in range(topo.levels):
        defl += x & 1
        x >>= 1
    hops = topo.levels + defl
    arrive_a = (a[:, None] + hops) % angles
    hops = hops + (a[None, :] - arrive_a) % angles
    return hops.astype(np.int32)


class FanOut(CompletionEvent):
    """One completion for a whole :meth:`FlowNetwork.transmit_batch`
    fan-out, counting down its groups' deliveries.

    It replaces a :class:`CompletionEvent` per group plus the
    :class:`~repro.sim.events.AllOf` a waiter built over them at
    :meth:`join`, and fires where that ``AllOf``'s last ``_on_child``
    ran.  A group's completion entry used to run right after its
    delivery; the AllOf reached a group either there (joined before
    that entry ran) or through a zero-delay re-delivery enqueued at the
    join (joined after).  So:

    * at the last delivery one zero-delay entry stands in for that
      group's completion entry, and fires the fan-out if it is joined
      by then and no re-delivery comes after it;
    * a join made once every group is delivered and some group's
      completion entry has already run (the first group's is the
      earliest, :meth:`Engine.mark <repro.sim.engine.Engine.mark>`)
      enqueues one zero-delay entry instead, which stands in for the
      re-deliveries (consecutive entries, so the last one's position is
      the block's).

    That is at most three zero-delay entries per fan-out (the stand-in,
    a late join's entry and the event's own) where there were
    ``2m + 1``.  The value is the list of payloads, as the AllOf's was.
    """

    __slots__ = ("_payloads", "_left", "_first", "_state")

    def __init__(self, engine: Engine, src: int, payloads: list,
                 words: int = 0) -> None:
        super().__init__(engine, fabric="dv", op="fanout", src=src,
                         words=words)
        self._payloads = payloads
        self._left = len(payloads)
        #: engine mark where the first group's completion entry would be
        self._first: Optional[tuple] = None
        self._state = _OPEN

    def _delivered(self, _payload: Any) -> None:
        """One group delivered: where its CompletionEvent succeeded."""
        if self._first is None:
            self._first = self.engine.mark()
        self._left -= 1
        if not self._left:
            self.engine.call_soon(self._last_done)

    def _last_done(self) -> None:
        if self._state is _JOINED:
            self._fire()

    def _fire(self) -> None:
        self._succeed_soon(list(self._payloads))

    def join(self) -> "FanOut":
        """Mark where a waiter joins the fan-out (where the AllOf over
        per-group events used to be built); returns the event."""
        if self._state is not _OPEN:
            return self
        if self._left:
            self._state = _JOINED
        elif self._first is None:  # empty: AllOf([]) succeeded on creation
            self._state = _LATE
            self._fire()
        elif self.engine.passed(self._first):
            self._state = _LATE
            self.engine.call_soon(self._fire)
        else:
            self._state = _JOINED
        return self


#: FanOut states: not joined; joined, fires at the last-delivery entry;
#: joined late, fires at the join's own entry
_OPEN, _JOINED, _LATE = "open", "joined", "late"


@dataclass
class FlowStats:
    """Aggregate accounting for a :class:`FlowNetwork`."""

    packets_sent: int = 0
    transfers: int = 0
    total_injection_wait_s: float = 0.0
    total_ejection_wait_s: float = 0.0


class FlowNetwork:
    """Flow-level model of one Data Vortex switch.

    Per-transfer state rides in the arguments of two
    :meth:`Engine.call_in` wakeups (arrival, then ejection) — no marker
    events, no closures, no message pool — and hop counts come from a
    precomputed :func:`hop_table`.  :meth:`transmit_batch` prices a
    whole one-source/many-destination fan-out (a GUPS epoch, a counter
    exchange) in a handful of numpy operations whose rounding matches
    the scalar :meth:`transmit` recurrence exactly
    (``np.add.accumulate`` is sequential), and completes it with one
    :class:`FanOut`.  :meth:`post` prices a fan-out the same way with
    no completion, and :meth:`post_fifo` a fan-out of raw FIFO words,
    whose destination FIFO may hold each delivery until it is
    observed.  All times it hands the engine are Python floats.

    Parameters
    ----------
    engine:
        Discrete-event engine that owns time.
    config:
        Timing constants; the topology is sized from it (scaled up to
        cover ``n_ports`` if needed).
    n_ports:
        Number of attached VICs.
    """

    def __init__(self, engine: Engine, config: DVConfig,
                 n_ports: int) -> None:
        if n_ports < 1:
            raise ValueError("need at least one port")
        cfg = config.scaled_to_ports(n_ports)
        self.engine = engine
        self.config = cfg
        self.topo = DataVortexTopology(height=cfg.height, angles=cfg.angles)
        self.n_ports = n_ports
        self._hop = cfg.hop_time_s
        self._hops = hop_table(self.topo, n_ports)
        self._receivers: List[Optional[Receiver]] = [None] * n_ports
        #: per-port FIFO that may hold :meth:`post_fifo` deliveries
        self._fifos: List[Optional[SurpriseFIFO]] = [None] * n_ports
        #: earliest time each port can inject / eject its next packet
        self._inject_free = [0.0] * n_ports
        self._eject_free = [0.0] * n_ports
        # incremental busy-port tracking for _load(): a min-heap of
        # (inject_free, port) marks plus a per-port busy flag, so the
        # load estimate costs amortised O(log ports) per transfer
        # instead of rescanning every port (lazy deletion: superseded
        # heap entries are skipped when popped).
        self._busy_heap: List[tuple] = []
        self._port_busy = [False] * n_ports
        self._busy_ports = 0
        self.stats = FlowStats()
        self._faults = fltreg.site("dv.flow")
        self._obs_on = obsreg.enabled()
        if self._obs_on:
            self._m_packets = obsreg.counter("dv.flow.packets")
            self._m_transfers = obsreg.counter("dv.flow.transfers")
            self._m_inj_wait = obsreg.histogram("dv.flow.injection_wait_s")
            self._m_ej_wait = obsreg.histogram("dv.flow.ejection_wait_s")

    # -- wiring ---------------------------------------------------------------
    def attach(self, port: int, receiver: Receiver,
               fifo: Optional[SurpriseFIFO] = None) -> None:
        """Connect ``receiver`` to ``port``; called once per VIC.

        ``fifo`` is the port's surprise FIFO, which may hold
        :meth:`post_fifo` deliveries unless a fault site is installed
        here (a fault must see each delivery at its own time).
        """
        if self._receivers[port] is not None:
            raise ValueError(f"port {port} already attached")
        self._receivers[port] = receiver
        if self._faults is None:
            self._fifos[port] = fifo

    # -- load estimate ----------------------------------------------------------
    def _load(self, now: float) -> float:
        """Fraction of ports currently busy injecting (deflection driver).

        A port is busy while ``_inject_free[port] > now``.  Expired heap
        marks are retired lazily; ``now`` never decreases between calls
        (all callers pass ``engine.now``), so each mark is popped once.
        """
        heap = self._busy_heap
        while heap and heap[0][0] <= now:
            _, port = heappop(heap)
            if self._port_busy[port] and self._inject_free[port] <= now:
                self._port_busy[port] = False
                self._busy_ports -= 1
        return self._busy_ports / self.n_ports

    def time_of_flight(self, src: int, dest: int, now: float) -> float:
        """Latency of the first packet of a transfer entering at ``now``."""
        penalty = self.config.deflection_hops_per_load * self._load(now)
        return (int(self._hops[src, dest]) + penalty) * self._hop

    # -- injection -------------------------------------------------------------
    def _check_ports(self, src: int, dest: int, n_packets: int) -> None:
        if not 0 <= src < self.n_ports:
            raise ValueError(f"bad src port {src}")
        if not 0 <= dest < self.n_ports:
            raise ValueError(f"bad dest port {dest}")
        if n_packets < 1:
            raise ValueError("n_packets must be >= 1")

    def _check_batch(self, src: int, dests, counts, payloads):
        """Validate a fan-out; returns ``(dests, counts)`` as int64
        arrays, or ``None`` for an empty batch."""
        if not (len(dests) == len(counts) == len(payloads)):
            raise ValueError("dests, counts, payloads must align")
        if len(dests) == 0:
            return None
        if not 0 <= src < self.n_ports:
            raise ValueError(f"bad src port {src}")
        d = np.asarray(dests, dtype=np.int64)
        c = np.asarray(counts, dtype=np.int64)
        if not ((0 <= d) & (d < self.n_ports)).all():
            bad = int(d[(d < 0) | (d >= self.n_ports)][0])
            raise ValueError(f"bad dest port {bad}")
        if not (c >= 1).all():
            raise ValueError("n_packets must be >= 1")
        return d, c

    def _inject(self, src: int, n_packets: int, gap: float,
                now: float) -> tuple:
        """Serialise one transfer on ``src``; returns (start, end)."""
        inj_start = max(now, self._inject_free[src])
        self.stats.total_injection_wait_s += inj_start - now
        inj_end = inj_start + n_packets * gap
        self._inject_free[src] = inj_end
        self.stats.packets_sent += n_packets
        self.stats.transfers += 1
        if self._obs_on:
            self._m_packets.inc(n_packets)
            self._m_transfers.inc()
            self._m_inj_wait.observe(inj_start - now)
        return inj_start, inj_end

    def _inject_batch(self, src: int, c: np.ndarray, gap: float,
                      now: float) -> np.ndarray:
        """Serialise a fan-out on ``src`` back to back.

        Returns the ``m + 1`` injection boundaries: group ``k`` starts
        at ``seq[k]`` and ends at ``seq[k + 1]``.  The scalar recurrence
        ``end_k = end_{k-1} + n_k * gap`` is a strictly sequential
        accumulate, so the vectorised form rounds identically; the
        stats mirror the scalar loop's accumulation order exactly.
        """
        m = c.size
        seq = np.empty(m + 1, np.float64)
        seq[0] = max(now, self._inject_free[src])
        np.multiply(c, gap, out=seq[1:])
        np.add.accumulate(seq, out=seq)
        self._inject_free[src] = float(seq[m])
        waits = seq[:m] - now
        acc = self.stats.total_injection_wait_s
        for w in waits.tolist():
            acc += w
        self.stats.total_injection_wait_s = acc
        n_total = int(c.sum())
        self.stats.packets_sent += n_total
        self.stats.transfers += m
        if self._obs_on:
            self._m_packets.inc(n_total)
            self._m_transfers.inc(m)
            self._m_inj_wait.observe_many(waits)
        return seq

    def _mark_busy(self, src: int, until: float) -> None:
        if not self._port_busy[src]:
            self._port_busy[src] = True
            self._busy_ports += 1
        heappush(self._busy_heap, (until, src))

    # -- transfers -----------------------------------------------------------
    def transmit(self, src: int, dest: int, n_packets: int,
                 payload: Any = None, inject_rate: Optional[float] = None,
                 ) -> Event:
        """Send ``n_packets`` fine-grained packets from ``src`` to ``dest``.

        Returns an event that fires when the *last* packet has been
        ejected at the destination; at that moment the destination's
        receiver callback is invoked with ``(src, payload, n_packets)``.

        ``inject_rate`` (packets/s) caps injection below the switch line
        rate — used when the PCIe side, not the network, feeds the VIC
        slower than one packet per hop cycle.
        """
        self._check_ports(src, dest, n_packets)
        now = self.engine.now
        hop = self._hop
        gap = max(hop, 1.0 / inject_rate) if inject_rate else hop

        # 1. injection serialisation at the source port (reserved now:
        # the sender's VIC owns its own port)
        inj_start, inj_end = self._inject(src, n_packets, gap, now)
        self._mark_busy(src, inj_end)

        # 2. time of flight of the first packet
        penalty = self.config.deflection_hops_per_load * self._load(now)
        tof = (int(self._hops[src, dest]) + penalty) * hop
        first_arrival = inj_start + gap + tof

        done = CompletionEvent(self.engine, fabric="dv", op="transmit",
                               src=src, dest=dest, words=n_packets)
        self.engine.call_in(first_arrival - now, self._arrive, src, dest,
                            n_packets, inj_end + tof, now, payload,
                            done.succeed)
        return done

    def transmit_batch(self, src: int, dests: Sequence[int],
                       counts: Sequence[int], payloads: Sequence[Any],
                       inject_rate: Optional[float] = None) -> FanOut:
        """Send per-destination packet groups back to back from ``src``.

        Semantically identical to calling :meth:`transmit` once per
        group, in order, at the current instant, but priced in one
        vectorised pass; kernels that fan one host batch out to many
        destinations (GUPS epochs, counter exchanges) should call this
        instead of looping.

        Returns one :class:`FanOut` for the whole batch.  A caller that
        waits on it calls :meth:`FanOut.join` first, at the point it
        would have built an ``AllOf`` over per-group events; a
        fire-and-forget caller drops it.
        """
        checked = self._check_batch(src, dests, counts, payloads)
        if checked is None:
            return FanOut(self.engine, src, [])
        fan = FanOut(self.engine, src, payloads, int(checked[1].sum()))
        self._queue_batch(src, checked, payloads, inject_rate,
                          fan._delivered)
        return fan

    def post(self, src: int, dests: Sequence[int], counts: Sequence[int],
             payloads: Sequence[Any],
             inject_rate: Optional[float] = None) -> None:
        """Send per-destination effect groups back to back from ``src``,
        fire and forget.

        Priced and delivered exactly as :meth:`transmit_batch`, but
        with no completion: a group's payload is held only by its own
        arrival and delivery entries, so it is freed when that group
        lands (a :class:`FanOut` keeps every payload until the last
        one does).
        """
        checked = self._check_batch(src, dests, counts, payloads)
        if checked is not None:
            self._queue_batch(src, checked, payloads, inject_rate, None)

    def _queue_batch(self, src: int, checked: tuple,
                     payloads: Sequence[Any], inject_rate: Optional[float],
                     done: Optional[Callable[[Any], Any]]) -> None:
        """Price a checked fan-out and queue each group's arrival, to
        report its delivery through ``done(payload)``."""
        delays, floors, dl, cl = self._price_batch(src, *checked,
                                                   inject_rate)
        engine = self.engine
        now = engine._now
        arrive = self._arrive
        # inlined Engine.call_in (same arithmetic: _now + delay)
        queue = engine._queue
        for k in range(len(dl)):
            engine._seq += 1
            heappush(queue, (now + delays[k], engine._seq, arrive,
                             (src, dl[k], cl[k], floors[k], now,
                              payloads[k], done)))

    def post_fifo(self, src: int, dests: Sequence[int],
                  counts: Sequence[int], words: Sequence[np.ndarray],
                  inject_rate: Optional[float] = None) -> None:
        """Send groups of raw words to the destinations' surprise FIFOs,
        fire and forget.

        ``words[k]`` is a 1-D ``uint64`` array of ``counts[k]`` words.
        Priced and delivered exactly as :meth:`transmit_batch` with
        ``FifoPush(words[k])`` payloads whose fan-out nobody joins, but
        with no effect objects and no completion, and a delivery the
        destination FIFO can hold (:meth:`SurpriseFIFO.hold
        <repro.dv.fifo.SurpriseFIFO.hold>`) takes no heap entry: it
        lands when the FIFO is next observed.
        """
        checked = self._check_batch(src, dests, counts, words)
        if checked is None:
            return
        delays, floors, dl, cl = self._price_batch(src, *checked,
                                                   inject_rate)
        engine = self.engine
        now = engine._now
        arrive = self._arrive_fifo
        queue = engine._queue
        for k in range(len(dl)):
            engine._seq += 1
            heappush(queue, (now + delays[k], engine._seq, arrive,
                             (src, dl[k], cl[k], floors[k], now,
                              words[k])))

    def _price_batch(self, src: int, d: np.ndarray, c: np.ndarray,
                     inject_rate: Optional[float]) -> tuple:
        """Serialise a checked fan-out on ``src`` and price its groups:
        lists of first-arrival delays, ejection floors, destinations
        and counts."""
        m = d.size
        now = self.engine.now
        hop = self._hop
        gap = max(hop, 1.0 / inject_rate) if inject_rate else hop

        seq = self._inject_batch(src, c, gap, now)
        self._mark_busy(src, float(seq[m]))

        penalty = self.config.deflection_hops_per_load * self._load(now)
        tof = (self._hops[src, d] + penalty) * hop
        delays = ((seq[:m] + gap) + tof - now).tolist()
        floors = (seq[1:] + tof).tolist()
        return delays, floors, d.tolist(), c.tolist()

    def scatter(self, src: int, dests: Sequence[int],
                counts: Sequence[int], payloads: Sequence[Any],
                inject_rate: Optional[float] = None) -> Event:
        """Send per-destination packet groups from one source.

        Models the paper's "source aggregation" pattern: the host batches
        packets bound for *many* destinations into one PCIe transfer; the
        VIC then streams them into the switch back to back.  Injection is
        serialised across the whole batch; ejection is serialised per
        destination.  Returns the joined :class:`FanOut`, firing when
        every group has been delivered.
        """
        return self.transmit_batch(src, dests, counts, payloads,
                                   inject_rate=inject_rate).join()

    # -- arrival / ejection ---------------------------------------------------
    def _arrive(self, src: int, dest: int, n: int, floor: float,
                sent_at: float, payload: Any,
                done: Optional[Callable[[Any], Any]]) -> None:
        """First packet reaches ``dest``: reserve its ejection port.

        The port is reserved at *arrival* time — not at call time — so
        streams claim it in causal order (a transfer scheduled later but
        arriving earlier must not queue behind one that merely reserved
        first).  ``floor`` (``inj_end + tof``) keeps the stream from
        ejecting faster than it was injected.
        """
        engine = self.engine
        t = engine.now
        ej_end = self._reserve(dest, n, floor, t)
        engine.call_in(ej_end - t, self._deliver, src, dest, n, sent_at,
                       payload, done)

    def _arrive_fifo(self, src: int, dest: int, n: int, floor: float,
                     sent_at: float, words: np.ndarray) -> None:
        """:meth:`_arrive` for a :meth:`post_fifo` group: the delivery
        takes the key ``call_in`` would give its entry, and the
        destination FIFO holds it under that key if it can."""
        engine = self.engine
        t = engine._now
        ej_end = self._reserve(dest, n, floor, t)
        # inlined Engine.call_in (same arithmetic: _now + delay)
        engine._seq += 1
        at = t + (ej_end - t)
        fifo = self._fifos[dest]
        if fifo is None or not fifo.hold(at, engine._seq, src, words):
            heappush(engine._queue,
                     (at, engine._seq, self._deliver,
                      (src, dest, n, sent_at, FifoPush(words), None)))

    def _reserve(self, dest: int, n: int, floor: float, t: float) -> float:
        """Reserve ``dest``'s ejection port for ``n`` packets whose first
        reaches it at ``t``; returns when the last is ejected."""
        ej_start = self._eject_free[dest]
        if t >= ej_start:
            ej_start = t
        wait = ej_start - t
        self.stats.total_ejection_wait_s += wait
        if self._obs_on:
            self._m_ej_wait.observe(wait)
        ej_end = ej_start + (n - 1) * self._hop
        if floor > ej_end:
            ej_end = floor
        self._eject_free[dest] = ej_end
        return ej_end

    def _deliver(self, src: int, dest: int, n: int, sent_at: float,
                 payload: Any, done: Optional[Callable[[Any], Any]]) -> None:
        """Eject the last packet: hand the effect to the receiver, then
        report completion through ``done(payload)`` (a transfer's
        ``CompletionEvent.succeed`` or a fan-out's ``_delivered``)."""
        eff = payload
        fsite = self._faults
        if fsite is not None and isinstance(eff, (MemWrite, FifoPush)):
            eff = apply_flow_faults(fsite, eff, src, dest, sent_at,
                                    self.engine.now)
            if eff is None:
                # the whole batch was lost on the fabric; the transfer
                # still "completes" from the sender's perspective (sends
                # are one-sided and fire-and-forget) — recovering lost
                # data is the reliable transport's job, not the network's
                if done is not None:
                    done(payload)
                return
        receiver = self._receivers[dest]
        if receiver is not None:
            receiver(src, eff, n)
        if done is not None:
            done(payload)


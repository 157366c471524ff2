"""Flow-level Data Vortex network model for long benchmark runs.

The cycle-accurate switch (:mod:`repro.dv.switch`) is exact but costs one
Python iteration per node per cycle — far too slow for benchmarks that
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
from repro.dv.topology import DataVortexTopology
from repro.dv.vic import FifoPush, MemWrite
from repro.faults import injector as fltreg
from repro.obs import registry as obsreg
from repro.sim.engine import Engine, _Wakeup
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
    (``np.add.accumulate`` is sequential).  All times it hands the
    engine are Python floats.

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
    def attach(self, port: int, receiver: Receiver) -> None:
        """Connect ``receiver`` to ``port``; called once per VIC."""
        if self._receivers[port] is not None:
            raise ValueError(f"port {port} already attached")
        self._receivers[port] = receiver

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

    # -- injection (port-local bookkeeping, shared with the sharded view) --
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
                            n_packets, inj_end + tof, now, payload, done)
        return done

    def transmit_batch(self, src: int, dests: Sequence[int],
                       counts: Sequence[int], payloads: Sequence[Any],
                       inject_rate: Optional[float] = None,
                       collect: bool = True) -> List[Event]:
        """Send per-destination packet groups back to back from ``src``.

        Semantically identical to calling :meth:`transmit` once per
        group, in order, at the current instant, but priced in one
        vectorised pass; kernels that fan one host batch out to many
        destinations (GUPS epochs, counter exchanges) should call this
        instead of looping.

        Returns the per-group completion events when ``collect`` is
        true.  ``collect=False`` declares the caller fire-and-forget
        (nothing will ever wait on the per-group events) and returns
        ``[]`` without creating them; the completion enqueues it skips
        carry no callbacks, so every remaining event keeps its relative
        order and every simulated timestamp is unchanged.
        """
        checked = self._check_batch(src, dests, counts, payloads)
        if checked is None:
            return []
        d, c = checked
        m = d.size
        engine = self.engine
        now = engine.now
        hop = self._hop
        gap = max(hop, 1.0 / inject_rate) if inject_rate else hop

        seq = self._inject_batch(src, c, gap, now)
        self._mark_busy(src, float(seq[m]))

        penalty = self.config.deflection_hops_per_load * self._load(now)
        tof = (self._hops[src, d] + penalty) * hop
        delays = ((seq[:m] + gap) + tof - now).tolist()
        floors = (seq[1:] + tof).tolist()
        dl = d.tolist()
        cl = c.tolist()

        dones: List[Event] = []
        arrive = self._arrive
        # inlined Engine.call_in (same arithmetic: _now + delay)
        queue = engine._queue
        eng_now = engine._now
        for k in range(m):
            done = None
            if collect:
                done = CompletionEvent(engine, fabric="dv", op="transmit",
                                       src=src, dest=dl[k], words=cl[k])
                dones.append(done)
            engine._seq += 1
            heappush(queue, (eng_now + delays[k], engine._seq,
                             _Wakeup(arrive, (src, dl[k], cl[k], floors[k],
                                              now, payloads[k], done))))
        return dones

    def scatter(self, src: int, dests: Sequence[int],
                counts: Sequence[int], payloads: Sequence[Any],
                inject_rate: Optional[float] = None) -> Event:
        """Send per-destination packet groups from one source.

        Models the paper's "source aggregation" pattern: the host batches
        packets bound for *many* destinations into one PCIe transfer; the
        VIC then streams them into the switch back to back.  Injection is
        serialised across the whole batch; ejection is serialised per
        destination.  Returns an event firing when every group has been
        delivered.
        """
        events = self.transmit_batch(src, dests, counts, payloads,
                                     inject_rate=inject_rate)
        return self.engine.all_of(events)

    # -- arrival / ejection ---------------------------------------------------
    def _arrive(self, src: int, dest: int, n: int, floor: float,
                sent_at: float, payload: Any, done: Optional[Event]) -> None:
        """First packet reaches ``dest``: reserve its ejection port.

        The port is reserved at *arrival* time — not at call time — so
        streams claim it in causal order (a transfer scheduled later but
        arriving earlier must not queue behind one that merely reserved
        first).  ``floor`` (``inj_end + tof``) keeps the stream from
        ejecting faster than it was injected.
        """
        engine = self.engine
        t = engine.now
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
        engine.call_in(ej_end - t, self._deliver, src, dest, n, sent_at,
                       payload, done)

    def _deliver(self, src: int, dest: int, n: int, sent_at: float,
                 payload: Any, done: Optional[Event]) -> None:
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
                    done.succeed(payload)
                return
        receiver = self._receivers[dest]
        if receiver is not None:
            receiver(src, eff, n)
        if done is not None:
            done.succeed(payload)


class ShardedFlowNetwork(FlowNetwork):
    """Shard-local view of one Data Vortex switch (conservative PDES).

    Each shard owns a contiguous range of ports (its ranks' VICs).  A
    transmit performs every *port-local* step of the serial engine
    inline — injection serialisation, stats, sequence burning — but the
    deflection penalty needs the **global** busy-port census, so pricing
    is deferred: the call logs one ledger row, and at the window barrier
    the hub replays all shards' rows in the deterministic merge order
    (:mod:`repro.sim.pdes.ledger`) and hands the penalties back.
    :meth:`price_and_emit` then finishes each pending transfer with the
    serial engine's exact float operations, scheduling local arrivals
    directly and batching cross-shard ones for the hub to route
    (:meth:`ingest` on the destination shard).  Arrival and delivery
    are the serial engine's own :meth:`_arrive` / :meth:`_deliver`.

    Conservative-lookahead invariant: a first arrival is at least
    ``gap + min_hops*hop >= (1 + hops.min()) * hop`` after its transmit,
    so every arrival priced at a window barrier fires at or beyond the
    window end — never in the shard's past.

    Completion events for cross-shard transfers are created (API
    parity) but never fire; the runner detects programs that wait on
    them as a sharded-only deadlock and falls back to serial.
    """

    def __init__(self, engine: Engine, config: DVConfig, n_ports: int,
                 shard_of: "np.ndarray", shard_id: int) -> None:
        super().__init__(engine, config, n_ports)
        self.shard_of = shard_of
        self.shard_id = shard_id
        #: ledger rows for the current window: (t_tx, event key, lseq,
        #: src, mark_end, event lineage); 1:1 with ``_pending_px``
        self._rows: list = []
        #: deferred transfers awaiting a penalty, in row order
        self._pending_px: list = []

    # -- transfers (deferred pricing) -------------------------------------
    def transmit(self, src: int, dest: int, n_packets: int,
                 payload: Any = None, inject_rate: Optional[float] = None,
                 ) -> Event:
        self._check_ports(src, dest, n_packets)
        engine = self.engine
        now = engine.now
        hop = self._hop
        gap = max(hop, 1.0 / inject_rate) if inject_rate else hop
        inj_start, inj_end = self._inject(src, n_packets, gap, now)

        done = CompletionEvent(engine, fabric="dv", op="transmit",
                               src=src, dest=dest, words=n_packets)
        seq0 = engine.burn_seq(1)
        self._rows.append((now, engine._last, seq0, src, inj_end,
                           engine._last_lin))
        self._pending_px.append(
            (False, now, engine.stamp(), seq0, src, gap,
             inj_start, inj_end, dest, n_packets, payload, done))
        return done

    def transmit_batch(self, src: int, dests: Sequence[int],
                       counts: Sequence[int], payloads: Sequence[Any],
                       inject_rate: Optional[float] = None,
                       collect: bool = True) -> List[Event]:
        checked = self._check_batch(src, dests, counts, payloads)
        if checked is None:
            return []
        d, c = checked
        m = d.size
        engine = self.engine
        now = engine.now
        hop = self._hop
        gap = max(hop, 1.0 / inject_rate) if inject_rate else hop
        seq = self._inject_batch(src, c, gap, now)

        dones: List[Event] = []
        if collect:
            dl = d.tolist()
            cl = c.tolist()
            dones = [CompletionEvent(engine, fabric="dv", op="transmit",
                                     src=src, dest=dl[k], words=cl[k])
                     for k in range(m)]
        seq0 = engine.burn_seq(m)
        self._rows.append((now, engine._last, seq0, src, float(seq[m]),
                           engine._last_lin))
        self._pending_px.append(
            (True, now, engine.stamp(), seq0, src, gap,
             seq[:m], seq[1:].copy(), d, c, list(payloads), dones or None))
        return dones

    # -- window barrier ----------------------------------------------------
    def take_rows(self) -> list:
        rows, self._rows = self._rows, []
        return rows

    def price_and_emit(self, penalties: Sequence[float]) -> List[list]:
        """Finish the window's deferred transfers with their penalties.

        Local arrivals are scheduled on this shard's engine under their
        burned merge keys; cross-shard arrivals are returned as one
        record per destination shard, columns ready for the pipe:
        ``[sched, stamp, src, fire[], floor[], seq[],
        dest[], n[], PackedEffects, dest_shard]``.
        """
        from repro.sim.pdes.pack import pack_effects
        pending, self._pending_px = self._pending_px, []
        if len(penalties) != len(pending):
            raise RuntimeError("penalty/pending ledger mismatch")
        engine = self.engine
        hop = self._hop
        shard_of = self.shard_of
        my = self.shard_id
        out: List[list] = []
        for p, penalty in zip(pending, penalties):
            batch = p[0]
            if not batch:
                (_, now, stamp, seq0, src, gap, inj_start, inj_end,
                 dest, n_packets, payload, done) = p
                tof = (int(self._hops[src, dest]) + penalty) * hop
                first_arrival = inj_start + gap + tof
                floor = inj_end + tof
                if shard_of[dest] == my:
                    engine.schedule_key(first_arrival, now, seq0,
                                        self._arrive,
                                        (src, dest, n_packets, floor, now,
                                         payload, done),
                                        stamp=stamp)
                else:
                    out.append([now, stamp, src,
                                np.array([first_arrival]),
                                np.array([floor]),
                                np.array([seq0], np.int64),
                                np.array([dest], np.int64),
                                np.array([n_packets], np.int64),
                                pack_effects([payload]),
                                int(shard_of[dest])])
                continue
            (_, now, stamp, seq0, src, gap, inj_start, inj_end,
             d, c, payloads, dones) = p
            tof = (self._hops[src, d] + penalty) * hop
            first_arrival = (inj_start + gap) + tof
            floor = inj_end + tof
            owner = shard_of[d]
            local = owner == my
            if local.any():
                fa_l = first_arrival.tolist()
                fl_l = floor.tolist()
                dl = d.tolist()
                cl = c.tolist()
                for k in np.flatnonzero(local).tolist():
                    engine.schedule_key(
                        fa_l[k], now, seq0 + k, self._arrive,
                        (src, dl[k], cl[k], fl_l[k], now, payloads[k],
                         dones[k] if dones else None),
                        stamp=stamp)
            if not local.all():
                for sid in np.unique(owner[~local]).tolist():
                    sel = np.flatnonzero(owner == sid)
                    out.append([now, stamp, src,
                                first_arrival[sel], floor[sel],
                                seq0 + sel.astype(np.int64),
                                d[sel], c[sel],
                                pack_effects([payloads[k]
                                              for k in sel.tolist()]),
                                int(sid)])
        return out

    def ingest(self, record: list) -> None:
        """Schedule one inbound cross-shard arrival record."""
        from repro.sim.pdes.pack import unpacker
        (now, stamp, src, fire, floor, seqs, dest, n, packed,
         _sid) = record
        take = unpacker(packed).take
        schedule = self.engine.schedule_key
        arrive = self._arrive
        source = int(self.shard_of[src])
        fire_l = fire.tolist()
        floor_l = floor.tolist()
        seq_l = seqs.tolist()
        dest_l = dest.tolist()
        n_l = n.tolist()
        for k in range(len(fire_l)):
            schedule(fire_l[k], now, seq_l[k], arrive,
                     (src, dest_l[k], n_l[k], floor_l[k], now, take(k),
                      None), stamp=stamp, source=source)

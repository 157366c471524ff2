"""Fat-tree InfiniBand fabric with static-routing contention.

Geometry: ``leaf_size`` nodes per leaf switch, all leaves joined through a
spine.  Each message follows node-tx -> (leaf uplink -> leaf downlink, if
it crosses leaves) -> node-rx.  The uplink a flow takes is a *static* hash
of (src, dst) — as with real IB static routing, two flows between
different node pairs can collide on one uplink while others idle, which is
the effect that degrades unstructured (irregular) traffic on fat trees
(paper §VIII, ref [33]).

Channels are modelled as next-free-time accumulators (cut-through: a
message's serialisation time is charged once, concurrently on every
channel along its path).  Per-message state rides in the arguments of
one :meth:`Engine.call_in` wakeup, and each flow's route — a blake2b
hash per (src, dst) pair — is computed once and memoised, which is exact
because the hash is a pure function of the pair.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.faults import injector as fltreg
from repro.ib.config import IBConfig
from repro.obs import registry as obsreg
from repro.sim.engine import Engine
from repro.sim.events import CompletionEvent, Event

#: Receiver callback signature: (src, kind, payload, nbytes)
Receiver = Callable[[int, str, Any, int], None]


@dataclass
class FabricStats:
    """Aggregate fabric accounting."""

    messages: int = 0
    bytes: int = 0
    cross_leaf_messages: int = 0
    total_queue_wait_s: float = 0.0


def _route_hash(src: int, dst: int, n: int) -> int:
    """Deterministic static-routing uplink choice for the (src, dst) flow."""
    h = hashlib.blake2b(f"{src}->{dst}".encode(), digest_size=4)
    return int.from_bytes(h.digest(), "little") % n


class IBFabric:
    """The simulated IB fat tree connecting ``n_nodes`` HCAs."""

    def __init__(self, engine: Engine, config: IBConfig, n_nodes: int,
                 contention: bool = True) -> None:
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.engine = engine
        self.config = config
        self.n_nodes = n_nodes
        #: disable to model an ideal non-blocking crossbar (ablation)
        self.contention = contention
        self._free: Dict[Tuple, float] = {}
        self._receivers: List[Optional[Receiver]] = [None] * n_nodes
        self._path_cache: Dict[Tuple[int, int], tuple] = {}
        self.stats = FabricStats()
        # IB loses no messages: link-level CRC errors are retried by the
        # HCA, so a FaultPlan shows up as latency, not loss
        self._faults = fltreg.site("ib.fabric")
        self._obs_on = obsreg.enabled()
        if self._obs_on:
            self._m_messages = obsreg.counter("ib.fabric.messages")
            self._m_bytes = obsreg.counter("ib.fabric.bytes")
            self._m_cross = obsreg.counter("ib.fabric.cross_leaf_messages")
            self._m_wait = obsreg.histogram("ib.fabric.queue_wait_s")

    # -- wiring ---------------------------------------------------------------
    def attach(self, node: int, receiver: Receiver) -> None:
        if self._receivers[node] is not None:
            raise ValueError(f"node {node} already attached")
        self._receivers[node] = receiver

    def leaf_of(self, node: int) -> int:
        return node // self.config.leaf_size

    def _path(self, src: int, dst: int) -> List[Tuple]:
        """Channel keys along the route."""
        path: List[Tuple] = [("tx", src)]
        lsrc, ldst = self.leaf_of(src), self.leaf_of(dst)
        if lsrc != ldst:
            if self.contention:
                up = _route_hash(src, dst, self.config.uplinks_per_leaf)
                down = _route_hash(dst, src, self.config.uplinks_per_leaf)
            else:
                # ideal crossbar: a private channel per flow
                up = down = ("flow", src, dst)
            path.append(("up", lsrc, up))
            path.append(("down", ldst, down))
        path.append(("rx", dst))
        return path

    def hops(self, src: int, dst: int) -> int:
        """Switch hops traversed (2 within a leaf, 4 across the spine)."""
        return 2 if self.leaf_of(src) == self.leaf_of(dst) else 4

    def _cached_path(self, src: int, dst: int) -> tuple:
        key = (src, dst)
        path = self._path_cache.get(key)
        if path is None:
            path = self._path_cache[key] = tuple(self._path(src, dst))
        return path

    # -- transfers -----------------------------------------------------------
    def _check(self, src: int, dst: int, nbytes: int) -> None:
        if not 0 <= src < self.n_nodes:
            raise ValueError(f"bad src {src}")
        if not 0 <= dst < self.n_nodes:
            raise ValueError(f"bad dst {dst}")
        if nbytes < 0:
            raise ValueError("negative size")

    def transfer(self, src: int, dst: int, nbytes: int, *,
                 kind: str = "data", payload: Any = None) -> Event:
        """Move ``nbytes`` from ``src`` to ``dst``.

        Returns an event firing on arrival at ``dst``; the destination's
        receiver callback (if attached) is invoked with
        ``(src, kind, payload, nbytes)`` at that time.
        """
        self._check(src, dst, nbytes)
        cfg = self.config
        now = self.engine.now
        path = self._cached_path(src, dst)
        occupancy = max(nbytes / cfg.effective_bw, cfg.msg_gap_s)

        retry_lat = 0.0
        fs = self._faults
        if fs is not None:
            k = fs.ib_retries()
            if k:
                # each retry re-serialises the message on its channels
                # and waits out the HCA's retransmission timeout
                occupancy *= (k + 1)
                retry_lat = k * fs.plan.ib_retry_timeout_s

        free = self._free
        start = now
        for ch in path:
            t = free.get(ch, 0.0)
            if t > start:
                start = t
        self.stats.total_queue_wait_s += start - now
        busy_until = start + occupancy
        for ch in path:
            free[ch] = busy_until

        # a cross-leaf path has four channels and four switch hops
        cross = len(path) == 4
        arrival = (start + occupancy + retry_lat + cfg.wire_latency_s
                   + (4 if cross else 2) * cfg.hop_latency_s)

        self.stats.messages += 1
        self.stats.bytes += nbytes
        if cross:
            self.stats.cross_leaf_messages += 1
        if self._obs_on:
            self._m_messages.inc()
            self._m_bytes.inc(nbytes)
            self._m_wait.observe(start - now)
            if cross:
                self._m_cross.inc()

        done = CompletionEvent(self.engine, fabric="ib", op=kind,
                               src=src, dest=dst, nbytes=nbytes)
        self.engine.call_in(arrival - now, self._deliver,
                            src, dst, nbytes, kind, payload, done)
        return done

    def _deliver(self, src: int, dst: int, nbytes: int, kind: str,
                 payload: Any, done: Event) -> None:
        receiver = self._receivers[dst]
        if receiver is not None:
            receiver(src, kind, payload, nbytes)
        done.succeed(payload)


class ShardedIBFabric(IBFabric):
    """Shard-local view of the fat tree (conservative PDES).

    Channel next-free times are *global* (uplinks are shared across the
    whole tree), so — like the DV deflection penalty — pricing is
    deferred: each transfer logs one ledger row, the hub replays the
    merged rows (:class:`repro.sim.pdes.ledger.IBReplayer`) and returns
    the serial arrival times, and :meth:`price_and_emit` schedules the
    delivery: receiver invocation on the destination's shard, sender
    completion on this one (the serial ``_deliver`` performs both; the
    split halves are keyed identically, and everything they subsequently
    schedule is ordered by the deterministic merge key).

    Only ``eager`` transfers shard exactly — a rendezvous handshake
    couples the two ranks *mid-window*, under the lookahead.  Any other
    kind raises :class:`~repro.sim.pdes.ShardingUnsupported`, which the
    runner converts into a transparent serial rerun.

    Lookahead invariant: arrival ≥ t_tx + msg_gap + wire + 2·hop, the
    window width, so barrier-time scheduling never lands in the past.
    """

    def __init__(self, engine, config, n_nodes: int, contention: bool = True,
                 shard_of: "np.ndarray" = None, shard_id: int = 0) -> None:
        super().__init__(engine, config, n_nodes, contention=contention)
        self.shard_of = shard_of
        self.shard_id = shard_id
        #: set when a program attempted a non-shardable operation
        self.unsupported: Optional[str] = None
        #: (t_tx, event key, lseq, src, dst, nbytes, event lineage);
        #: 1:1 with _pending_px
        self._rows: list = []
        self._pending_px: list = []

    def transfer(self, src: int, dst: int, nbytes: int, *,
                 kind: str = "data", payload: Any = None) -> Event:
        if kind != "eager":
            from repro.sim.pdes import ShardingUnsupported
            self.unsupported = (
                f"IB transfer kind {kind!r} (rendezvous/RDMA) couples "
                "ranks under the lookahead; rerunning serially")
            raise ShardingUnsupported(self.unsupported, reason="rendezvous")
        self._check(src, dst, nbytes)
        engine = self.engine
        now = engine.now

        # int stats are summed exactly across shards at the end of the
        # run; queue wait (float, order-sensitive) comes from the
        # replayer, so it is not accumulated here.
        self.stats.messages += 1
        self.stats.bytes += nbytes
        cross = self.leaf_of(src) != self.leaf_of(dst)
        if cross:
            self.stats.cross_leaf_messages += 1
        if self._obs_on:
            self._m_messages.inc()
            self._m_bytes.inc(nbytes)
            if cross:
                self._m_cross.inc()

        done = CompletionEvent(engine, fabric="ib", op=kind,
                               src=src, dest=dst, nbytes=nbytes)
        seq0 = engine.burn_seq(1)
        self._rows.append((now, engine._last, seq0, src, dst, nbytes,
                           engine._last_lin))
        self._pending_px.append(
            (now, engine.stamp(), seq0, src, dst, nbytes, kind,
             payload, done))
        return done

    # -- window barrier ----------------------------------------------------
    def take_rows(self) -> list:
        rows, self._rows = self._rows, []
        return rows

    def price_and_emit(self, arrivals) -> list:
        """Schedule the window's deliveries from their arrival times.

        Returns one record per cross-shard transfer for the hub to
        route: ``[sched, stamp, seq, src, dst, nbytes,
        kind, payload, arrival, dest_shard]``.
        """
        pending, self._pending_px = self._pending_px, []
        if len(arrivals) != len(pending):
            raise RuntimeError("arrival/pending ledger mismatch")
        engine = self.engine
        shard_of = self.shard_of
        my = self.shard_id
        out = []
        for p, arrival in zip(pending, arrivals):
            now, stamp, seq0, src, dst, nbytes, kind, payload, done = p
            if shard_of[dst] == my:
                engine.schedule_key(arrival, now, seq0, self._deliver,
                                    (src, dst, nbytes, kind, payload, done),
                                    stamp=stamp)
            else:
                out.append([now, stamp, seq0, src, dst, nbytes, kind,
                            payload, arrival, int(shard_of[dst])])
                engine.schedule_key(arrival, now, seq0,
                                    self._complete, (done, payload),
                                    stamp=stamp)
        return out

    def ingest(self, record: list) -> None:
        (now, stamp, seq0, src, dst, nbytes, kind, payload,
         arrival) = record[:9]
        self.engine.schedule_key(arrival, now, seq0, self._receive,
                                 (src, dst, nbytes, kind, payload),
                                 stamp=stamp,
                                 source=int(self.shard_of[src]))

    # -- split delivery halves -------------------------------------------
    def _receive(self, src: int, dst: int, nbytes: int, kind: str,
                 payload: Any) -> None:
        receiver = self._receivers[dst]
        if receiver is not None:
            receiver(src, kind, payload, nbytes)

    @staticmethod
    def _complete(done: Event, payload: Any) -> None:
        done.succeed(payload)

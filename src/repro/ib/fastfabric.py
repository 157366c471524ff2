"""Fast IB fabric — the ``flow_impl="fast"`` engine for the fat tree.

Per-message state rides in the arguments of one :meth:`Engine.call_in`
wakeup instead of a marker :class:`~repro.sim.events.Event` and a
closure (the wakeup takes the marker's sequence slot, so ordering is
identical to the reference), and the static-routing path — a blake2b
hash per message in the reference — is memoised per (src, dst) flow,
which is exact because the hash is a pure function of the pair.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.ib.fabric import IBFabric
from repro.sim.events import CompletionEvent, Event


class FastIBFabric(IBFabric):
    """Drop-in :class:`IBFabric` with call-in deliveries and cached paths.

    Same constructor, same public surface, same simulated timings to
    the last bit — selected via ``ClusterSpec(flow_impl="fast")``.
    """

    def __init__(self, engine, config, n_nodes: int,
                 contention: bool = True) -> None:
        super().__init__(engine, config, n_nodes, contention=contention)
        self._path_cache: Dict[Tuple[int, int], tuple] = {}

    def _cached_path(self, src: int, dst: int) -> tuple:
        key = (src, dst)
        path = self._path_cache.get(key)
        if path is None:
            path = self._path_cache[key] = tuple(self._path(src, dst))
        return path

    def transfer(self, src: int, dst: int, nbytes: int, *,
                 kind: str = "data", payload: Any = None) -> Event:
        if not 0 <= src < self.n_nodes:
            raise ValueError(f"bad src {src}")
        if not 0 <= dst < self.n_nodes:
            raise ValueError(f"bad dst {dst}")
        if nbytes < 0:
            raise ValueError("negative size")
        cfg = self.config
        now = self.engine.now
        path = self._cached_path(src, dst)
        occupancy = max(nbytes / cfg.effective_bw, cfg.msg_gap_s)

        retry_lat = 0.0
        fs = self._faults
        if fs is not None:
            k = fs.ib_retries()
            if k:
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


class ShardedIBFabric(FastIBFabric):
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
        #: (t_tx, origin, lseq, src, dst, nbytes); 1:1 with _pending_px
        self._rows: list = []
        self._pending_px: list = []

    def transfer(self, src: int, dst: int, nbytes: int, *,
                 kind: str = "data", payload: Any = None) -> Event:
        if kind != "eager":
            from repro.sim.pdes import ShardingUnsupported
            self.unsupported = (
                f"IB transfer kind {kind!r} (rendezvous/RDMA) couples "
                "ranks under the lookahead; rerunning serially")
            raise ShardingUnsupported(self.unsupported)
        if not 0 <= src < self.n_nodes:
            raise ValueError(f"bad src {src}")
        if not 0 <= dst < self.n_nodes:
            raise ValueError(f"bad dst {dst}")
        if nbytes < 0:
            raise ValueError("negative size")
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
        origin = engine._origin
        self._rows.append((now, origin, seq0, src, dst, nbytes))
        self._pending_px.append(
            (now, origin, seq0, src, dst, nbytes, kind, payload, done))
        return done

    # -- window barrier ----------------------------------------------------
    def take_rows(self) -> list:
        rows, self._rows = self._rows, []
        return rows

    def price_and_emit(self, arrivals) -> list:
        """Schedule the window's deliveries from their arrival times.

        Returns one record per cross-shard transfer for the hub to
        route: ``[sched, origin, seq, src, dst, nbytes, kind, payload,
        arrival, dest_shard]``.
        """
        pending, self._pending_px = self._pending_px, []
        if len(arrivals) != len(pending):
            raise RuntimeError("arrival/pending ledger mismatch")
        engine = self.engine
        shard_of = self.shard_of
        my = self.shard_id
        out = []
        for p, arrival in zip(pending, arrivals):
            now, origin, seq0, src, dst, nbytes, kind, payload, done = p
            if shard_of[dst] == my:
                engine.schedule_key(arrival, now, origin, seq0,
                                    self._deliver,
                                    (src, dst, nbytes, kind, payload, done))
            else:
                out.append([now, origin, seq0, src, dst, nbytes, kind,
                            payload, arrival, int(shard_of[dst])])
                engine.schedule_key(arrival, now, origin, seq0,
                                    self._complete, (done, payload))
        return out

    def ingest(self, record: list) -> None:
        now, origin, seq0, src, dst, nbytes, kind, payload, arrival = \
            record[:9]
        self.engine.schedule_key(arrival, now, origin, seq0,
                                 self._receive,
                                 (src, dst, nbytes, kind, payload))

    # -- split delivery halves -------------------------------------------
    def _receive(self, src: int, dst: int, nbytes: int, kind: str,
                 payload: Any) -> None:
        receiver = self._receivers[dst]
        if receiver is not None:
            receiver(src, kind, payload, nbytes)

    @staticmethod
    def _complete(done: Event, payload: Any) -> None:
        done.succeed(payload)

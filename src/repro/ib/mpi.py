"""An mpi4py-flavoured MPI layer over the simulated IB fabric.

Each rank holds an :class:`MPIEndpoint` with blocking ``send``/``recv``
(generator methods driven from the rank process), non-blocking
``isend``/``irecv`` (returning joinable processes), and the usual
collectives.  The eager/rendezvous protocol switch, receive-side copies,
unexpected-message queueing, and per-message software overheads follow
how a real MPI-over-IB stack behaves — these are precisely the costs the
paper's irregular workloads suffer from.

Payloads are real Python objects (usually NumPy arrays): the simulation
moves actual data, so benchmark results can be validated numerically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.ib.config import IBConfig
from repro.ib.fabric import IBFabric
from repro.obs import registry as obsreg
from repro.sim.engine import Engine
from repro.sim.events import CompletionEvent, Event
from repro.sim.resources import Resource

ANY_SOURCE = -1
ANY_TAG = -1

_CONTROL_BYTES = 64          # RTS / CTS control message size
_COLLECTIVE_TAG_BASE = 1 << 24


def payload_nbytes(data: Any) -> int:
    """Best-effort message size for a payload object."""
    if isinstance(data, np.ndarray):
        return data.nbytes
    if isinstance(data, (bytes, bytearray)):
        return len(data)
    if isinstance(data, (int, float, np.integer, np.floating)) or data is None:
        return 8
    if isinstance(data, (tuple, list)):
        return sum(payload_nbytes(x) for x in data) + 8
    if isinstance(data, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v)
                   for k, v in data.items()) + 8
    return 64  # generic pickled-object floor


def _take(buckets: Dict[Tuple[int, int], list], key: Tuple[int, int]):
    """Pop the oldest item of one matching bucket; drop it once empty."""
    bucket = buckets[key]
    item = bucket.pop(0)
    if not bucket:
        del buckets[key]
    return item


@dataclass(slots=True)
class _Arrival:
    src: int
    tag: int
    kind: str            # "eager" or "rts"
    payload: Any
    nbytes: int
    rts_id: int = -1
    stamp: int = 0       # matching order among unexpected arrivals


class _PostedRecv(Event):
    """A blocked receive's event, stamped with its post order."""

    __slots__ = ("stamp",)


class MPIEndpoint:
    """Per-rank MPI handle."""

    def __init__(self, runtime: "MPIRuntime", rank: int) -> None:
        self.runtime = runtime
        self.rank = rank
        self.engine = runtime.engine
        self.config = runtime.config
        self.fabric = runtime.fabric
        #: host CPU serialising per-message software overheads — two
        #: concurrent isends cannot both burn the core at once
        self._cpu = Resource(runtime.engine, capacity=1,
                             name=f"mpi{rank}:cpu")
        # Matching queues, bucketed by (src, tag) so an arrival or a
        # specific receive looks at O(1) entries, not O(P).  Buckets hold
        # stamped items in stamp order; the per-endpoint stamp orders
        # posts against posts and arrivals against arrivals, so "oldest
        # stamp among the matching bucket heads" is exactly MPI's "first
        # match in post (or arrival) order".  Empty buckets are deleted:
        # every collective uses a fresh tag.
        self._stamp = 0
        #: posted receives, keyed by their (src, tag) pattern (wildcards
        #: included)
        self._recv_waiters: Dict[Tuple[int, int], List[_PostedRecv]] = {}
        #: unexpected arrivals, keyed by their actual (src, tag)
        self._unexpected: Dict[Tuple[int, int], List[_Arrival]] = {}
        self._cts_waiters: Dict[int, Event] = {}
        self._data_waiters: Dict[int, Event] = {}
        # MPI non-overtaking: every eager/RTS envelope carries a
        # per-(src, dst) sequence number stamped at send time; the
        # receiver releases arrivals to matching strictly in that
        # order, so a message the fabric delivered early (a small RTS
        # overtaking a large eager transfer, a lucky retry draw) can
        # never be matched before an earlier send from the same source.
        self._send_seq: Dict[int, int] = {}
        self._recv_next_seq: Dict[int, int] = {}
        self._recv_held: Dict[int, Dict[int, _Arrival]] = {}
        self._collective_seq = itertools.count()
        self._verbs = None
        # hot-path event and process labels, formatted once per rank
        self._recv_name = f"recv@{rank}"
        self._isend_name = f"isend @{rank}"
        self._irecv_name = f"irecv @{rank}"
        # shared series across endpoints; label picks apart the protocol
        self._obs_on = obsreg.enabled()
        if self._obs_on:
            self._m_sends = {p: obsreg.counter("ib.mpi.sends", protocol=p)
                             for p in ("self", "eager", "rendezvous")}
            self._m_recvs = obsreg.counter("ib.mpi.recvs")
            self._m_collectives = obsreg.counter("ib.mpi.collectives")
            self._coll_hists: Dict[str, object] = {}
        self.fabric.attach(rank, self._on_fabric)

    @property
    def verbs(self):
        """Lazily created verbs (RDMA) context sharing this HCA."""
        if self._verbs is None:
            from repro.ib.verbs import VerbsContext
            self._verbs = VerbsContext(self)
        return self._verbs

    @property
    def size(self) -> int:
        return self.runtime.n_ranks

    # -- fabric receive path -----------------------------------------------
    def _on_fabric(self, src: int, kind: str, envelope: Any,
                   nbytes: int) -> None:
        if kind.startswith("rdma_"):
            self.verbs._serve(kind, envelope)
            return
        if kind == "cts":
            rts_id = envelope
            self._cts_waiters.pop(rts_id).succeed(None)
            return
        if kind == "rdata":
            rts_id, data = envelope
            self._data_waiters.pop(rts_id).succeed(data)
            return
        tag, rts_id, data, seq = envelope
        arrival = _Arrival(src, tag, kind, data, nbytes, rts_id)
        expected = self._recv_next_seq.get(src, 0)
        if seq != expected:
            # delivered out of send order: hold until the gap closes
            self._recv_held.setdefault(src, {})[seq] = arrival
            return
        self._deliver(arrival)
        expected += 1
        held = self._recv_held.get(src)
        while held:
            nxt = held.pop(expected, None)
            if nxt is None:
                break
            self._deliver(nxt)
            expected += 1
        self._recv_next_seq[src] = expected

    def _deliver(self, arrival: _Arrival) -> None:
        """Hand one in-order arrival to matching (posted receives in
        post order, else the unexpected queue in arrival order)."""
        src, tag = arrival.src, arrival.tag
        waiters = self._recv_waiters
        best = None
        for key in ((src, tag), (src, ANY_TAG), (ANY_SOURCE, tag),
                    (ANY_SOURCE, ANY_TAG)):
            bucket = waiters.get(key)
            if bucket is not None and (best is None
                                       or bucket[0].stamp < best[0].stamp):
                best, best_key = bucket, key
        if best is not None:
            _take(waiters, best_key).succeed(arrival)
            return
        self._stamp += 1
        arrival.stamp = self._stamp
        self._unexpected.setdefault((src, tag), []).append(arrival)

    def _next_send_seq(self, dest: int) -> int:
        seq = self._send_seq.get(dest, 0)
        self._send_seq[dest] = seq + 1
        return seq

    def _overhead(self):
        """Serialised per-message software cost (o in LogGP terms)."""
        yield self._cpu.acquire()
        try:
            yield self.engine.timeout(self.config.sw_overhead_s)
        finally:
            self._cpu.release()

    # -- point to point -----------------------------------------------------
    def send(self, dest: int, payload: Any, *, tag: int = 0,
             nbytes: Optional[int] = None) -> Generator:
        """Blocking send (eager: returns after local handoff; rendezvous:
        returns once the data transfer completes).

        The generator's value is the fabric-level
        :class:`~repro.sim.events.CompletionEvent` for the message —
        the same completion vocabulary :meth:`DataVortexAPI.send_words
        <repro.dv.api.DataVortexAPI.send_words>` returns on the DV side.
        """
        return self._send(dest, payload, tag, nbytes)

    def _send(self, dest: int, payload: Any, tag: int,
              nbytes: Optional[int]) -> Generator:
        if dest == self.rank:
            # self-sends short-circuit through the unexpected queue
            if self._obs_on:
                self._m_sends["self"].inc()
            n = (nbytes if nbytes is not None
                 else payload_nbytes(payload))
            yield from self._overhead()
            self._on_fabric(self.rank, "eager",
                            (tag, -1, payload,
                             self._next_send_seq(self.rank)), n)
            done = CompletionEvent(self.engine, fabric="ib", op="self",
                                   src=self.rank, dest=dest, tag=tag,
                                   nbytes=n,
                                   name=f"ib:self @{self.rank}")
            done.succeed(None)
            return done
        n = payload_nbytes(payload) if nbytes is None else int(nbytes)
        yield from self._overhead()
        if n <= self.config.eager_threshold_bytes:
            if self._obs_on:
                self._m_sends["eager"].inc()
            done = self.fabric.transfer(
                self.rank, dest, n + _CONTROL_BYTES, kind="eager",
                payload=(tag, -1, payload, self._next_send_seq(dest)))
            done.tag = tag      # fabric knows bytes; MPI supplies tags
            return done
        # rendezvous
        if self._obs_on:
            self._m_sends["rendezvous"].inc()
        rts_id = self.runtime.next_rts_id()
        cts = self.engine.event(name=f"cts:{rts_id}")
        self._cts_waiters[rts_id] = cts
        self.fabric.transfer(
            self.rank, dest, _CONTROL_BYTES, kind="rts",
            payload=(tag, rts_id, None, self._next_send_seq(dest)))
        yield cts
        yield self.engine.timeout(self.config.rendezvous_handshake_s)
        done = self.fabric.transfer(self.rank, dest, n, kind="rdata",
                                    payload=(rts_id, payload))
        done.tag = tag
        yield done
        return done

    def recv(self, src: int = ANY_SOURCE, *, tag: int = ANY_TAG
             ) -> Generator:
        """Blocking receive; generator value is ``(data, src, tag)``."""
        if self._obs_on:
            self._m_recvs.inc()
        yield from self._overhead()
        arrival = self._match_or_wait(src, tag)
        if isinstance(arrival, Event):
            arrival = yield arrival
        if arrival.kind == "eager":
            if arrival.nbytes:
                yield self.engine.timeout(
                    arrival.nbytes / self.config.memcpy_bw)
            return arrival.payload, arrival.src, arrival.tag
        # rendezvous: grant the sender and wait for the bulk data
        data_ev = self.engine.event(name=f"rdata:{arrival.rts_id}")
        self._data_waiters[arrival.rts_id] = data_ev
        self.fabric.transfer(self.rank, arrival.src, _CONTROL_BYTES,
                             kind="cts", payload=arrival.rts_id)
        data = yield data_ev
        return data, arrival.src, arrival.tag

    def _match_or_wait(self, src: int, tag: int):
        unexpected = self._unexpected
        if src != ANY_SOURCE and tag != ANY_TAG:
            key = (src, tag)
        else:
            # wildcard: the oldest arrival among the matching buckets
            key, oldest = None, None
            for k, bucket in unexpected.items():
                if ((src == ANY_SOURCE or k[0] == src)
                        and (tag == ANY_TAG or k[1] == tag)
                        and (oldest is None or bucket[0].stamp < oldest)):
                    key, oldest = k, bucket[0].stamp
        if key in unexpected:
            return _take(unexpected, key)
        ev = _PostedRecv(self.engine, self._recv_name)
        self._stamp += 1
        ev.stamp = self._stamp
        self._recv_waiters.setdefault((src, tag), []).append(ev)
        return ev

    def iprobe(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """Non-blocking check for a matching pending message."""
        if src != ANY_SOURCE and tag != ANY_TAG:
            return (src, tag) in self._unexpected
        return any((src == ANY_SOURCE or s == src)
                   and (tag == ANY_TAG or t == tag)
                   for s, t in self._unexpected)

    def isend(self, dest: int, payload: Any, *, tag: int = 0,
              nbytes: Optional[int] = None):
        """Non-blocking send; returns a joinable process event."""
        return self.engine.process(
            self._send(dest, payload, tag, nbytes), name=self._isend_name)

    def irecv(self, src: int = ANY_SOURCE, *, tag: int = ANY_TAG):
        """Non-blocking receive; join it to obtain ``(data, src, tag)``."""
        return self.engine.process(self.recv(src, tag=tag),
                                   name=self._irecv_name)

    def sendrecv(self, dest: int, payload: Any,
                 src: int = ANY_SOURCE, *, sendtag: int = 0,
                 recvtag: int = ANY_TAG, nbytes: Optional[int] = None
                 ) -> Generator:
        """Simultaneous exchange (deadlock-free pairwise step)."""
        return self._sendrecv(dest, payload, src, sendtag, recvtag,
                              nbytes)

    def _sendrecv(self, dest: int, payload: Any, src: int, sendtag: int,
                  recvtag: int, nbytes: Optional[int]) -> Generator:
        s = self.isend(dest, payload, tag=sendtag, nbytes=nbytes)
        r = self.irecv(src, tag=recvtag)
        got = yield r
        yield s
        return got

    # -- collectives ---------------------------------------------------------
    def _ctag(self) -> int:
        """Fresh collective-phase tag (all ranks call collectives in the
        same order, so sequence numbers agree)."""
        return _COLLECTIVE_TAG_BASE + next(self._collective_seq)

    def _timed_collective(self, op: str, gen: Generator) -> Generator:
        """Drive a collective, recording its sim-time latency per op."""
        if not self._obs_on:
            return (yield from gen)
        t0 = self.engine.now
        result = yield from gen
        self._m_collectives.inc()
        h = self._coll_hists.get(op)
        if h is None:
            h = obsreg.histogram("ib.mpi.collective_seconds", op=op)
            self._coll_hists[op] = h
        h.observe(self.engine.now - t0)
        return result

    def barrier(self) -> Generator:
        """Barrier across all ranks; the generator's value is a
        (pre-fired) :class:`~repro.sim.events.CompletionEvent` — the
        same shape the DV hardware barrier returns."""
        from repro.ib import collectives
        yield from self._timed_collective(
            "barrier", collectives.barrier(self))
        done = CompletionEvent(self.engine, fabric="ib", op="barrier",
                               src=self.rank,
                               name=f"ib:barrier @{self.rank}")
        done.succeed(None)
        return done

    def bcast(self, data: Any, root: int = 0) -> Generator:
        from repro.ib import collectives
        return (yield from self._timed_collective(
            "bcast", collectives.bcast(self, data, root)))

    def reduce(self, data: Any, op: Callable, root: int = 0) -> Generator:
        from repro.ib import collectives
        return (yield from self._timed_collective(
            "reduce", collectives.reduce(self, data, op, root)))

    def allreduce(self, data: Any, op: Callable) -> Generator:
        from repro.ib import collectives
        return (yield from self._timed_collective(
            "allreduce", collectives.allreduce(self, data, op)))

    def gather(self, data: Any, root: int = 0) -> Generator:
        from repro.ib import collectives
        return (yield from self._timed_collective(
            "gather", collectives.gather(self, data, root)))

    def allgather(self, data: Any) -> Generator:
        from repro.ib import collectives
        return (yield from self._timed_collective(
            "allgather", collectives.allgather(self, data)))

    def scatter(self, chunks: Optional[List[Any]], root: int = 0
                ) -> Generator:
        from repro.ib import collectives
        return (yield from self._timed_collective(
            "scatter", collectives.scatter(self, chunks, root)))

    def alltoall(self, chunks: List[Any]) -> Generator:
        from repro.ib import collectives
        return (yield from self._timed_collective(
            "alltoall", collectives.alltoall(self, chunks)))

    def alltoallv(self, chunks: List[Any]) -> Generator:
        from repro.ib import collectives
        return (yield from self._timed_collective(
            "alltoallv", collectives.alltoall(self, chunks)))


class MPIRuntime:
    """Owns the fabric and the per-rank endpoints."""

    def __init__(self, engine: Engine, config: IBConfig, n_ranks: int,
                 contention: bool = True, fabric_cls=None,
                 fabric=None) -> None:
        self.engine = engine
        self.config = config
        self.n_ranks = n_ranks
        # fabric_cls lets the PDES runner build its ShardedIBFabric
        # without an import cycle here; a pre-built fabric (e.g. a
        # tenancy TenantFabricView over a shared fat tree) wins outright
        if fabric is not None:
            self.fabric = fabric
        else:
            self.fabric = (fabric_cls or IBFabric)(engine, config, n_ranks,
                                                   contention=contention)
        self.endpoints = [MPIEndpoint(self, r) for r in range(n_ranks)]
        self._rts_counter = itertools.count()

    def next_rts_id(self) -> int:
        return next(self._rts_counter)

    def endpoint(self, rank: int) -> MPIEndpoint:
        return self.endpoints[rank]

"""An mpi4py-flavoured MPI layer over the simulated IB fabric.

Each rank holds an :class:`MPIEndpoint` with blocking ``send``/``recv``
(generator methods driven from the rank process), non-blocking
``isend``/``irecv`` (returning joinable :class:`Request` events driven
by callbacks, no process per message), ``waitall``, and the usual
collectives.  Every call posts its operations as one batch of plain
per-slot lists (:class:`_Batch`).  The eager/rendezvous protocol
switch, receive-side copies, unexpected-message queueing, and
per-message software overheads follow how a real MPI-over-IB stack
behaves — these are precisely the costs the paper's irregular
workloads suffer from.

Payloads are real Python objects (usually NumPy arrays): the simulation
moves actual data, so benchmark results can be validated numerically.
"""

from __future__ import annotations

import array
import collections
import itertools
from dataclasses import dataclass
from typing import (Any, Callable, Deque, Dict, Generator, List, Optional,
                    Tuple)

import numpy as np

from repro.ib.config import IBConfig
from repro.ib.fabric import IBFabric
from repro.obs import registry as obsreg
from repro.sim.engine import Engine
from repro.sim.events import CompletionEvent, Event

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


def _put(buckets: Dict[Tuple[int, int], list], key: Tuple[int, int],
         item: Any) -> None:
    """Append ``item`` to its matching bucket (a one-item list if new:
    every collective uses a fresh tag, so most buckets hold one)."""
    bucket = buckets.get(key)
    if bucket is None:
        buckets[key] = [item]
    else:
        bucket.append(item)


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


class Request(Event):
    """Handle of one non-blocking operation (:meth:`MPIEndpoint.isend`,
    :meth:`MPIEndpoint.irecv`): a batch of one, which succeeds this
    event with the operation's value.

    No process drives it: the protocol steps are plain callbacks.
    ``tests/test_mpi_requests.py`` holds the schedule to a
    process-per-request oracle, entry for entry.
    """

    __slots__ = ()

    _complete = Event._succeed_soon


class _Wait(Event):
    """What a blocking call's rank process waits on.

    The protocol step that completes the call fires it in place, so the
    process resumes inside that step's entry, not one queue pass later.
    """

    __slots__ = ()

    def _complete(self, value: Any) -> None:
        self._ok = True
        self._value = value
        self._process()


#: ``payloads[i]`` of a receive slot
_RECV = object()
_ONE_RECV = (_RECV,)
#: ``values[i]`` of a slot still in flight
_PENDING = object()


class _Batch:
    """The operations of one post, as plain lists indexed by slot in
    start order: an ``isend``, ``irecv``, blocking ``send`` or ``recv``
    (a batch of one with a ``handle``), a ``sendrecv``'s pair or an
    all-to-all's 2(P-1).

    A batch of one completes its handle.  A larger one keeps each
    slot's value, and its join (:class:`_Join`) waits on one slot at a
    time; a slot that completes while not waited on takes no entry —
    it reserves the key its completion entry would have had (``dues``).
    """

    __slots__ = ("engine", "peers", "tags", "payloads", "nbytes", "handle",
                 "values", "dues", "claimed", "waiting", "waiter")

    def __init__(self, engine: Engine, peers, tags, payloads,
                 nbytes: Optional[int] = None, handle: Any = None) -> None:
        self.engine = engine
        self.peers = peers
        self.tags = tags
        #: what a send slot sends; :data:`_RECV` for a receive slot
        self.payloads = payloads
        #: the size every send of the batch claims (None: measured)
        self.nbytes = nbytes
        self.handle = handle
        if handle is None:
            self.values: List[Any] = [_PENDING] * len(peers)
            #: reserved completion keys (raw words: no int per slot)
            self.dues = array.array("q", bytes(8 * len(peers)))
        #: slots granted the host CPU so far (see MPIEndpoint._cpu_end)
        self.claimed = 0
        self.waiting = -1
        self.waiter: Optional[Callable] = None

    def complete(self, i: int, value: Any) -> None:
        """Slot ``i`` is done: run its waiter's step at the entry its
        completion takes, or reserve that entry's key."""
        if self.handle is not None:
            self.handle._complete(value)
            return
        self.values[i] = value
        if i == self.waiting:
            # (dropping the waiter breaks the batch <-> join cycle)
            waiter, self.waiting, self.waiter = self.waiter, -1, None
            self.engine.call_soon(waiter)
        else:
            self.dues[i] = self.engine.reserve()

    def wait(self, i: int, fn: Callable) -> None:
        """Run ``fn()`` once slot ``i`` is done, as a waiter on its
        completion event would run: at its entry if it is still ahead,
        else on a fresh queue pass."""
        if self.values[i] is _PENDING:
            self.waiting, self.waiter = i, fn
            return
        due = self.dues[i]
        if self.engine.reserved_passed(due):
            self.engine.call_soon(fn)
        else:
            self.engine.run_reserved(due, fn)


class _Slot:
    """A slot's ``finish`` callback, for the protocol steps that carry
    one (a receive, a rendezvous send's data)."""

    __slots__ = ("batch", "i")

    def __init__(self, batch: _Batch, i: int) -> None:
        self.batch = batch
        self.i = i

    def __call__(self, value: Any) -> None:
        self.batch.complete(self.i, value)


class _Requests(list):
    """:meth:`MPIEndpoint.waitall`'s requests, joined like slots."""

    def wait(self, i: int, fn: Callable) -> None:
        req = self[i]
        callbacks = req._waiters()
        if callbacks is None:
            req.engine.call_soon(fn)
        else:
            callbacks.append(fn)


class _Join(_Wait):
    """Joins a batch's slots (or :meth:`MPIEndpoint.waitall`'s
    requests) one at a time, in ``order``, as a process yielding each
    in turn would — waiting for one still in flight, re-delivering one
    already done on a fresh queue pass — but as callbacks, so the
    waiting process resumes once, when the last join step fires this
    event in place.
    """

    __slots__ = ("_ops", "_order", "_next")

    def __init__(self, engine: Engine, ops: Any, order, name: str) -> None:
        super().__init__(engine, name)
        self._ops = ops
        self._order = order
        self._next = 0
        self._step()

    def _step(self, _ev: Any = None) -> None:
        i = self._next
        if i == len(self._order):
            self._complete(None)
            return
        self._next = i + 1
        self._ops.wait(self._order[i], self._step)


class MPIEndpoint:
    """Per-rank MPI handle."""

    def __init__(self, runtime: "MPIRuntime", rank: int) -> None:
        self.runtime = runtime
        self.rank = rank
        self.engine = runtime.engine
        self.config = runtime.config
        self.fabric = runtime.fabric
        #: host CPU serialising per-message software overheads — two
        #: concurrent isends cannot both burn the core at once; later
        #: claims wait here, FIFO, one entry per batch (see _claim)
        self._cpu_busy = False
        self._cpu_queue: Deque[_Batch] = collections.deque()
        # Matching queues, bucketed by (src, tag) so an arrival or a
        # specific receive looks at O(1) entries, not O(P).  Buckets hold
        # stamped items in stamp order; the per-endpoint stamp orders
        # posts against posts and arrivals against arrivals, so "oldest
        # stamp among the matching bucket heads" is exactly MPI's "first
        # match in post (or arrival) order".  Empty buckets are deleted:
        # every collective uses a fresh tag.
        self._stamp = 0
        #: posted receives as ``(stamp, finish)``, keyed by their
        #: (src, tag) pattern (wildcards included)
        self._recv_waiters: Dict[Tuple[int, int],
                                 List[Tuple[int, Callable]]] = {}
        #: unexpected arrivals, keyed by their actual (src, tag)
        self._unexpected: Dict[Tuple[int, int], List[_Arrival]] = {}
        #: rendezvous sends waiting for their CTS, by RTS id
        self._cts_waiters: Dict[int, tuple] = {}
        #: rendezvous receives waiting for their data, by RTS id
        self._data_waiters: Dict[int, tuple] = {}
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
        # hot-path event labels, formatted once per rank
        self._recv_name = f"recv@{rank}"
        self._send_name = f"send@{rank}"
        self._isend_name = f"isend @{rank}"
        self._irecv_name = f"irecv @{rank}"
        self._waitall_name = f"waitall@{rank}"
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
            self.engine.call_soon(self._handshake,
                                  *self._cts_waiters.pop(envelope))
            return
        if kind == "rdata":
            rts_id, data = envelope
            finish, src, tag = self._data_waiters.pop(rts_id)
            self.engine.call_soon(finish, (data, src, tag))
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
                                       or bucket[0][0] < best[0][0]):
                best, best_key = bucket, key
        if best is not None:
            _stamp, finish = _take(waiters, best_key)
            self.engine.call_soon(self._arrived, arrival, finish)
            return
        self._stamp += 1
        arrival.stamp = self._stamp
        _put(self._unexpected, (src, tag), arrival)

    def _next_send_seq(self, dest: int) -> int:
        seq = self._send_seq.get(dest, 0)
        self._send_seq[dest] = seq + 1
        return seq

    # -- posting and the host CPU ------------------------------------------
    def _post(self, batch: _Batch) -> None:
        """Start a non-blocking batch on the next queue pass.

        Its starts were one ``call_soon`` per operation, taking
        consecutive sequence numbers, so nothing could run between
        them: one entry at the first number runs them all, and the
        others stay reserved."""
        self.engine.call_soon(self._claim, batch)
        self.engine.reserve(len(batch.peers) - 1)

    def _claim(self, batch: _Batch) -> None:
        """Claim the host CPU for every operation of ``batch``, in slot
        order: each runs once the CPU has spent one software overhead
        (o in LogGP terms) on it, FIFO behind earlier claims.

        A claim is granted at once on an idle CPU, else when the
        previous holder's overhead ends.  Each grant is a zero-delay
        wakeup, and the overhead ends ``o`` after the grant runs, not
        after the claim: claims and grants on different ranks can come
        in different orders within one instant.  A batch's claims are
        consecutive, so they wait as one queue entry.
        """
        if not self._cpu_busy:
            self._cpu_busy = True
            batch.claimed = 1
            self.engine.call_soon(self._cpu_grant, batch, 0)
            if len(batch.peers) == 1:
                return
        self._cpu_queue.append(batch)

    def _cpu_grant(self, batch: _Batch, i: int) -> None:
        self.engine.call_in(self.config.sw_overhead_s, self._cpu_end,
                            batch, i)

    def _cpu_end(self, batch: _Batch, i: int) -> None:
        queue = self._cpu_queue
        if queue:
            head = queue[0]
            k = head.claimed
            head.claimed = k + 1
            if k + 1 == len(head.peers):
                queue.popleft()
            self.engine.call_soon(self._cpu_grant, head, k)
        else:
            self._cpu_busy = False
        if batch.payloads[i] is _RECV:
            self._start_recv(batch.peers[i], batch.tags[i],
                             _Slot(batch, i))
        elif batch.peers[i] == self.rank:
            self._send_self(batch, i)
        else:
            self._send_wire(batch, i)

    # -- protocol steps (shared by the blocking and non-blocking calls) -----
    def _send_self(self, batch: _Batch, i: int) -> None:
        """A self-send short-circuits through the unexpected queue."""
        payload, tag = batch.payloads[i], batch.tags[i]
        n = (batch.nbytes if batch.nbytes is not None
             else payload_nbytes(payload))
        if self._obs_on:
            self._m_sends["self"].inc()
        self._on_fabric(self.rank, "eager",
                        (tag, -1, payload, self._next_send_seq(self.rank)),
                        n)
        done = CompletionEvent(self.engine, fabric="ib", op="self",
                               src=self.rank, dest=self.rank, tag=tag,
                               nbytes=n, name=f"ib:self @{self.rank}")
        done._succeed_soon(None)
        batch.complete(i, done)

    def _send_wire(self, batch: _Batch, i: int) -> None:
        dest, payload, tag = batch.peers[i], batch.payloads[i], batch.tags[i]
        n = (payload_nbytes(payload) if batch.nbytes is None
             else int(batch.nbytes))
        if n <= self.config.eager_threshold_bytes:
            if self._obs_on:
                self._m_sends["eager"].inc()
            done = self.fabric.transfer(
                self.rank, dest, n + _CONTROL_BYTES, kind="eager",
                payload=(tag, -1, payload, self._next_send_seq(dest)))
            done.tag = tag      # fabric knows bytes; MPI supplies tags
            # (a joined batch reads no send's value: keep no event alive)
            batch.complete(i, done if batch.handle is not None else None)
            return
        # rendezvous: RTS now, the data once the receiver's CTS is back
        if self._obs_on:
            self._m_sends["rendezvous"].inc()
        rts_id = self.runtime.next_rts_id()
        self._cts_waiters[rts_id] = (batch, i, n, rts_id)
        self.fabric.transfer(
            self.rank, dest, _CONTROL_BYTES, kind="rts",
            payload=(tag, rts_id, None, self._next_send_seq(dest)))

    def _handshake(self, batch: _Batch, i: int, n: int,
                   rts_id: int) -> None:
        self.engine.call_in(self.config.rendezvous_handshake_s,
                            self._send_data, batch, i, n, rts_id)

    def _send_data(self, batch: _Batch, i: int, n: int,
                   rts_id: int) -> None:
        done = self.fabric.transfer(self.rank, batch.peers[i], n,
                                    kind="rdata",
                                    payload=(rts_id, batch.payloads[i]))
        done.tag = batch.tags[i]
        done.callbacks.append(_Slot(batch, i))

    def _start_recv(self, src: int, tag: int, finish: Callable) -> None:
        """A receive starts, its overhead spent; ``finish`` gets its
        ``(data, src, tag)``."""
        if self._obs_on:
            self._m_recvs.inc()
        self._post_recv(src, tag, finish)

    def _post_recv(self, src: int, tag: int, finish: Callable) -> None:
        """Match a receive against the unexpected queue, else post it."""
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
            self._arrived(_take(unexpected, key), finish)
            return
        self._stamp += 1
        _put(self._recv_waiters, (src, tag), (self._stamp, finish))

    def _arrived(self, arrival: _Arrival, finish: Callable) -> None:
        """A receive met its message: copy an eager payload out, or
        grant a rendezvous sender and wait for its data."""
        if arrival.kind == "eager":
            value = (arrival.payload, arrival.src, arrival.tag)
            if arrival.nbytes:
                self.engine.call_in(arrival.nbytes / self.config.memcpy_bw,
                                    finish, value)
            else:
                finish(value)
            return
        self._data_waiters[arrival.rts_id] = (finish, arrival.src,
                                              arrival.tag)
        self.fabric.transfer(self.rank, arrival.src, _CONTROL_BYTES,
                             kind="cts", payload=arrival.rts_id)

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
        wait = _Wait(self.engine, self._send_name)
        self._claim(_Batch(self.engine, (dest,), (tag,), (payload,), nbytes,
                           wait))
        return (yield wait)

    def recv(self, src: int = ANY_SOURCE, *, tag: int = ANY_TAG
             ) -> Generator:
        """Blocking receive; generator value is ``(data, src, tag)``."""
        wait = _Wait(self.engine, self._recv_name)
        self._claim(_Batch(self.engine, (src,), (tag,), _ONE_RECV,
                           handle=wait))
        return (yield wait)

    def iprobe(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """Non-blocking check for a matching pending message."""
        if src != ANY_SOURCE and tag != ANY_TAG:
            return (src, tag) in self._unexpected
        return any((src == ANY_SOURCE or s == src)
                   and (tag == ANY_TAG or t == tag)
                   for s, t in self._unexpected)

    def isend(self, dest: int, payload: Any, *, tag: int = 0,
              nbytes: Optional[int] = None) -> Request:
        """Non-blocking send; returns a joinable :class:`Request`."""
        req = Request(self.engine, self._isend_name)
        self._post(_Batch(self.engine, (dest,), (tag,), (payload,), nbytes,
                          req))
        return req

    def irecv(self, src: int = ANY_SOURCE, *, tag: int = ANY_TAG
              ) -> Request:
        """Non-blocking receive; join it to obtain ``(data, src, tag)``."""
        req = Request(self.engine, self._irecv_name)
        self._post(_Batch(self.engine, (src,), (tag,), _ONE_RECV,
                          handle=req))
        return req

    def waitall(self, requests) -> Event:
        """One event that fires once every request has completed (read
        each result from its request's ``value``); yield it straight
        away.  The requests are joined in list order."""
        requests = _Requests(requests)
        return _Join(self.engine, requests, range(len(requests)),
                     self._waitall_name)

    def _post_batch(self, peers, tags, payloads,
                    nbytes: Optional[int] = None) -> _Batch:
        """Post one batch of non-blocking operations (a send per
        payload, a receive per :data:`_RECV`), started in slot order;
        :meth:`_join` it and read ``values``."""
        batch = _Batch(self.engine, peers, tags, payloads, nbytes)
        self._post(batch)
        return batch

    def _join(self, batch: _Batch, order) -> Event:
        """:meth:`waitall` over a batch's slots, in ``order``."""
        return _Join(self.engine, batch, order, self._waitall_name)

    def sendrecv(self, dest: int, payload: Any,
                 src: int = ANY_SOURCE, *, sendtag: int = 0,
                 recvtag: int = ANY_TAG, nbytes: Optional[int] = None
                 ) -> Generator:
        """Simultaneous exchange (deadlock-free pairwise step)."""
        return self._sendrecv(dest, payload, src, sendtag, recvtag,
                              nbytes)

    def _sendrecv(self, dest: int, payload: Any, src: int, sendtag: int,
                  recvtag: int, nbytes: Optional[int]) -> Generator:
        # the send starts first; the receive is joined first
        batch = self._post_batch((dest, src), (sendtag, recvtag),
                                 (payload, _RECV), nbytes)
        yield self._join(batch, (1, 0))
        return batch.values[1]

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
                 contention: bool = True, fabric=None) -> None:
        self.engine = engine
        self.config = config
        self.n_ranks = n_ranks
        # a pre-built fabric (e.g. a tenancy TenantFabricView over a
        # shared fat tree) wins outright
        if fabric is not None:
            self.fabric = fabric
        else:
            self.fabric = IBFabric(engine, config, n_ranks,
                                   contention=contention)
        self.endpoints = [MPIEndpoint(self, r) for r in range(n_ranks)]
        self._rts_counter = itertools.count()

    def next_rts_id(self) -> int:
        return next(self._rts_counter)

    def endpoint(self, rank: int) -> MPIEndpoint:
        return self.endpoints[rank]

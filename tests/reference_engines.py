"""Scalar reference engines: test oracles for the production models.

:class:`ReferenceFlowNetwork` and :class:`ReferenceIBFabric` re-express
:class:`~repro.dv.flow.FlowNetwork` and :class:`~repro.ib.fabric.IBFabric`
the slow, obvious way — one marker :class:`~repro.sim.events.Event` plus
a closure per arrival and per delivery, ``topology.min_hops`` walked per
transmit, a blake2b route hash and tuple-keyed channels per IB message,
and a transmit-at-a-time loop for batches.  Their FIFO fan-outs land
with a heap entry per delivery: ``ReferenceFlowNetwork.post_fifo`` is
one ``transmit`` of a ``FifoPush`` per group, and
:class:`EagerFifoFlowNetwork` is the production model with
``post_fifo`` as ``transmit_batch`` with the fan-out dropped.
``ReferenceFlowNetwork.post`` is one ``transmit`` per group.
:class:`PerGroupFlowNetwork` and
:class:`ReferenceDataVortexAPI` complete a DV fan-out as it was first
written: one :class:`~repro.sim.events.CompletionEvent` per destination
group, joined by an :class:`~repro.sim.events.AllOf` built after the
host's PCIe share.  :class:`ReferenceMPIEndpoint` is the MPI layer as it
was first written: one generator process per ``isend``/``irecv``, the
host CPU as a counted :class:`~repro.sim.resources.Resource` plus a
:class:`~repro.sim.events.Timeout` per overhead, one event per blocked
receive, and collectives that join their requests one at a time.
:func:`reference_run_fft1d` is the FFT-1D as first staged: the input
built as ``a + 1j*b``, each rank cutting its block from the shared
input, and validation over the concatenated output.
:class:`ReferenceCycleSwitch` is the Data Vortex switch simulated node
by node, one :class:`FlightRecord` per packet, against which the
array-based :class:`~repro.dv.switch.CycleSwitch` is checked.  They
are the models the suite was first written against;
``tests/test_flow_equivalence.py``, ``tests/test_dv_fanout.py``,
``tests/test_fifo_deferral.py``, ``tests/test_mpi_requests.py``,
``tests/test_fft_memory.py`` and ``tests/test_dv_fastswitch.py`` hold
the production code to them bit for bit.  Nothing under ``src/`` uses
them.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from heapq import heappush
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cluster import run_spmd
from repro.core.metrics import fft1d_flops, gflops_fft1d
from repro.dv.api import DataVortexAPI
from repro.dv.flow import FlowNetwork, apply_flow_faults
from repro.dv.switch import Ejection, SwitchObs, SwitchStats
from repro.dv.topology import Coord, DataVortexTopology
from repro.dv.vic import FifoPush, MemWrite
from repro.faults import injector as fltreg
from repro.ib import mpi
from repro.ib.fabric import IBFabric, _route_hash
from repro.sim.events import CompletionEvent, Event
from repro.sim.resources import Resource


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
                       ) -> "GroupCompletions":
        if not (len(dests) == len(counts) == len(payloads)):
            raise ValueError("dests, counts, payloads must align")
        return GroupCompletions(
            self.engine, [self.transmit(src, int(d), int(c), payload=p,
                                        inject_rate=inject_rate)
                          for d, c, p in zip(dests, counts, payloads)])

    def post(self, src: int, dests: Sequence[int], counts: Sequence[int],
             payloads: Sequence[Any],
             inject_rate: Optional[float] = None) -> None:
        """One ``transmit`` per group, its event dropped."""
        for d, c, p in zip(dests, counts, payloads):
            self.transmit(src, int(d), int(c), payload=p,
                          inject_rate=inject_rate)

    def post_fifo(self, src: int, dests: Sequence[int],
                  counts: Sequence[int], words: Sequence[np.ndarray],
                  inject_rate: Optional[float] = None) -> None:
        """Every delivery a heap entry: one ``transmit`` of a
        ``FifoPush`` per group, its event dropped."""
        for d, c, w in zip(dests, counts, words):
            self.transmit(src, int(d), int(c), payload=FifoPush(w),
                          inject_rate=inject_rate)


class EagerFifoFlowNetwork(FlowNetwork):
    """The production flow model with no held FIFO deliveries:
    ``post_fifo`` is ``transmit_batch`` with ``FifoPush`` payloads and
    the fan-out dropped."""

    def post_fifo(self, src: int, dests: Sequence[int],
                  counts: Sequence[int], words: Sequence[np.ndarray],
                  inject_rate: Optional[float] = None) -> None:
        self.transmit_batch(src, dests, counts,
                            [FifoPush(w) for w in words],
                            inject_rate=inject_rate)


class GroupCompletions(list):
    """A fan-out's per-group completion events; :meth:`join` builds the
    ``AllOf`` over them, where a production fan-out's ``join`` stands."""

    def __init__(self, engine, events: List[Event]) -> None:
        super().__init__(events)
        self.engine = engine

    def join(self) -> Event:
        return self.engine.all_of(self)


class PerGroupFlowNetwork(FlowNetwork):
    """The production flow model with the fan-out completion it first
    had: one :class:`CompletionEvent` per destination group."""

    def transmit_batch(self, src: int, dests: Sequence[int],
                       counts: Sequence[int], payloads: Sequence[Any],
                       inject_rate: Optional[float] = None,
                       ) -> GroupCompletions:
        checked = self._check_batch(src, dests, counts, payloads)
        if checked is None:
            return GroupCompletions(self.engine, [])
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
        dones = GroupCompletions(engine, [])
        for k in range(m):
            done = CompletionEvent(engine, fabric="dv", op="transmit",
                                   src=src, dest=dl[k], words=cl[k])
            dones.append(done)
            engine.call_in(delays[k], self._arrive, src, dl[k], cl[k],
                           floors[k], now, payloads[k], done.succeed)
        return dones


class ReferenceDataVortexAPI(DataVortexAPI):
    """``send_batch`` as first written: the per-group events of the
    fan-out joined by an ``AllOf`` once the PCIe share is charged."""

    def send_batch(self, dests, addrs, values, *, counter=None,
                   cached_headers=True, via="dma", aggregate_source=True):
        dests = np.atleast_1d(np.asarray(dests, dtype=np.int64))
        addrs = np.atleast_1d(np.asarray(addrs, dtype=np.int64))
        values = np.atleast_1d(np.asarray(values, dtype=np.uint64))
        if not (dests.size == addrs.size == values.size):
            raise ValueError("dests, addrs, values must align")
        if dests.size == 0:
            raise ValueError("empty batch")
        yield from self._overhead()

        order = np.argsort(dests, kind="stable")
        dests_s, addrs_s, values_s = dests[order], addrs[order], values[order]
        uniq, starts = np.unique(dests_s, return_index=True)
        bounds = list(starts[1:]) + [dests_s.size]
        rate = self._inject_rate(via, cached_headers)

        events = []
        if aggregate_source:
            group_counts = np.diff(np.append(starts, dests_s.size))
            group_payloads = [MemWrite(addrs=addrs_s[lo:hi],
                                       values=values_s[lo:hi],
                                       counter=counter)
                              for lo, hi in zip(starts, bounds)]
            events = self.network.transmit_batch(
                self.rank, uniq, group_counts, group_payloads,
                inject_rate=rate)
            yield from self._charge_tx(via, dests.size, cached_headers)
        else:
            for d, lo, hi in zip(uniq, starts, bounds):
                events.append(self.network.transmit(
                    self.rank, int(d), int(hi - lo),
                    payload=MemWrite(addrs=addrs_s[lo:hi],
                                     values=values_s[lo:hi],
                                     counter=counter),
                    inject_rate=rate))
                yield from self._charge_tx(via, int(hi - lo), cached_headers)
        return self.engine.all_of(events)


class ReferenceIBFabric(IBFabric):
    """Scalar fat tree: a route hash per message, channels keyed by
    tuples in a dict, marker deliveries."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._free: Dict[Tuple, float] = {}

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


class _PostedRecv(Event):
    """A blocked receive's event, stamped with its post order."""

    __slots__ = ("stamp",)


class ReferenceMPIEndpoint(mpi.MPIEndpoint):
    """MPI endpoint with a generator process per non-blocking call."""

    def __init__(self, runtime, rank: int) -> None:
        super().__init__(runtime, rank)
        self._cpu = Resource(runtime.engine, capacity=1,
                             name=f"mpi{rank}:cpu")

    # -- fabric receive path -----------------------------------------------
    def _on_fabric(self, src: int, kind: str, envelope: Any,
                   nbytes: int) -> None:
        if kind.startswith("rdma_"):
            self.verbs._serve(kind, envelope)
            return
        if kind == "cts":
            self._cts_waiters.pop(envelope).succeed(None)
            return
        if kind == "rdata":
            rts_id, data = envelope
            self._data_waiters.pop(rts_id).succeed(data)
            return
        tag, rts_id, data, seq = envelope
        arrival = mpi._Arrival(src, tag, kind, data, nbytes, rts_id)
        expected = self._recv_next_seq.get(src, 0)
        if seq != expected:
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

    def _deliver(self, arrival) -> None:
        src, tag = arrival.src, arrival.tag
        waiters = self._recv_waiters
        best = None
        for key in ((src, tag), (src, mpi.ANY_TAG), (mpi.ANY_SOURCE, tag),
                    (mpi.ANY_SOURCE, mpi.ANY_TAG)):
            bucket = waiters.get(key)
            if bucket is not None and (best is None
                                       or bucket[0].stamp < best[0].stamp):
                best, best_key = bucket, key
        if best is not None:
            mpi._take(waiters, best_key).succeed(arrival)
            return
        self._stamp += 1
        arrival.stamp = self._stamp
        self._unexpected.setdefault((src, tag), []).append(arrival)

    def _overhead(self):
        yield self._cpu.acquire()
        try:
            yield self.engine.timeout(self.config.sw_overhead_s)
        finally:
            self._cpu.release()

    # -- point to point -----------------------------------------------------
    def send(self, dest: int, payload: Any, *, tag: int = 0,
             nbytes: Optional[int] = None):
        return self._send(dest, payload, tag, nbytes)

    def _send(self, dest, payload, tag, nbytes):
        cfg = self.config
        if dest == self.rank:
            if self._obs_on:
                self._m_sends["self"].inc()
            n = (nbytes if nbytes is not None
                 else mpi.payload_nbytes(payload))
            yield from self._overhead()
            self._on_fabric(self.rank, "eager",
                            (tag, -1, payload,
                             self._next_send_seq(self.rank)), n)
            done = CompletionEvent(self.engine, fabric="ib", op="self",
                                   src=self.rank, dest=dest, tag=tag,
                                   nbytes=n, name=f"ib:self @{self.rank}")
            done.succeed(None)
            return done
        n = mpi.payload_nbytes(payload) if nbytes is None else int(nbytes)
        yield from self._overhead()
        if n <= cfg.eager_threshold_bytes:
            if self._obs_on:
                self._m_sends["eager"].inc()
            done = self.fabric.transfer(
                self.rank, dest, n + mpi._CONTROL_BYTES, kind="eager",
                payload=(tag, -1, payload, self._next_send_seq(dest)))
            done.tag = tag
            return done
        if self._obs_on:
            self._m_sends["rendezvous"].inc()
        rts_id = self.runtime.next_rts_id()
        cts = self.engine.event(name=f"cts:{rts_id}")
        self._cts_waiters[rts_id] = cts
        self.fabric.transfer(
            self.rank, dest, mpi._CONTROL_BYTES, kind="rts",
            payload=(tag, rts_id, None, self._next_send_seq(dest)))
        yield cts
        yield self.engine.timeout(cfg.rendezvous_handshake_s)
        done = self.fabric.transfer(self.rank, dest, n, kind="rdata",
                                    payload=(rts_id, payload))
        done.tag = tag
        yield done
        return done

    def recv(self, src: int = mpi.ANY_SOURCE, *, tag: int = mpi.ANY_TAG):
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
        data_ev = self.engine.event(name=f"rdata:{arrival.rts_id}")
        self._data_waiters[arrival.rts_id] = data_ev
        self.fabric.transfer(self.rank, arrival.src, mpi._CONTROL_BYTES,
                             kind="cts", payload=arrival.rts_id)
        data = yield data_ev
        return data, arrival.src, arrival.tag

    def _match_or_wait(self, src: int, tag: int):
        unexpected = self._unexpected
        if src != mpi.ANY_SOURCE and tag != mpi.ANY_TAG:
            key = (src, tag)
        else:
            key, oldest = None, None
            for k, bucket in unexpected.items():
                if ((src == mpi.ANY_SOURCE or k[0] == src)
                        and (tag == mpi.ANY_TAG or k[1] == tag)
                        and (oldest is None or bucket[0].stamp < oldest)):
                    key, oldest = k, bucket[0].stamp
        if key in unexpected:
            return mpi._take(unexpected, key)
        ev = _PostedRecv(self.engine, self._recv_name)
        self._stamp += 1
        ev.stamp = self._stamp
        self._recv_waiters.setdefault((src, tag), []).append(ev)
        return ev

    def isend(self, dest: int, payload: Any, *, tag: int = 0,
              nbytes: Optional[int] = None):
        return self.engine.process(
            self._send(dest, payload, tag, nbytes), name=self._isend_name)

    def irecv(self, src: int = mpi.ANY_SOURCE, *, tag: int = mpi.ANY_TAG):
        return self.engine.process(self.recv(src, tag=tag),
                                   name=self._irecv_name)

    def waitall(self, requests):
        raise NotImplementedError("the reference joins one at a time")

    def _sendrecv(self, dest, payload, src, sendtag, recvtag, nbytes):
        s = self.isend(dest, payload, tag=sendtag, nbytes=nbytes)
        r = self.irecv(src, tag=recvtag)
        got = yield r
        yield s
        return got

    # -- collectives ---------------------------------------------------------
    def _alltoall(self, chunks: List[Any]):
        from repro.ib.collectives import _stage
        p, rank = self.size, self.rank
        if len(chunks) != p:
            raise ValueError("need one chunk per rank")
        out: List[Any] = [None] * p
        out[rank] = chunks[rank]
        tag = self._ctag()
        yield from _stage(self)
        order = [(rank + i) % p for i in range(1, p)]
        recvs = {src: self.irecv(src, tag=tag) for src in order}
        sends = [self.isend(dst, chunks[dst], tag=tag) for dst in order]
        for src, req in recvs.items():
            got, _, _ = yield req
            out[src] = got
        for req in sends:
            yield req
        return out

    def alltoall(self, chunks: List[Any]):
        return (yield from self._timed_collective(
            "alltoall", self._alltoall(chunks)))

    def alltoallv(self, chunks: List[Any]):
        return (yield from self._timed_collective(
            "alltoallv", self._alltoall(chunks)))


# --------------------------------------------------------------- FFT-1D ---


def reference_fft_input(seed: int, n_points: int) -> np.ndarray:
    """The FFT-1D input as first built: ``a + 1j*b``."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n_points)
            + 1j * rng.standard_normal(n_points))


def reference_fft_program(ctx, x: np.ndarray, n1: int, n2: int,
                          fabric: str):
    """The four-step rank program as first written: it cuts its own
    block from the shared input and keeps every temporary alive."""
    from repro.dv.vic import MemWrite
    from repro.kernels.fft1d import (_CTR_FFT, _complex_to_words,
                                     _twiddle, _words_to_complex)
    P = ctx.size
    N = n1 * n2
    rows = n1 // P
    cols = n2 // P
    r0 = ctx.rank * rows
    block = x.reshape(n2, n1).T[r0:r0 + rows].copy()

    yield from ctx.barrier()
    ctx.mark("t0")

    block = np.fft.fft(block, axis=1)
    yield from ctx.compute(flops=rows * fft1d_flops(n2), dispatches=1)
    block = _twiddle(block, r0, N)
    yield from ctx.compute(flops=6.0 * rows * n2, dispatches=1)

    if fabric == "mpi":
        mpi = ctx.mpi
        chunks = [np.ascontiguousarray(block[:, d * cols:(d + 1) * cols])
                  for d in range(P)]
        yield from ctx.compute(stream_bytes=2 * block.nbytes, dispatches=1)
        got = yield from mpi.alltoall(chunks)
        mine = np.concatenate(got, axis=0)
        yield from ctx.compute(stream_bytes=2 * mine.nbytes, dispatches=1)
    else:
        api = ctx.dv
        expected_words = 2 * (n1 - rows) * cols
        yield from api.set_counter(_CTR_FFT, expected_words)
        yield from ctx.barrier()
        rate = api._inject_rate("dma", True)
        for d in [(ctx.rank + 1 + i) % P for i in range(P)]:
            sub = np.ascontiguousarray(block[:, d * cols:(d + 1) * cols])
            words = _complex_to_words(sub)
            j1 = np.arange(r0, r0 + rows)[:, None, None]
            j2l = np.arange(cols)[None, :, None]
            half = np.arange(2)[None, None, :]
            addrs = (2 * (j1 * cols + j2l) + half).ravel()
            if d == ctx.rank:
                api.vic.memory.scatter(addrs, words)
                yield from ctx.compute(stream_bytes=2 * words.nbytes)
            else:
                api.network.transmit(
                    ctx.rank, d, words.size,
                    payload=MemWrite(addrs=addrs, values=words,
                                     counter=_CTR_FFT),
                    inject_rate=rate)
        yield from api.vic.pcie.dma_write(
            2 * rows * (n2 - cols) * 8)
        yield from api.wait_counter_zero(_CTR_FFT)
        yield from api.drain_overlapped(2 * n1 * cols)
        mine = _words_to_complex(
            api.vic.memory.read_range(0, 2 * n1 * cols)).reshape(n1, cols)

    mine = np.fft.fft(mine, axis=0)
    yield from ctx.compute(flops=cols * fft1d_flops(n1), dispatches=1)

    yield from ctx.barrier()
    elapsed = ctx.since("t0")
    return {"elapsed": elapsed, "out": mine}


def reference_fft_check(outs: Sequence[np.ndarray], x: np.ndarray
                        ) -> Tuple[float, bool]:
    """``(max_error, valid)`` as first computed: the outputs
    concatenated into X and compared with ``np.fft.fft(x)`` whole."""
    N = x.size
    C = np.concatenate(list(outs), axis=1)
    X = np.ascontiguousarray(C).reshape(-1)
    ref = np.fft.fft(x)
    return (float(np.max(np.abs(X - ref))),
            bool(np.allclose(X, ref, atol=1e-6 * N)))


def reference_run_fft1d(spec, fabric: str, *, log2_points: int,
                        validate: bool = False
                        ) -> Tuple[Dict[str, object], List[Any]]:
    """``run_fft1d`` as first staged; also returns the rank values."""
    P = spec.n_nodes
    N = 1 << log2_points
    half = log2_points // 2
    n1, n2 = 1 << half, 1 << (log2_points - half)
    x = reference_fft_input(spec.seed, N)

    def program(ctx):
        return (yield from reference_fft_program(ctx, x, n1, n2, fabric))

    res = run_spmd(spec, program, fabric)
    elapsed = max(v["elapsed"] for v in res.values)
    out: Dict[str, object] = {
        "fabric": fabric,
        "n_nodes": P,
        "n_points": N,
        "elapsed_s": elapsed,
        "gflops": gflops_fft1d(N, elapsed),
    }
    if validate:
        out["max_error"], out["valid"] = reference_fft_check(
            [v["out"] for v in res.values], x)
    return out, res.values


@dataclass(slots=True)
class FlightRecord:
    """Per-packet bookkeeping inside :class:`ReferenceCycleSwitch`."""

    pkt_id: int
    payload: Any
    dest_h: int
    dest_a: int
    coord: Coord
    inject_cycle: int
    hops: int = 0
    deflections: int = 0


class ReferenceCycleSwitch:
    """The Data Vortex switch simulated node by node: one
    :class:`FlightRecord` per packet, cylinders resolved inner to outer
    through a claim set, and per-packet obs recording.  Same interface,
    fault rules and ``dv.fastswitch`` injection draw as
    :class:`~repro.dv.switch.CycleSwitch`."""

    def __init__(self, topology: DataVortexTopology,
                 failed_nodes: Optional[set] = None,
                 ttl_hops: Optional[int] = None) -> None:
        self.topo = topology
        self.cycle = 0
        self._next_id = 0
        self.input_queues: List[Deque[FlightRecord]] = [
            collections.deque() for _ in range(topology.ports)]
        #: current node occupancy: coord -> packet
        self.occupancy: Dict[Coord, FlightRecord] = {}
        self.failed_nodes: set = set(failed_nodes or ())
        plan = fltreg.active()
        if plan is not None and plan.switch_node_fail_prob > 0.0:
            self.failed_nodes |= plan.switch_failures(topology)
            if ttl_hops is None and self.failed_nodes:
                ttl_hops = 16 * (topology.cylinders + topology.angles)
        for c in self.failed_nodes:
            if not (0 <= c[0] < topology.cylinders
                    and 0 <= c[1] < topology.height
                    and 0 <= c[2] < topology.angles):
                raise ValueError(f"failed node {c} outside the topology")
        self.ttl_hops = ttl_hops
        self.stats = SwitchStats()
        self._obs = SwitchObs.create()
        self._faults = fltreg.site("dv.fastswitch")

    def inject(self, src_port: int, dest_port: int,
               payload: Any = None) -> int:
        topo = self.topo
        if not 0 <= src_port < topo.ports:
            raise ValueError(f"bad src_port {src_port}")
        if not 0 <= dest_port < topo.ports:
            raise ValueError(f"bad dest_port {dest_port}")
        dest_h, dest_a = divmod(dest_port, topo.angles)
        rec = FlightRecord(
            pkt_id=self._next_id, payload=payload,
            dest_h=dest_h, dest_a=dest_a,
            coord=topo.port_coord(src_port, 0),
            inject_cycle=-1,  # set on actual injection
        )
        self._next_id += 1
        if self._faults is not None and self._faults.drop():
            self.stats.dropped += 1
            if self._obs is not None:
                self._obs.dropped.inc()
            return rec.pkt_id
        self.input_queues[src_port].append(rec)
        return rec.pkt_id

    @property
    def in_flight(self) -> int:
        return len(self.occupancy)

    @property
    def pending(self) -> int:
        return sum(len(q) for q in self.input_queues)

    def step(self) -> List[Ejection]:
        obs = self._obs
        if obs is not None:
            _drop0 = self.stats.dropped
            _blk0 = self.stats.injection_blocked_cycles
            _inj0 = self.stats.injected
        topo = self.topo
        innermost = topo.cylinders - 1
        moves: Dict[Coord, FlightRecord] = {}
        # Nodes that will receive a packet along a *same-cylinder* path
        # this cycle.  Arrival on that path asserts the deflection signal,
        # blocking the outer cylinder (or injection, on cylinder 0).
        same_cyl_claims: set = set()
        ejections: List[Ejection] = []

        by_cylinder: List[List[FlightRecord]] = [
            [] for _ in range(topo.cylinders)]
        for rec in self.occupancy.values():
            by_cylinder[rec.coord[0]].append(rec)

        failed = self.failed_nodes
        for c in range(innermost, -1, -1):
            for rec in by_cylinder[c]:
                _, h, a = rec.coord
                if self.ttl_hops is not None and rec.hops >= self.ttl_hops:
                    self.stats.dropped += 1
                    continue
                if c == innermost:
                    target = topo.deflect(c, h, a)
                    if target in failed:
                        self.stats.dropped += 1   # nowhere to go
                        continue
                    moves[target] = rec
                    same_cyl_claims.add(target)
                    rec.hops += 1
                else:
                    eligible = topo.descent_eligible(c, h, rec.dest_h)
                    descend_target = topo.descend(c, h, a)
                    if (eligible and descend_target not in same_cyl_claims
                            and descend_target not in failed):
                        moves[descend_target] = rec
                        rec.hops += 1
                    else:
                        target = topo.deflect(c, h, a)
                        if target in failed:
                            self.stats.dropped += 1
                            continue
                        moves[target] = rec
                        same_cyl_claims.add(target)
                        rec.hops += 1
                        if eligible:
                            rec.deflections += 1

        for port, queue in enumerate(self.input_queues):
            if not queue:
                continue
            node = topo.port_coord(port, 0)
            if node in failed:
                self.stats.dropped += len(queue)
                queue.clear()
                continue
            rec = queue[0]
            if topo.port_coord(topo.coord_port(rec.dest_h, rec.dest_a),
                               innermost) in failed:
                queue.popleft()
                self.stats.dropped += 1
                continue
            if node in moves:
                self.stats.injection_blocked_cycles += 1
                continue
            rec = queue.popleft()
            rec.inject_cycle = self.cycle
            rec.coord = node
            moves[node] = rec
            self.stats.injected += 1

        self.cycle += 1
        self.occupancy = {}
        for coord, rec in moves.items():
            c, h, a = coord
            if (c == innermost and h == rec.dest_h and a == rec.dest_a
                    and rec.inject_cycle >= 0 and rec.hops > 0):
                lat = self.cycle - rec.inject_cycle
                ejections.append(Ejection(
                    cycle=self.cycle,
                    port=topo.coord_port(h, a),
                    pkt_id=rec.pkt_id, payload=rec.payload,
                    latency_cycles=lat, hops=rec.hops,
                    deflections=rec.deflections))
                self.stats.ejected += 1
                self.stats.total_hops += rec.hops
                self.stats.total_deflections += rec.deflections
                self.stats.total_latency_cycles += lat
                self.stats.max_latency_cycles = max(
                    self.stats.max_latency_cycles, lat)
                if obs is not None:
                    obs.ejected.inc()
                    obs.deflections.inc(rec.deflections)
                    obs.latency.observe(lat)
                    obs.hops.observe(rec.hops)
            else:
                rec.coord = coord
                self.occupancy[coord] = rec
        if obs is not None:
            obs.dropped.inc(self.stats.dropped - _drop0)
            obs.blocked_cycles.inc(
                self.stats.injection_blocked_cycles - _blk0)
            obs.injected.inc(self.stats.injected - _inj0)
        return ejections

    def run_until_drained(self, max_cycles: int = 1_000_000
                          ) -> List[Ejection]:
        out: List[Ejection] = []
        start = self.cycle
        while self.pending or self.in_flight:
            if self.cycle - start >= max_cycles:
                raise RuntimeError(
                    f"switch failed to drain within {max_cycles} cycles")
            out.extend(self.step())
        return out

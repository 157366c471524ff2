"""The destination-coalescing (active-message) runtime.

Irregular kernels emit a torrent of tiny per-destination payloads; a
conventional fabric charges per-*message* software overhead, so the
paper's MPI numbers sink as P grows.  This module gives every rank an
:class:`Aggregator` — per-next-hop buffers flushed on a word watermark,
an age timeout, or an explicit epoch barrier — plus a fabric-specific
channel that moves the coalesced **frames** and settles per-epoch word
accounting, so GUPS and BFS can run the *same* update streams with
messages fattened by orders of magnitude (docs/aggregation.md).

Frames are streams of self-describing **segments**::

    [ header | word0 .. wordN-1 ]  [ header | ... ]  ...

    header = magic(8) | epoch(12) | final_dest(20) | count(24)

The epoch field keeps a fast rank's next-epoch watermark flushes from
corrupting a slow peer's current-epoch tallies (the receiver holds
future-epoch segments and re-ingests them when it advances), and the
``final_dest`` field lets an intermediate rank under ``routing="tree"``
re-aggregate and forward segments that are merely passing through
(Träff's two-phase scheme: rank ``r`` reaches ``d`` through the member
of its row that shares ``d``'s column, so each rank exchanges frames
with ~2*sqrt(P) peers instead of P-1).

Determinism: buffers live in insertion-ordered dicts, every bulk flush
is ordered by a permutation drawn from :func:`repro.sim.rng.rng_for`
(seed, rank, epoch), and epoch settlement is globally synchronised —
so flush ordering is bit-identical across repeat runs and pool
workers (the golden ``agg`` axis pins exactly that).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Tuple

import numpy as np

from repro.agg.spec import AggSpec
from repro.obs import registry as obsreg
from repro.sim.rng import rng_for

__all__ = ["AggProtocolError", "AggStats", "Aggregator",
           "MPIAggChannel", "DVAggChannel", "channel_for",
           "pack_header", "unpack_header", "parse_segments"]

_MAGIC = 0xA6
_EPOCH_BITS = 12
_DEST_BITS = 20
_COUNT_BITS = 24
_EPOCH_MASK = (1 << _EPOCH_BITS) - 1
_DEST_MASK = (1 << _DEST_BITS) - 1
_COUNT_MASK = (1 << _COUNT_BITS) - 1

#: MPI tag reserved for aggregation frames (stays clear of kernel tags
#: and the collective tag space at 1 << 24).
AGG_TAG = 1 << 20

#: DV group counter for the per-epoch count exchange (kernels use
#: 20/21 and 30/31; the barrier reserves 61/62).
_CTR_AGG = 40

#: DV-memory base for the count-exchange slots: three words (final
#: words, forwarded words, extra) per source rank, rank-major.  Far
#: above the kernels' scratch slots; DV memory is 4M words.
_SLOT_BASE = 1 << 10


class AggProtocolError(RuntimeError):
    """A frame failed validation (bad magic, impossible epoch)."""


# ------------------------------------------------------------- framing ---

def pack_header(epoch: int, fdest: int, count: int) -> int:
    """One segment header word."""
    if not 0 < count <= _COUNT_MASK:
        raise ValueError(f"segment count out of range: {count}")
    if not 0 <= fdest <= _DEST_MASK:
        raise ValueError(f"final dest out of range: {fdest}")
    return ((_MAGIC << 56) | ((epoch & _EPOCH_MASK) << 44)
            | (fdest << 24) | count)


def unpack_header(word: int) -> Tuple[int, int, int]:
    """``(epoch, fdest, count)``; raises on bad magic."""
    if (word >> 56) & 0xFF != _MAGIC:
        raise AggProtocolError(f"bad segment magic in {word:#018x}")
    return ((word >> 44) & _EPOCH_MASK, (word >> 24) & _DEST_MASK,
            word & _COUNT_MASK)


def parse_segments(words: np.ndarray
                   ) -> List[Tuple[int, int, np.ndarray]]:
    """Split one frame into ``(epoch, fdest, payload)`` segments."""
    out: List[Tuple[int, int, np.ndarray]] = []
    i, n = 0, int(words.size)
    while i < n:
        epoch, fdest, count = unpack_header(int(words[i]))
        if i + 1 + count > n:
            raise AggProtocolError(
                f"truncated segment: header promises {count} words, "
                f"frame has {n - i - 1} left")
        out.append((epoch, fdest, words[i + 1:i + 1 + count]))
        i += 1 + count
    return out


# --------------------------------------------------------------- stats ---

@dataclass
class AggStats:
    """Message accounting for one rank's aggregation channel."""

    messages_pre: int = 0       #: per-destination sends the kernel issued
    messages_post: int = 0      #: frames actually put on the wire
    words_put: int = 0          #: payload words buffered by ``put``
    words_sent: int = 0         #: payload words flushed into frames
    forwarded_words: int = 0    #: words relayed for other ranks (tree)
    peak_buffered: int = 0      #: high-water mark of buffered words
    flushes: Dict[str, int] = field(
        default_factory=lambda: {"watermark": 0, "timeout": 0,
                                 "final": 0})

    @property
    def message_ratio(self) -> float:
        """Messages before / after coalescing (>= 1 when it helps)."""
        return self.messages_pre / max(self.messages_post, 1)

    def as_dict(self) -> Dict[str, float]:
        d = {"messages_pre": self.messages_pre,
             "messages_post": self.messages_post,
             "words_put": self.words_put,
             "words_sent": self.words_sent,
             "forwarded_words": self.forwarded_words,
             "peak_buffered": self.peak_buffered,
             "message_ratio": self.message_ratio}
        d.update({f"flushes_{k}": v for k, v in self.flushes.items()})
        return d


def merge_stats(dicts) -> Dict[str, float]:
    """Sum per-rank :meth:`AggStats.as_dict` outputs (ratio recomputed,
    peak maxed)."""
    out: Dict[str, float] = {}
    for d in dicts:
        for k, v in d.items():
            if k == "message_ratio":
                continue
            out[k] = (max(out.get(k, 0), v) if k == "peak_buffered"
                      else out.get(k, 0) + v)
    out["message_ratio"] = (out.get("messages_pre", 0)
                            / max(out.get("messages_post", 0), 1))
    return out


# ---------------------------------------------------------- aggregator ---

class Aggregator:
    """Per-next-hop coalescing buffers (pure data structure, no I/O).

    ``put`` buffers a chunk and returns whatever frames the watermark
    or the age timeout made ready; ``flush_all`` drains everything in a
    seeded-deterministic order.  The channel owns the wire.
    """

    def __init__(self, spec: AggSpec, stats: AggStats) -> None:
        self.spec = spec
        self.stats = stats
        #: hop -> list of (fdest, words) chunks, insertion-ordered
        self._chunks: Dict[int, List[Tuple[int, np.ndarray]]] = {}
        self._words: Dict[int, int] = {}
        self._since: Dict[int, float] = {}
        self._total = 0

    @property
    def buffered_words(self) -> int:
        return self._total

    def put(self, hop: int, fdest: int, words: np.ndarray, now: float,
            epoch: int) -> List[Tuple[int, np.ndarray, str]]:
        """Buffer ``words`` for ``fdest`` via ``hop``; returns ready
        ``(hop, frame, cause)`` flushes."""
        self._chunks.setdefault(hop, []).append((fdest, words))
        self._words[hop] = self._words.get(hop, 0) + int(words.size)
        self._since.setdefault(hop, now)
        self._total += int(words.size)
        self.stats.words_put += int(words.size)
        self.stats.peak_buffered = max(self.stats.peak_buffered,
                                       self._total)
        ready: List[Tuple[int, np.ndarray, str]] = []
        if self.spec.timeout_s is not None:
            # age check runs over every buffer (in rank order, so the
            # flush sequence is engine-deterministic), not just the one
            # touched: a hot stream must not starve a cold one
            for h in sorted(self._since):
                if (h != hop
                        and now - self._since[h] >= self.spec.timeout_s):
                    ready.append((h, self._flush_hop(h, epoch),
                                  "timeout"))
        if self._words.get(hop, 0) >= self.spec.watermark:
            ready.append((hop, self._flush_hop(hop, epoch),
                          "watermark"))
        elif (self.spec.timeout_s is not None and hop in self._since
                and now - self._since[hop] >= self.spec.timeout_s):
            ready.append((hop, self._flush_hop(hop, epoch), "timeout"))
        return ready

    def flush_all(self, epoch: int, seed: int, rank: int
                  ) -> List[Tuple[int, np.ndarray, str]]:
        """Drain every buffer; hop order is a seeded permutation so the
        epoch-final flush sequence is reproducible yet unbiased."""
        hops = sorted(self._chunks)
        if not hops:
            return []
        rng = rng_for(seed, "agg.flush", rank, epoch)
        order = rng.permutation(len(hops))
        return [(hops[i], self._flush_hop(hops[i], epoch), "final")
                for i in order]

    def _flush_hop(self, hop: int, epoch: int) -> np.ndarray:
        """Build one frame: chunks grouped by final destination (first-
        appearance order), one segment per destination."""
        chunks = self._chunks.pop(hop)
        n_words = self._words.pop(hop)
        self._since.pop(hop, None)
        self._total -= n_words
        by_dest: Dict[int, List[np.ndarray]] = {}
        for fdest, words in chunks:
            by_dest.setdefault(fdest, []).append(words)
        parts: List[np.ndarray] = []
        for fdest, pieces in by_dest.items():
            payload = (pieces[0] if len(pieces) == 1
                       else np.concatenate(pieces))
            parts.append(np.array(
                [pack_header(epoch, fdest, int(payload.size))],
                np.uint64))
            parts.append(payload.astype(np.uint64, copy=False))
        frame = np.concatenate(parts)
        self.stats.words_sent += n_words
        return frame


# ------------------------------------------------------------ channels ---

class _AggChannelBase:
    """Fabric-independent half of an aggregation channel.

    The kernel-facing surface is three generator methods:

    * ``put(fdest, words)`` — buffer an update batch for a peer
      (watermark/timeout flushes ride along);
    * ``drain()`` — opportunistically ingest arrived frames, returning
      current-epoch words addressed to this rank;
    * ``complete(extra=0)`` — settle the epoch: final flush, exchange
      per-peer word totals (plus an ``extra`` scalar, summed globally —
      BFS rides its frontier size on it), then receive/forward until
      the tallies close.  Returns ``(words_for_me, extra_sum)``.
    """

    def __init__(self, ctx, spec: AggSpec, seed: int) -> None:
        self.ctx = ctx
        self.rank = ctx.rank
        self.size = ctx.size
        self.spec = spec
        self.seed = seed
        self.epoch = 0
        self.stats = AggStats()
        self._origin = Aggregator(spec, self.stats)
        self._fwd = Aggregator(spec, self.stats)
        self._g = max(1, math.isqrt(max(self.size - 1, 0)) + 1) \
            if spec.routing == "tree" else 0
        # per-epoch origin accounting for the count exchange
        self._final_to = np.zeros(self.size, np.int64)
        self._fwd_via = np.zeros(self.size, np.int64)
        # receive side
        self._recv_chunks: List[np.ndarray] = []
        self._recv_tally = 0
        self._fwd_tally = 0
        self._held: Dict[int, List[Tuple[int, np.ndarray]]] = {}
        self._obs_on = obsreg.enabled()
        if self._obs_on:
            self._m_msgs = {s: obsreg.counter("agg.messages", stage=s)
                            for s in ("pre", "post")}
            self._m_flush = {c: obsreg.counter("agg.flushes", cause=c)
                             for c in ("watermark", "timeout", "final")}
            self._m_words = obsreg.counter("agg.words")
            self._m_fwd = obsreg.counter("agg.forwarded_words")
            self._g_buf = obsreg.gauge("agg.buffered_words")

    # -- routing ------------------------------------------------------
    def next_hop(self, fdest: int) -> int:
        """First wire destination for a word bound for ``fdest``."""
        if self.spec.routing != "tree" or fdest == self.rank:
            return fdest
        g = self._g
        if self.rank % g == fdest % g:
            return fdest
        hop = (self.rank // g) * g + (fdest % g)
        # ragged last row (P not a perfect square) or self: go direct
        if hop >= self.size or hop == self.rank:
            return fdest
        return hop

    # -- kernel-facing surface ----------------------------------------
    def put(self, fdest: int, words) -> Generator:
        """Buffer one per-destination update batch (== one legacy
        message); send whatever frames came ready."""
        words = np.atleast_1d(np.asarray(words, dtype=np.uint64))
        if words.size == 0:
            return
        self.stats.messages_pre += 1
        if self._obs_on:
            self._m_msgs["pre"].inc()
        hop = self.next_hop(fdest)
        self._final_to[fdest] += int(words.size)
        if hop != fdest:
            self._fwd_via[hop] += int(words.size)
        ready = self._origin.put(hop, fdest, words,
                                 self.ctx.engine.now, self.epoch)
        yield from self._send_frames(ready)

    def drain(self) -> Generator:
        """Non-blocking ingest of everything already arrived; returns
        the current epoch's words addressed to this rank."""
        yield from self._pump_once(block=False)
        return self._take_received()

    def complete(self, extra: int = 0) -> Generator:
        """Settle the current epoch (see class docstring)."""
        yield from self._send_frames(
            self._origin.flush_all(self.epoch, self.seed, self.rank))
        final_exp, fwd_exp, extra_sum = yield from self._exchange(
            int(extra))
        fwd_flushed = False
        while True:
            if not fwd_flushed and self._fwd_tally >= fwd_exp:
                yield from self._send_frames(
                    self._fwd.flush_all(self.epoch, self.seed,
                                        self.rank))
                fwd_flushed = True
            if fwd_flushed and self._recv_tally >= final_exp:
                break
            yield from self._pump_once(block=True)
        yield from self._settle()
        out = self._take_received()
        yield from self._advance_epoch()
        return out, extra_sum

    # -- shared internals ---------------------------------------------
    def _send_frames(self, ready) -> Generator:
        for hop, frame, cause in ready:
            self.stats.messages_post += 1
            self.stats.flushes[cause] += 1
            if self._obs_on:
                self._m_msgs["post"].inc()
                self._m_flush[cause].inc()
                self._m_words.inc(int(frame.size))
                self._g_buf.set(self._origin.buffered_words
                                + self._fwd.buffered_words)
            yield from self._send(hop, frame)

    def _ingest(self, words: np.ndarray) -> Generator:
        for raw_epoch, fdest, payload in parse_segments(words):
            if raw_epoch == self.epoch & _EPOCH_MASK:
                yield from self._ingest_segment(fdest, payload)
            elif raw_epoch == (self.epoch + 1) & _EPOCH_MASK:
                # a fast peer's next-epoch watermark flush: hold it
                self._held.setdefault(self.epoch + 1, []).append(
                    (fdest, payload.copy()))
            else:
                raise AggProtocolError(
                    f"rank {self.rank} in epoch {self.epoch} got a "
                    f"segment tagged {raw_epoch} (skew > 1 epoch)")

    def _ingest_segment(self, fdest: int,
                        payload: np.ndarray) -> Generator:
        if fdest == self.rank:
            self._recv_chunks.append(payload)
            self._recv_tally += int(payload.size)
            return
        # passing through: re-aggregate towards the final destination
        self._fwd_tally += int(payload.size)
        self.stats.forwarded_words += int(payload.size)
        if self._obs_on:
            self._m_fwd.inc(int(payload.size))
        ready = self._fwd.put(fdest, fdest, payload,
                              self.ctx.engine.now, self.epoch)
        yield from self._send_frames(ready)

    def _take_received(self) -> np.ndarray:
        if not self._recv_chunks:
            return np.empty(0, np.uint64)
        out = (self._recv_chunks[0] if len(self._recv_chunks) == 1
               else np.concatenate(self._recv_chunks))
        self._recv_chunks = []
        return out

    def _advance_epoch(self) -> Generator:
        self.epoch += 1
        self._recv_tally = 0
        self._fwd_tally = 0
        self._final_to[:] = 0
        self._fwd_via[:] = 0
        for fdest, payload in self._held.pop(self.epoch, []):
            yield from self._ingest_segment(fdest, payload)

    # -- fabric-specific hooks ----------------------------------------
    def _send(self, hop: int, frame: np.ndarray) -> Generator:
        raise NotImplementedError

    def _pump_once(self, block: bool) -> Generator:
        raise NotImplementedError

    def _exchange(self, extra: int) -> Generator:
        raise NotImplementedError

    def _settle(self) -> Generator:
        """Post-drain completion point (join in-flight sends)."""
        return
        yield  # pragma: no cover


class MPIAggChannel(_AggChannelBase):
    """Aggregation over the MPI/IB endpoint: frames travel as tagged
    point-to-point messages, the count exchange is one vector
    allreduce."""

    def __init__(self, ctx, spec: AggSpec, seed: int) -> None:
        super().__init__(ctx, spec, seed)
        self._isends: List = []

    def _send(self, hop: int, frame: np.ndarray) -> Generator:
        self._isends.append(
            self.ctx.mpi.isend(hop, frame, tag=AGG_TAG,
                               nbytes=int(frame.nbytes)))
        return
        yield  # pragma: no cover

    def _pump_once(self, block: bool) -> Generator:
        mpi = self.ctx.mpi
        if block:
            frame, _src, _tag = yield from mpi.recv(tag=AGG_TAG)
            yield from self._ingest(np.asarray(frame, np.uint64))
        while mpi.iprobe(tag=AGG_TAG):
            frame, _src, _tag = yield from mpi.recv(tag=AGG_TAG)
            yield from self._ingest(np.asarray(frame, np.uint64))

    def _exchange(self, extra: int) -> Generator:
        vec = np.concatenate([self._final_to, self._fwd_via,
                              np.array([extra], np.int64)])
        total = yield from self.ctx.mpi.allreduce(
            vec, lambda a, b: a + b)
        return (int(total[self.rank]),
                int(total[self.size + self.rank]),
                int(total[2 * self.size]))

    def _settle(self) -> Generator:
        # join every isend this epoch issued (all are received by now —
        # the peers' tallies could not have closed otherwise)
        for s in self._isends:
            yield s
        self._isends = []


class DVAggChannel(_AggChannelBase):
    """Aggregation over the Data Vortex: frames stream into the
    destination's surprise FIFO as one DMA each, the count exchange is
    the paper's preset-counter + DV-memory-slot idiom."""

    def _send(self, hop: int, frame: np.ndarray) -> Generator:
        yield from self.ctx.dv.send_fifo(hop, frame,
                                         cached_headers=True, via="dma")

    def _pump_once(self, block: bool) -> Generator:
        api = self.ctx.dv
        batches = api.vic.fifo.pop_with_sources()
        if not batches and block:
            yield from api.fifo_wait()
            batches = api.vic.fifo.pop_with_sources()
        for _src, words in batches:
            yield from self._ingest(np.asarray(words, np.uint64))

    def _exchange(self, extra: int) -> Generator:
        api = self.ctx.dv
        P, me = self.size, self.rank
        if P == 1:
            return 0, 0, extra
        yield from api.set_counter(_CTR_AGG, 3 * (P - 1))
        yield from self.ctx.barrier()
        words = np.column_stack([self._final_to, self._fwd_via,
                                 np.full(P, extra, np.int64)])
        words[me, :2] = 0  # my own share is the extra alone
        slots = yield from api.exchange_words(words, base=_SLOT_BASE,
                                              counter=_CTR_AGG)
        return tuple(slots.astype(np.int64).sum(axis=0).tolist())


def channel_for(ctx, spec: AggSpec, seed: int):
    """The aggregation channel matching the context's fabric."""
    if getattr(ctx, "dv", None) is not None:
        return DVAggChannel(ctx, spec, seed)
    return MPIAggChannel(ctx, spec, seed)

"""The VIC "surprise packet" FIFO (paper §II–III).

Unscheduled messages land here rather than at a coordinated DV-memory
address.  The queue buffers thousands of 8-byte payloads; a background DMA
process drains it into a host-side circular buffer so host polling is
cheap.  Ordering across the network is *not* guaranteed — packets from one
source may interleave arbitrarily with others — which we model by keeping
arrival order (the network model already reorders at batch granularity).

Since the host sees the buffer only when it polls, a delivery nobody
waits for need not run as its own heap entry: the flow network may
*hold* it here under the key its entry would have had
(:meth:`SurpriseFIFO.hold`), and every observation first *settles* the
held deliveries keyed before the entry being processed
(:meth:`SurpriseFIFO.settle`).  docs/architecture.md, "Deferred FIFO
deliveries", has the rules that keep this exact.
"""

from __future__ import annotations

import collections
from heapq import heappush
from typing import Callable, List, Optional

import numpy as np

from repro.obs import registry as obsreg
from repro.sim.engine import Engine
from repro.sim.events import Event

_U64 = np.dtype(np.uint64)


class FifoOverflow(RuntimeError):
    """Raised in strict mode when the surprise FIFO overflows."""


class SurpriseFIFO:
    """Network-addressable FIFO of 64-bit payload words.

    Parameters
    ----------
    engine:
        Owning engine.
    capacity:
        Maximum buffered words before overflow.
    strict:
        If True (default), overflow raises :class:`FifoOverflow` — the
        benchmarks are written never to overflow, so an overflow is a
        programming error.  If False, excess packets are dropped and
        counted, matching what lossy hardware would do.
    """

    def __init__(self, engine: Engine, capacity: int,
                 strict: bool = True) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.engine = engine
        self.capacity = capacity
        self.strict = strict
        self._segments: List[np.ndarray] = []
        self._src_tags: List[int] = []
        self._n_words = 0
        self.dropped = 0
        self._total_pushed = 0
        self._waiters: List[Event] = []
        #: held deliveries ``(time, seq, src, words)``, in key order
        self._held: collections.deque = collections.deque()
        self._held_words = 0
        #: whether an :meth:`Engine.at_stop` hook is pending
        self._hooked = False
        #: set by :meth:`enable_holding`; ``None``: nothing is held
        self._land: Optional[Callable[[int], None]] = None
        self._deliver: Optional[Callable[[int, np.ndarray], None]] = None
        self._obs_on = obsreg.enabled()
        if self._obs_on:
            self._m_pushed = obsreg.counter("dv.fifo.words_pushed")
            self._m_dropped = obsreg.counter("dv.fifo.words_dropped")
            self._m_occ = obsreg.gauge("dv.fifo.occupancy")

    def __len__(self) -> int:
        if self._held:
            self.settle()
        return self._n_words

    @property
    def total_pushed(self) -> int:
        """Lifetime count of words accepted (drained or not) — protocols
        use it to decide when everything addressed to them has landed."""
        if self._held:
            self.settle()
        return self._total_pushed

    # -- network side ------------------------------------------------------
    def push(self, values: np.ndarray, src: int = -1) -> int:
        """Append a batch of payload words arriving from ``src``.

        Returns the number of words accepted.
        """
        if self._held:
            self.settle()
        if not (type(values) is np.ndarray and values.ndim == 1
                and values.dtype == _U64):
            values = np.atleast_1d(np.asarray(values, dtype=np.uint64))
        room = self.capacity - self._n_words
        if values.size > room:
            if self.strict:
                raise FifoOverflow(
                    f"surprise FIFO overflow: {values.size} words arriving "
                    f"with only {room} free (capacity {self.capacity})")
            if self._obs_on:
                self._m_dropped.inc(values.size - room)
            self.dropped += values.size - room
            # copy: values[:room] is a view of the caller's array, and a
            # caller reusing its buffer after a partial accept would
            # rewrite words already queued here
            values = values[:room].copy()
        if values.size:
            self._segments.append(values)
            self._src_tags.append(src)
            self._n_words += values.size
            self._total_pushed += values.size
            if self._obs_on:
                self._m_pushed.inc(int(values.size))
                self._m_occ.set_max(self._n_words)
            if self._waiters:
                self._wake()
            if (self._held and self._n_words + self._held_words
                    > self.capacity):
                # a held delivery might no longer fit: let each one
                # overflow or drop at its own entry
                self._arm()
        return values.size

    # -- held deliveries -----------------------------------------------------
    def enable_holding(self, land: Callable[[int], None],
                       deliver: Callable[[int, np.ndarray], None]) -> None:
        """Let the flow network hold deliveries here.

        ``land(n)`` charges settled deliveries of ``n`` words in all to
        the receiver (the VIC's packet counts); ``deliver(src, words)`` is
        the delivery as a heap entry would run it, for a held delivery
        put back on the heap (:meth:`_arm`).
        """
        self._land = land
        self._deliver = deliver

    def hold(self, t: float, seq: int, src: int, words: np.ndarray) -> bool:
        """Hold a delivery of ``words`` from ``src`` keyed ``(t, seq)``,
        the time and sequence number its heap entry would have had;
        returns False, holding nothing, when it must be that entry.

        A delivery is held when holding is enabled, nobody waits, and it
        fits even with everything already queued or held, so settling
        can never overflow or drop.  Keys must come in increasing order
        (one ejection port feeds this FIFO, and it ejects in order).
        """
        n = words.size
        if (self._land is None or self._waiters
                or self._n_words + self._held_words + n > self.capacity):
            return False
        if not self._hooked:
            self._hooked = True
            self.engine.at_stop(self._at_stop)
        self._held.append((t, seq, src, words))
        self._held_words += n
        return True

    def settle(self) -> None:
        """Land, in key order, every held delivery keyed strictly before
        the engine entry being processed: what a heap entry per delivery
        would already have landed."""
        held = self._held
        engine = self.engine
        # the entry being processed; a key is never equal to it
        pos = (engine._now, engine._cur)
        segments = self._segments
        src_tags = self._src_tags
        landed = 0
        while held and held[0] < pos:
            _, _, src, words = held.popleft()
            segments.append(words)
            src_tags.append(src)
            landed += words.size
        if landed:
            # integer counts, and no pop between the appends: one bump
            # each leaves what one per delivery would (nobody waits)
            self._held_words -= landed
            self._n_words += landed
            self._total_pushed += landed
            self._land(landed)
            if self._obs_on:
                self._m_pushed.inc(landed)
                self._m_occ.set_max(self._n_words)

    def _arm(self) -> None:
        """Settle, then put every delivery still held on the heap at its
        key, to run as an immediate delivery would."""
        self.settle()
        queue = self.engine._queue
        deliver = self._deliver
        for t, seq, src, words in self._held:
            heappush(queue, (t, seq, deliver, (src, words)))
        self._held.clear()
        self._held_words = 0

    def _at_stop(self) -> None:
        self._hooked = False
        self._arm()

    # -- host side ----------------------------------------------------------
    def poll(self) -> int:
        """Words currently available (what the host circular buffer shows)."""
        if self._held:
            self.settle()
        return self._n_words

    def pop(self, n: Optional[int] = None) -> np.ndarray:
        """Remove and return up to ``n`` words (all, if ``n`` is None)."""
        if self._held:
            self.settle()
        if n is None:
            n = self._n_words
        if n >= self._n_words:
            # full drain: concatenate once instead of shifting the
            # segment list one entry at a time
            if not self._segments:
                return np.empty(0, np.uint64)
            out_all = (self._segments[0] if len(self._segments) == 1
                       else np.concatenate(self._segments))
            self._segments.clear()
            self._src_tags.clear()
            self._n_words = 0
            return out_all
        out = []
        taken = 0
        while self._segments and taken < n:
            seg = self._segments[0]
            want = n - taken
            if seg.size <= want:
                out.append(seg)
                taken += seg.size
                self._segments.pop(0)
                self._src_tags.pop(0)
            else:
                out.append(seg[:want])
                self._segments[0] = seg[want:]
                taken += want
        self._n_words -= taken
        if not out:
            return np.empty(0, np.uint64)
        return np.concatenate(out)

    def pop_with_sources(self) -> List[tuple]:
        """Drain everything, returning ``(src, words)`` per arrival batch.

        Convenience for protocols that encode the sender in-band anyway
        but want cheap bookkeeping in tests.
        """
        if self._held:
            self.settle()
        out = list(zip(self._src_tags, self._segments))
        self._segments = []
        self._src_tags = []
        self._n_words = 0
        return out

    def wait_nonempty(self) -> Event:
        """Event firing when at least one word is available.

        A waiter on an empty FIFO puts every held delivery back on the
        heap: the first one to land must wake it at its own entry.
        """
        ev = self.engine.event(name="fifo:nonempty")
        if self._held:
            self.settle()
        if self._n_words:
            ev.succeed(self._n_words)
        else:
            self._waiters.append(ev)
            if self._held:
                self._arm()
        return ev

    def _wake(self) -> None:
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.succeed(self._n_words)

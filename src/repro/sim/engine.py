"""The discrete-event engine: an event heap and a run loop.

The engine owns simulated time.  Everything that happens in a simulation is
a callback popped off a priority heap of ``(time, sequence, fn, args)``
entries; the sequence number guarantees FIFO ordering among same-time
entries, which is what makes runs bit-reproducible.  A triggered
:class:`~repro.sim.events.Event` is one such entry whose ``fn`` is its
bound ``_process``.
"""

from __future__ import annotations

import bisect
import collections
import gc
import heapq
from typing import Any, Generator, List, Optional, Tuple

from repro.obs import registry as obsreg
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process


class SimulationError(RuntimeError):
    """Raised for engine misuse (e.g. running a finished simulation)."""


class Engine:
    """Deterministic discrete-event scheduler.

    Parameters
    ----------
    start:
        Initial simulated time in seconds (default ``0.0``).

    Notes
    -----
    The engine is single-threaded and re-entrant-safe in the sense that
    callbacks may create and trigger further events; they are appended to
    the heap and processed in order.

    **Tie determinism guarantee.**  Events scheduled for the *same*
    simulated instant fire in the order they were enqueued: every heap
    entry carries a monotonically increasing sequence number assigned at
    enqueue time, and no two entries share one, so heap ordering among
    same-time events is exactly insertion order.  Wakeups parked in the
    :meth:`call_soon` lane take a sequence number the same way and run
    in their place in that order.  This invariant is what
    the flow-engine/oracle bit-identity proofs are built on — see
    ``tests/test_sim_engine.py::test_simultaneous_events_fire_in_insertion_order``.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._queue: List[Tuple[float, int, Any, tuple]] = []
        self._seq = 0
        #: ``_seq`` when the clock last moved: every number above it was
        #: taken at the current instant (:meth:`reserved_passed`)
        self._seq0 = 0
        #: sequence number of the entry being processed
        #: (:meth:`reserved_passed`)
        self._cur = 0
        self._processed_count = 0
        #: call_soon's lane: ``(sequence, fn, args)`` due at ``_now``
        self._soon: collections.deque = collections.deque()
        #: callables :meth:`run` calls once before it stops (:meth:`at_stop`)
        self._stop_hooks: List[Any] = []
        self._running = False
        # observability handles, resolved once; hot paths guard on the bool
        self._obs_on = obsreg.enabled()
        if self._obs_on:
            self._m_events = obsreg.counter("sim.engine.events")
            self._m_qdepth = obsreg.gauge("sim.engine.queue_depth")
            self._m_clock = obsreg.gauge("sim.engine.clock")

    # -- time --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events processed so far (diagnostics)."""
        return self._processed_count

    # -- event factories -----------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` seconds from now."""
        return Timeout(self, delay, value=value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Spawn a :class:`Process` driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events) -> AllOf:
        """Barrier condition over ``events``."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Race condition over ``events``."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _enqueue(self, event: Event, delay: float) -> None:
        """Insert a triggered event into the heap ``delay`` seconds ahead."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._queue,
                       (self._now + delay, self._seq, event._process, ()))

    def call_in(self, delay: float, fn, *args) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        A heap-only alternative to ``event + add_callback + _enqueue``
        for hot paths: no :class:`Event` is allocated and nothing can
        wait on the callback.  The sequence number is assigned *here*,
        so a ``call_in`` issued at the same instant the scalar test
        oracles enqueue a marker event occupies the exact same position
        among same-time events — the property the flow engines'
        bit-identity with those oracles rests on.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, self._seq, fn, args))

    def call_soon(self, fn, *args) -> None:
        """``call_in(0.0, fn, *args)`` without a heap entry.

        While :meth:`run` is processing, the wakeup takes the next
        sequence number, exactly as ``call_in`` would, but waits in a
        FIFO lane instead of the heap.  The run loop takes the lane's
        head whenever no heap entry precedes it in ``(time, sequence)``
        order — the lane only ever holds the current instant, in
        sequence order — so every wakeup runs at the position its heap
        entry would have popped at.  :attr:`events_processed` counts
        heap entries only.
        """
        if self._running:
            self._seq += 1
            self._soon.append((self._seq, fn, args))
        else:
            self.call_in(0.0, fn, *args)

    def _soon_first(self) -> bool:
        """True when the lane's head precedes every heap entry."""
        if not self._soon:
            return False
        queue = self._queue
        return (not queue or queue[0][0] > self._now
                or queue[0][1] > self._soon[0][0])

    def _run_soon(self) -> None:
        self._cur, fn, args = self._soon.popleft()
        fn(*args)

    def at_stop(self, fn) -> None:
        """Call ``fn()`` once, when :meth:`run` next runs dry or
        reaches ``until``, before it stops.

        For work that is applied lazily and must be on the heap before
        the run ends: if ``fn`` schedules entries, the run goes on with
        them (and stops at ``until`` as usual).
        """
        self._stop_hooks.append(fn)

    def _stop(self) -> bool:
        """Run the stop hooks; True when they left entries to run."""
        hooks, self._stop_hooks = self._stop_hooks, []
        for fn in hooks:
            fn()
        return bool(self._queue or self._soon)

    def reserve(self, n: int = 1) -> int:
        """Take ``n`` consecutive sequence numbers for zero-delay entries
        that are not pushed; returns the last.

        A wakeup that would have no effect reserves its key instead of
        queueing: every later entry keeps the number it had, and
        :meth:`run_reserved` puts the wakeup back at that key if a
        waiter turns up before it has passed.
        """
        self._seq += n
        return self._seq

    def reserved_passed(self, seq: int) -> bool:
        """True once a zero-delay entry reserved as ``seq`` would have
        run: at an earlier instant, or earlier in this one."""
        return seq <= self._seq0 or seq < self._cur

    def run_reserved(self, seq: int, fn, *args) -> None:
        """Schedule ``fn(*args)`` at the reserved, not yet passed key
        ``(now, seq)``: in the lane at its place while running (as the
        :meth:`call_soon` it stands for), else on the heap."""
        if not self._running:
            heapq.heappush(self._queue, (self._now, seq, fn, args))
            return
        soon = self._soon
        if soon and soon[-1][0] > seq:
            # (sequence numbers are unique: only they are compared)
            bisect.insort(soon, (seq, fn, args))
        else:
            soon.append((seq, fn, args))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._soon:
            return self._now
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        if not self._queue:
            raise SimulationError("no scheduled events")
        t, seq, fn, args = heapq.heappop(self._queue)
        if t != self._now:
            if t < self._now:  # pragma: no cover - heap invariant guard
                raise SimulationError("event scheduled in the past")
            self._now = t
            self._seq0 = self._seq
        self._cur = seq
        self._processed_count += 1
        if self._obs_on:
            self._m_events.inc()
            self._m_qdepth.set_max(len(self._queue) + 1)
            # the live simulation clock: its peak reads as "how far
            # has simulated time advanced"
            self._m_clock.set_max(t)
        fn(*args)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or
        ``max_events`` have been processed.

        Parameters
        ----------
        until:
            Stop once the next event would occur strictly after this time;
            the clock is advanced to ``until``.
        max_events:
            Safety valve for runaway simulations; raises
            :class:`SimulationError` when exhausted.

        Automatic cyclic garbage collection is paused for the run and
        restored when it returns or raises (a nested run, or one that
        starts with the collector off, leaves it as it is).  Collection
        cannot change a result — nothing in the simulator has a
        finaliser or a weakref callback — and runs make no cyclic
        garbage, so the passes the run's many small live objects would
        set off find nothing to free.
        """
        paused = gc.isenabled()
        if paused:
            gc.disable()
        self._running = True
        try:
            self._run(until, max_events)
            # the lane ran dry (or the clock moved to ``until``): every
            # reserved key has passed
            self._seq0 = self._seq
        finally:
            self._running = False
            if paused:
                gc.enable()

    def _run(self, until: Optional[float],
             max_events: Optional[int]) -> None:
        if until is None and max_events is None and not self._obs_on:
            # the common case, with step() inlined
            queue = self._queue
            soon = self._soon
            pop = heapq.heappop
            popleft = soon.popleft
            while True:
                if soon and (not queue or queue[0][0] > self._now
                             or queue[0][1] > soon[0][0]):
                    self._cur, fn, args = popleft()
                    fn(*args)
                    continue
                if not queue:
                    if self._stop_hooks and self._stop():
                        continue
                    return
                t, seq, fn, args = pop(queue)
                if t != self._now:
                    if t < self._now:  # pragma: no cover - heap guard
                        raise SimulationError("event scheduled in the past")
                    self._now = t
                    self._seq0 = self._seq
                self._cur = seq
                self._processed_count += 1
                fn(*args)
        n = 0
        while self._queue or self._soon or (self._stop_hooks
                                            and self._stop()):
            if self._soon_first():
                self._run_soon()
                continue
            if until is not None and self.peek() > until:
                if self._stop_hooks and self._stop():
                    continue
                self._now = until
                return
            if max_events is not None and n >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events} "
                    f"(simulated time {self._now:g}s)")
            self.step()
            n += 1
        if until is not None and until > self._now:
            self._now = until

    def run_process(self, generator: Generator, name: str = "",
                    until: Optional[float] = None) -> Any:
        """Convenience: spawn ``generator``, run to completion, return its
        value.  Raises the process's exception on failure."""
        proc = self.process(generator, name=name)
        self.run(until=until)
        if not proc.triggered:
            raise SimulationError(
                f"process {name or generator!r} did not finish "
                f"(deadlock or until= too small)")
        if not proc.ok:
            raise proc.value
        return proc.value

"""Per-shard event engine for the conservative PDES layer.

A :class:`ShardEngine` is a drop-in :class:`~repro.sim.engine.Engine`
whose heap entries carry a *merge key* instead of the serial engine's
bare sequence number::

    (fire_t, sched_t, ancestry, rank, seq, source, push)

The serial engine processes same-``fire_t`` events in enqueue order:
by the instant each was scheduled at, then by the order the events
that scheduled them were processed in at that instant, then by enqueue
order within one such event.  The key rebuilds that order from what
each shard can see:

* ``fire_t``   — when the event fires (identical to serial);
* ``sched_t``  — the simulated instant the entry was scheduled at;
* ``ancestry`` — the ``sched_t`` of the event that scheduled it, then
  of *its* scheduler, and so on for :data:`ANCESTRY_DEPTH` generations:
  where two cascades reached the same instant by different paths, the
  one whose path got there first was processed first;
* ``rank``     — ``0``, until the entry turns out to be in a tie (below);
* ``seq``      — shard-local sequence number (for cross-shard arrivals,
  the one *burned on the sending shard* at transmit time);
* ``source``   — the shard whose counter issued ``seq``;
* ``push``     — local push counter; pure anti-crash tiebreak so tuple
  comparison never reaches the event object.

Orders decided by the times are exact.  Zero-delay entries tie only
with zero-delay entries of their own shard, and ``seq`` is their
enqueue order.  Entries scheduled *ahead* that tie on ``(fire_t,
sched_t, ancestry)`` form a group that is complete when its first
member pops (nothing scheduled from then on has that ``sched_t``), so
:meth:`ShardEngine.step` takes the whole group, orders it exactly and
refiles it under ranks ``1, 2, ...``.  From one counter, sequence order
is the serial order.  From two counters, each entry's *lineage*,
carried beside the key, decides (:func:`ancestry_order`).  A pair
nothing can order raises :class:`~repro.sim.pdes.ShardingUnsupported`,
and the run falls back to serial instead of returning a result that may
differ from it.  The hub orders same-instant ledger rows from different
shards the same way (:func:`repro.sim.pdes.ledger.merge_rows`).
"""

from __future__ import annotations

import heapq
from functools import cmp_to_key
from typing import Generator, Optional

from repro.sim.engine import Engine, SimulationError, _Wakeup
from repro.sim.pdes import ShardingUnsupported
from repro.sim.process import Process

#: Generations of ancestors a merge key and a lineage carry.
ANCESTRY_DEPTH = 16

#: Ancestry of entries created before the run starts.
ROOT_ANCESTRY = (-1.0,) * ANCESTRY_DEPTH

#: Ancestor ids of entries created before the run starts: all descend
#: from one virtual setup event.  A rank process's start entry gets the
#: id ``(-1, rank)``, so starts order by rank, as serial creates them.
_SETUP_ID = (-2, 0)
ROOT_IDS = (_SETUP_ID,) * ANCESTRY_DEPTH

#: Lineage of entries created before the run starts: ``(ancestor ids,
#: hash of the scheduling instants back to the setup, rank process at
#: the top)``.
ROOT_LINEAGE = (ROOT_IDS, 0, None)

#: ``(ancestry, lineage)`` of entries created before the run starts.
ROOT_STAMP = (ROOT_ANCESTRY, ROOT_LINEAGE)


def entry_id(source: int, seq: int, lin: tuple) -> tuple:
    """The id an entry is known by in its children's lineages."""
    if lin[2] is not None and lin[0][0] == _SETUP_ID:  # a rank's start
        return (-1, lin[2])
    return (source, seq)


def ancestry_order(lin_a: tuple, uid_a: tuple, lin_b: tuple,
                   uid_b: tuple) -> int:
    """Serial order of two distinct same-instant events whose ancestors
    fired at equal times, level by level: ``-1`` when ``a`` comes first,
    ``1`` when ``b`` does, ``0`` when the lineages cannot tell.

    ``uid`` is the event's own ``(source, seq)``, ``lin`` its lineage.
    Below the first common ancestor, the two children it scheduled were
    enqueued by one event on one shard, in ``seq`` order.  Without one,
    two histories that ran at the same instants all the way up (equal
    64-bit path hashes) keep the order of the rank processes they
    started from.
    """
    below_a, below_b = uid_a, uid_b
    for up_a, up_b in zip(lin_a[0], lin_b[0]):
        if up_a == up_b:
            if below_a[0] != below_b[0]:
                return 0
            return -1 if below_a[1] < below_b[1] else 1
        below_a, below_b = up_a, up_b
    root_a, root_b = lin_a[2], lin_b[2]
    if (lin_a[1] == lin_b[1] and root_a is not None
            and root_b is not None and root_a != root_b):
        return -1 if root_a < root_b else 1
    return 0


def _serial_order(a: tuple, b: tuple) -> int:
    """Serial order of two heap entries tied on the key's times."""
    if a[5] == b[5]:
        return -1 if a[4] < b[4] else 1
    order = ancestry_order(a[7], entry_id(a[5], a[4], a[7]),
                           b[7], entry_id(b[5], b[4], b[7]))
    if order == 0:
        raise ShardingUnsupported(
            f"same-instant events at t={a[0]!r} (scheduled at {a[1]!r}) "
            "whose serial order their lineages cannot tell",
            reason="tie-order")
    return order


_SERIAL_ORDER = cmp_to_key(_serial_order)


class ShardEngine(Engine):
    """Engine variant whose heap ordering is shard-mergeable.

    Running a single ShardEngine over a whole program processes the
    serial engine's events in the serial order; running one per shard
    and merging by the key above does too, or refuses (see
    docs/scaling.md for the argument).
    """

    def __init__(self, start: float = 0.0, shard_id: int = 0) -> None:
        super().__init__(start)
        self.shard_id = shard_id
        self._push = 0
        #: (fire_t, sched_t, ancestry, rank, seq, source) of the entry
        #: being processed, and its lineage: ledger rows are ordered by
        #: them
        self._last = (-1.0, -1.0, ROOT_ANCESTRY, 0, -1, -1)
        self._last_lin = ROOT_LINEAGE
        #: ancestry and lineage stamped on entries the current event
        #: schedules
        self._anc = ROOT_ANCESTRY
        self._lin = ROOT_LINEAGE

    # -- scheduling ---------------------------------------------------------
    def _enqueue(self, event, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        self._push += 1
        heapq.heappush(self._queue,
                       (self._now + delay, self._now, self._anc, 0,
                        self._seq, self.shard_id, self._push, self._lin,
                        event))

    def call_in(self, delay: float, fn, *args) -> None:
        self._enqueue(_Wakeup(fn, args), delay)

    def stamp(self) -> tuple:
        """``(ancestry, lineage)`` an entry scheduled now would carry."""
        return (self._anc, self._lin)

    def schedule_key(self, fire_t: float, sched_t: float, seq: int, fn,
                     args, *, stamp: tuple = ROOT_STAMP,
                     source: Optional[int] = None) -> None:
        """Insert a callback under an *explicit* merge key.

        Used for deferred and cross-shard arrivals: the sending shard
        (``source``, this one by default) burned ``seq`` and took the
        :meth:`stamp` on its own engine at transmit time, and the
        receiving shard must file the arrival exactly where the serial
        engine would have.  Does not advance the local sequence counter.
        """
        self._push += 1
        heapq.heappush(self._queue,
                       (fire_t, sched_t, stamp[0], 0, seq,
                        self.shard_id if source is None else source,
                        self._push, stamp[1], _Wakeup(fn, args)))

    def burn_seq(self, n: int = 1) -> int:
        """Consume ``n`` sequence numbers; return the first one.

        Mirrors what the serial engine would burn for actions that, under
        sharding, happen on a *different* shard (remote deliveries).
        Keeping local counters aligned with serial keeps later local keys
        aligned too.
        """
        first = self._seq + 1
        self._seq += n
        return first

    # -- processes ----------------------------------------------------------
    def process(self, generator: Generator, name: str = "",
                origin: Optional[int] = None) -> Process:
        """Spawn a process; ``origin`` (a rank id) marks a rank process
        started before the run, whose start orders by rank."""
        if origin is None:
            return Process(self, generator, name=name)
        lin, self._lin = self._lin, (ROOT_IDS, 0, origin)
        try:
            return Process(self, generator, name=name)
        finally:
            self._lin = lin

    # -- stepping -----------------------------------------------------------
    def _take_tie(self, first: tuple) -> tuple:
        """Pop the rest of ``first``'s tie group, order the group the
        serial way and refile all but the head under ranks."""
        queue = self._queue
        t, sched, anc = first[0], first[1], first[2]
        group = [first]
        while (queue and queue[0][0] == t and queue[0][1] == sched
               and queue[0][2] == anc):
            group.append(heapq.heappop(queue))
        group.sort(key=_SERIAL_ORDER)
        for rank, entry in enumerate(group[1:], 1):
            heapq.heappush(queue, (t, sched, anc, rank) + entry[4:])
        return group[0]

    def step(self) -> None:
        queue = self._queue
        if not queue:
            raise SimulationError("no scheduled events")
        entry = heapq.heappop(queue)
        if (queue and entry[0] != entry[1] and not entry[3]
                and queue[0][0] == entry[0] and queue[0][1] == entry[1]
                and queue[0][2] == entry[2]):
            entry = self._take_tie(entry)
        t, sched, anc, _rank, seq, source, _push, lin, event = entry
        if t < self._now:  # pragma: no cover - heap invariant guard
            raise SimulationError("event scheduled in the past")
        self._last = entry[:6]
        self._last_lin = lin
        self._anc = (sched,) + anc[:-1]
        ids, path, root = lin
        self._lin = ((entry_id(source, seq, lin),) + ids[:-1],
                     hash((sched, path)), root)
        self._now = t
        self._processed_count += 1
        if self._obs_on:
            self._m_events.inc()
            self._m_qdepth.set_max(len(queue) + 1)
        event._process()

    def run_window(self, end: float) -> int:
        """Process every event with ``fire_t`` strictly below ``end``.

        The conservative window loop: ``end`` is the global horizon
        ``T + lookahead``; anything a peer shard transmits during
        ``[T, end)`` arrives at or after ``end`` (lookahead is the
        minimum cross-shard latency), so this shard can safely run to
        ``end`` without hearing from anyone.  Returns the number of
        events processed.
        """
        n = 0
        queue = self._queue
        while queue and queue[0][0] < end:
            self.step()
            n += 1
        return n

"""Counted resources with FIFO admission.

A :class:`Resource` models a device with ``capacity`` independent service
slots (e.g. a pair of DMA engines, a PCIe bus treated as a single shared
channel).  Acquire with :meth:`Resource.acquire`, release with
:meth:`Resource.release`, or use the :meth:`Resource.using` helper from
inside a process for exception-safe bracketing.
"""

from __future__ import annotations

import collections
from contextlib import contextmanager
from typing import TYPE_CHECKING, Deque, Iterator

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class Resource:
    """FIFO counted resource.

    Parameters
    ----------
    engine:
        Owning engine.
    capacity:
        Number of concurrent holders allowed (>= 1).
    """

    def __init__(self, engine: "Engine", capacity: int = 1,
                 name: str = "") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._acquire_name = f"{name}:acquire"
        self._in_use = 0
        self._waiters: Deque[Event] = collections.deque()

    @property
    def in_use(self) -> int:
        """Number of slots currently held."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of pending acquisitions."""
        return len(self._waiters)

    def acquire(self) -> Event:
        """Request a slot; the returned event succeeds when granted."""
        ev = Event(self.engine, name=self._acquire_name)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed(self)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Return a slot, admitting the next waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # Hand the slot directly to the next waiter; _in_use unchanged.
            self._waiters.popleft().succeed(self)
        else:
            self._in_use -= 1

    @contextmanager
    def held(self) -> Iterator[None]:
        """``with`` helper for code that already holds a slot: releases on
        exit even if the body raises.  (Acquisition itself must be yielded
        from the owning process: ``yield res.acquire()``.)"""
        try:
            yield
        finally:
            self.release()

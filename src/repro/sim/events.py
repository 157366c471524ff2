"""Event primitives for the discrete-event engine.

An :class:`Event` is a one-shot synchronisation point: processes waiting on
it are resumed when it *succeeds* (with a value) or *fails* (with an
exception).  :class:`Timeout` is an event that succeeds after a fixed delay.
:class:`AllOf` / :class:`AnyOf` combine events into barrier / race
conditions.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Iterable, List, Optional,
                    Union)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

# Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()


class Event:
    """One-shot event; the basic waitable of the engine.

    States:

    * *pending* — freshly created, nothing has happened;
    * *triggered* — :meth:`succeed` or :meth:`fail` was called and the event
      sits in the engine queue waiting to be processed;
    * *processed* — callbacks have run; waiting on a processed event
      resumes the waiter immediately.

    A :meth:`_succeed_soon` with no callbacks to run queues nothing: its
    ``_process`` entry would have no effect, so it only reserves that
    entry's sequence number (:meth:`Engine.reserve
    <repro.sim.engine.Engine.reserve>`), which ``callbacks`` then holds.
    The event counts as processed once that key has passed; a waiter
    that comes before puts the entry back at the key (:meth:`_waiters`).
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "name")

    def __init__(self, engine: "Engine", name: str = "") -> None:
        self.engine = engine
        #: Callbacks invoked (in registration order) when the event is
        #: processed.  ``None`` once processed — late registrations are
        #: invoked immediately by :meth:`add_callback` — and the
        #: reserved sequence number of a completion nobody waited on.
        self.callbacks: Union[List[Callable[["Event"], None]], int,
                              None] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self.name = name

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (success or failure)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been run."""
        callbacks = self.callbacks
        return callbacks is None or (
            callbacks.__class__ is int
            and self.engine.reserved_passed(callbacks))

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise RuntimeError(f"event {self!r} not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception."""
        if self._value is _PENDING:
            raise RuntimeError(f"event {self!r} not yet triggered")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise RuntimeError(f"event {self!r} already triggered")
        self._ok = True
        self._value = value
        self.engine._enqueue(self, delay=0.0)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed with exception ``exc``."""
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self.triggered:
            raise RuntimeError(f"event {self!r} already triggered")
        self._ok = False
        self._value = exc
        self.engine._enqueue(self, delay=0.0)
        return self

    def _succeed_soon(self, value: Any = None) -> None:
        """:meth:`succeed`, processed through :meth:`Engine.call_soon
        <repro.sim.engine.Engine.call_soon>`: callbacks run at the
        position the queued event would pop at, without the heap trip
        when none is needed, and with no entry at all while nobody
        waits (the key is reserved)."""
        if self._value is not _PENDING:
            raise RuntimeError(f"event {self!r} already triggered")
        self._ok = True
        self._value = value
        if self.callbacks:
            self.engine.call_soon(self._process)
        else:
            self.callbacks = self.engine.reserve()

    # -- callback plumbing -------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn`` to run when the event is processed.

        If the event has already been processed the callback is scheduled
        to run immediately (at the current simulation time) instead of
        being silently dropped.
        """
        callbacks = self._waiters()
        if callbacks is None:
            # Already processed: deliver on a fresh queue pass so that the
            # caller never observes re-entrant execution.  The callback
            # still receives *this* event (waiters compare identity).
            self.engine.call_in(0.0, fn, self)
        else:
            callbacks.append(fn)

    def _waiters(self) -> Optional[List[Callable[["Event"], None]]]:
        """The callback list a new waiter joins, or ``None`` once the
        event is processed.  A reserved completion whose key has not
        passed gets its ``_process`` entry back at that key."""
        callbacks = self.callbacks
        if callbacks is None or callbacks.__class__ is list:
            return callbacks
        engine = self.engine
        if engine.reserved_passed(callbacks):
            self.callbacks = None
            return None
        engine.run_reserved(callbacks, self._process)
        self.callbacks = []
        return self.callbacks

    def _process(self) -> None:
        """Run callbacks.  Called by the engine only."""
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for fn in callbacks:
                fn(self)

    def _label(self) -> str:
        """Debug label when no name was given (built only on demand)."""
        return self.__class__.__name__

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{self.name or self._label()} {state} at {id(self):#x}>"


class CompletionEvent(Event):
    """Event describing the completion of one fabric operation.

    Both fabric front-ends (:class:`repro.dv.api.DataVortexAPI` and
    :class:`repro.ib.mpi.MPIEndpoint`) return these from their send and
    barrier paths, so callers can introspect what finished without
    caring which fabric ran it.  The success value remains the
    operation's payload, exactly as with a plain :class:`Event` —
    the metadata rides alongside and costs nothing to ignore.  A DV
    fan-out (``send_batch``, ``transmit_batch``) completes with one
    :class:`repro.dv.flow.FanOut` for the whole batch (``op="fanout"``,
    ``dest=-1``, ``words`` the total), whose value is the list of the
    groups' payloads.

    Attributes
    ----------
    fabric:
        ``"dv"`` or ``"ib"``.
    op:
        Operation kind (``"transmit"``, ``"send"``, ``"barrier"``, ...).
    src, dest:
        Endpoint indices (``-1`` when not applicable, e.g. barriers).
    tag:
        Message tag (IB) or counter index (DV); 0 when unused.
    words, nbytes:
        Payload size in 64-bit words (DV) / bytes (IB); 0 when unknown.
    """

    __slots__ = ("fabric", "op", "src", "dest", "tag", "words", "nbytes")

    def __init__(self, engine: "Engine", *, fabric: str = "", op: str = "",
                 src: int = -1, dest: int = -1, tag: int = 0,
                 words: int = 0, nbytes: int = 0, name: str = "") -> None:
        super().__init__(engine, name=name)
        self.fabric = fabric
        self.op = op
        self.src = src
        self.dest = dest
        self.tag = tag
        self.words = words
        self.nbytes = nbytes


class Timeout(Event):
    """Event that succeeds ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None,
                 name: str = "") -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(engine, name=name)
        self.delay = delay
        self._ok = True
        self._value = value
        engine._enqueue(self, delay=delay)

    def _label(self) -> str:
        return f"timeout({self.delay:g})"


class _Condition(Event):
    """Shared machinery for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_n_done")

    def __init__(self, engine: "Engine", events: Iterable[Event],
                 name: str = "") -> None:
        super().__init__(engine, name=name)
        self.events: List[Event] = list(events)
        self._n_done = 0
        if not self.events:
            self.succeed([])
            return
        for ev in self.events:
            if ev.engine is not engine:
                raise ValueError("cannot mix events from different engines")
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Succeeds when *all* child events have succeeded.

    The value is the list of child values in child order.  Fails as soon
    as any child fails.
    """

    __slots__ = ()

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._n_done += 1
        if self._n_done == len(self.events):
            self.succeed([e.value for e in self.events])


class AnyOf(_Condition):
    """Succeeds when the *first* child event succeeds.

    The value is a ``(index, value)`` pair identifying the winner.  Fails
    if the first child to trigger fails.
    """

    __slots__ = ()

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self.succeed((self.events.index(ev), ev.value))

"""Unit tests for the discrete-event engine core."""

import pytest

from repro.sim import Engine, SimulationError
from repro.sim.events import Event


def test_clock_starts_at_zero():
    eng = Engine()
    assert eng.now == 0.0


def test_clock_custom_start():
    eng = Engine(start=5.0)
    assert eng.now == 5.0


def test_timeout_advances_clock():
    eng = Engine()
    eng.timeout(2.5)
    eng.run()
    assert eng.now == 2.5


def test_timeout_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.timeout(-1.0)


def test_timeouts_fire_in_time_order():
    eng = Engine()
    order = []
    for d in (3.0, 1.0, 2.0):
        eng.timeout(d).add_callback(lambda ev, d=d: order.append(d))
    eng.run()
    assert order == [1.0, 2.0, 3.0]


def test_same_time_events_fifo():
    eng = Engine()
    order = []
    for i in range(10):
        eng.timeout(1.0).add_callback(lambda ev, i=i: order.append(i))
    eng.run()
    assert order == list(range(10))


def test_run_until_stops_and_sets_clock():
    eng = Engine()
    fired = []
    eng.timeout(10.0).add_callback(lambda ev: fired.append(1))
    eng.run(until=4.0)
    assert eng.now == 4.0
    assert not fired
    eng.run()
    assert fired and eng.now == 10.0


def test_run_until_beyond_queue_advances_clock():
    eng = Engine()
    eng.timeout(1.0)
    eng.run(until=100.0)
    assert eng.now == 100.0


def test_max_events_guard():
    eng = Engine()

    def forever(eng):
        while True:
            yield eng.timeout(1.0)

    eng.process(forever(eng))
    with pytest.raises(SimulationError):
        eng.run(max_events=50)


def test_step_on_empty_queue_raises():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.step()


def test_peek_empty_is_inf():
    eng = Engine()
    assert eng.peek() == float("inf")


def test_event_succeed_value():
    eng = Engine()
    ev = eng.event()
    ev.succeed(42)
    eng.run()
    assert ev.processed and ev.ok and ev.value == 42


def test_event_fail_carries_exception():
    eng = Engine()
    ev = eng.event()
    err = RuntimeError("boom")
    ev.fail(err)
    eng.run()
    assert ev.processed and not ev.ok and ev.value is err


def test_event_double_trigger_rejected():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError("x"))


def test_fail_requires_exception_instance():
    eng = Engine()
    with pytest.raises(TypeError):
        eng.event().fail("not an exception")  # type: ignore[arg-type]


def test_value_before_trigger_raises():
    eng = Engine()
    ev = eng.event()
    with pytest.raises(RuntimeError):
        _ = ev.value
    with pytest.raises(RuntimeError):
        _ = ev.ok


def test_late_callback_still_invoked():
    eng = Engine()
    ev = eng.event()
    ev.succeed("x")
    eng.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    eng.run()
    assert seen == ["x"]


def test_events_processed_counter():
    eng = Engine()
    for _ in range(5):
        eng.timeout(1.0)
    eng.run()
    assert eng.events_processed == 5


def test_run_process_returns_value():
    eng = Engine()

    def body(eng):
        yield eng.timeout(1.0)
        return "ok"

    assert eng.run_process(body(eng)) == "ok"


def test_run_process_raises_body_exception():
    eng = Engine()

    def body(eng):
        yield eng.timeout(1.0)
        raise ValueError("inside")

    with pytest.raises(ValueError, match="inside"):
        eng.run_process(body(eng))


def test_run_process_detects_deadlock():
    eng = Engine()

    def body(eng):
        yield eng.event()  # never triggered

    with pytest.raises(SimulationError, match="did not finish"):
        eng.run_process(body(eng))


def test_simultaneous_events_fire_in_insertion_order():
    """Property: events scheduled for the same instant fire in exactly
    the order they were enqueued, for any interleaving of ``timeout``
    and ``call_in`` scheduling and any grouping of instants.  This is
    the tie-determinism invariant the fast/reference bit-identity
    guarantee rests on (see Engine's docstring).
    """
    import random

    for seed in range(100):
        rng = random.Random(seed)
        eng = Engine()
        fired = []
        expected = []
        # a handful of distinct instants, each receiving several events
        instants = sorted(rng.sample(range(1, 50), rng.randint(2, 6)))
        order = [t for t in instants
                 for _ in range(rng.randint(2, 5))]
        rng.shuffle(order)  # interleave scheduling across instants
        for i, t in enumerate(order):
            tag = (t, i)
            if rng.random() < 0.5:
                eng.call_in(float(t), fired.append, tag)
            else:
                ev = eng.timeout(float(t), value=tag)
                ev.add_callback(lambda e, tag=tag: fired.append(tag))
        # expected: sort by time only, ties in insertion (i) order
        expected = sorted(((t, i) for i, t in enumerate(order)),
                          key=lambda ti: (ti[0], ti[1]))
        eng.run()
        assert fired == expected, f"tie order broken at seed={seed}"


@pytest.mark.parametrize("until", [None, 3.0])
def test_call_soon_keeps_call_in_order(until):
    """call_soon is call_in(0.0) without the heap trip: any mix of the
    two with same-instant heap entries and timed wakeups runs in one
    and the same order, and takes the same sequence numbers."""
    import random

    def trace(use_soon):
        eng = Engine()
        rng = random.Random(11)
        log = []

        def act(tag, depth):
            log.append((eng.now, tag))
            for k in range(rng.randrange(4) if depth < 5 else 0):
                delay = rng.choice([0.0, 0.0, 0.0, 1.0, 2.0])
                soon = rng.random() < 0.7
                if use_soon and soon and delay == 0.0:
                    eng.call_soon(act, (tag, k), depth + 1)
                else:
                    eng.call_in(delay, act, (tag, k), depth + 1)

        for root in range(6):
            eng.call_in(float(root % 3), act, root, 0)
        eng.run(until=until)
        return log, eng.now, eng._seq, eng.events_processed

    heap_only, with_soon = trace(False), trace(True)
    assert with_soon[:3] == heap_only[:3]
    assert with_soon[3] < heap_only[3]


@pytest.mark.parametrize("seed", range(6))
def test_reserved_completions_keep_the_queued_order(seed):
    """A ``_succeed_soon`` nobody waits on only reserves its entry's
    key.  Against events that always queue that entry, any mix of
    completions and of waiters (callbacks and processes) arriving
    before, at and after the key runs in one order, with the same
    sequence numbers, heap entries and ``processed`` states."""
    import random

    class Queued(Event):
        __slots__ = ()

        def _succeed_soon(self, value=None):
            self._ok = True
            self._value = value
            self.engine.call_soon(self._process)

    def trace(cls):
        eng = Engine()
        rng = random.Random(seed)
        log = []
        events = [cls(eng) for _ in range(12)]
        done = set()

        def waiter(k):
            yield eng.timeout(0.0)
            value = yield events[k]
            log.append(("resumed", eng.now, k, value))

        def act(tag, depth):
            log.append((eng.now, tag))
            for j in range(rng.randrange(4) if depth < 4 else 0):
                k = rng.randrange(len(events))
                what = rng.random()
                if what < 0.3 and k not in done:
                    done.add(k)
                    events[k]._succeed_soon((tag, j))
                elif what < 0.6:
                    events[k].add_callback(
                        lambda ev, k=k: log.append(("cb", eng.now, k))
                    )
                elif what < 0.7:
                    eng.process(waiter(k))
                delay = rng.choice([0.0, 0.0, 1.0])
                if delay:
                    eng.call_in(delay, act, (tag, j), depth + 1)
                else:
                    eng.call_soon(act, (tag, j), depth + 1)
            log.append((tag, [ev.processed for ev in events]))

        for root in range(4):
            eng.call_in(float(root % 2), act, root, 0)
        eng.run()
        for k in range(len(events)):
            if k not in done:
                events[k].succeed("late")
        eng.run()
        log.append([ev.processed for ev in events])
        return log, eng.now, eng._seq, eng.events_processed

    assert trace(Event) == trace(Queued)


def test_call_soon_outside_run_uses_the_heap():
    eng = Engine()
    seen = []
    eng.call_soon(seen.append, 1)
    assert eng.peek() == 0.0
    eng.run()
    assert seen == [1] and eng.events_processed == 1


def test_zero_delay_ties_fire_in_enqueue_order():
    """Same-instant children of different cascades interleave in
    enqueue order, not cascade by cascade."""
    eng = Engine()
    fired = []

    def spawn(tag):
        fired.append(tag)
        if len(tag) < 3:
            eng.call_in(0.0, spawn, tag + "'")

    for tag in ("a", "b"):
        eng.call_in(1.0, spawn, tag)
    eng.run()
    assert fired == ["a", "b", "a'", "b'", "a''", "b''"]


def test_mark_is_passed_exactly_when_the_serial_order_says():
    """``passed(mark)`` is false in the marking entry and in entries
    queued before the mark (same instant included), and true in entries
    queued after it, through the heap or the ``call_soon`` lane."""
    eng = Engine()
    marks = []
    seen = []

    def look(tag):
        seen.append((tag, eng.passed(marks[0])))

    def first():
        marks.append(eng.mark())
        look("marking entry")
        eng.call_soon(look, "zero-delay after the mark")
        eng.call_in(0.0, look, "heap entry after the mark")
        eng.call_in(1.0, look, "a later instant")

    eng.call_in(1.0, first)
    eng.call_in(1.0, look, "same instant, queued before the mark")
    eng.run()
    assert seen == [("marking entry", False),
                    ("same instant, queued before the mark", False),
                    ("zero-delay after the mark", True),
                    ("heap entry after the mark", True),
                    ("a later instant", True)]

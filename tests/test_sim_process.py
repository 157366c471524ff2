"""Unit tests for processes and condition events."""

import pytest

from repro.sim import Engine, ProcessKilled


def test_process_completes_with_return_value():
    eng = Engine()

    def body(eng):
        yield eng.timeout(1.0)
        yield eng.timeout(2.0)
        return eng.now

    p = eng.process(body(eng))
    eng.run()
    assert p.ok and p.value == 3.0


def test_process_receives_timeout_value():
    eng = Engine()

    def body(eng):
        got = yield eng.timeout(1.0, value="payload")
        return got

    p = eng.process(body(eng))
    eng.run()
    assert p.value == "payload"


def test_yield_on_process_joins():
    eng = Engine()

    def child(eng):
        yield eng.timeout(5.0)
        return "child-result"

    def parent(eng):
        res = yield eng.process(child(eng))
        return (eng.now, res)

    p = eng.process(parent(eng))
    eng.run()
    assert p.value == (5.0, "child-result")


def test_two_processes_interleave():
    eng = Engine()
    log = []

    def ticker(eng, name, period):
        for _ in range(3):
            yield eng.timeout(period)
            log.append((eng.now, name))

    eng.process(ticker(eng, "a", 1.0))
    eng.process(ticker(eng, "b", 1.5))
    eng.run()
    # At t=3.0 both fire; b's timeout was scheduled first (at t=1.5 vs
    # a's t=2.0) so FIFO tie-breaking runs b first.
    assert log == [(1.0, "a"), (1.5, "b"), (2.0, "a"), (3.0, "b"),
                   (3.0, "a"), (4.5, "b")]


def test_process_failure_propagates_to_joiner():
    eng = Engine()

    def child(eng):
        yield eng.timeout(1.0)
        raise RuntimeError("child died")

    def parent(eng):
        try:
            yield eng.process(child(eng))
        except RuntimeError as e:
            return f"caught: {e}"

    p = eng.process(parent(eng))
    eng.run()
    assert p.value == "caught: child died"


def test_uncaught_child_failure_fails_parent():
    eng = Engine()

    def child(eng):
        yield eng.timeout(1.0)
        raise RuntimeError("boom")

    def parent(eng):
        yield eng.process(child(eng))

    p = eng.process(parent(eng))
    eng.run()
    assert not p.ok and isinstance(p.value, RuntimeError)


def test_yield_non_waitable_fails_process():
    eng = Engine()

    def body(eng):
        yield 42  # not an event

    p = eng.process(body(eng))
    eng.run()
    assert not p.ok and isinstance(p.value, TypeError)


def test_cross_engine_event_rejected():
    eng1, eng2 = Engine(), Engine()

    def body(eng):
        yield eng2.timeout(1.0)

    p = eng1.process(body(eng1))
    eng1.run()
    assert not p.ok and isinstance(p.value, ValueError)


def test_non_generator_rejected():
    eng = Engine()
    with pytest.raises(TypeError, match="generator"):
        eng.process(lambda: None)  # type: ignore[arg-type]


def test_kill_interrupts_process():
    eng = Engine()

    def body(eng):
        yield eng.timeout(100.0)

    p = eng.process(body(eng))
    eng.run(until=1.0)
    p.kill("test")
    eng.run()
    assert not p.ok and isinstance(p.value, ProcessKilled)


def test_kill_can_be_caught():
    eng = Engine()

    def body(eng):
        try:
            yield eng.timeout(100.0)
        except ProcessKilled:
            yield eng.timeout(1.0)
            return "survived"

    p = eng.process(body(eng))
    eng.run(until=1.0)
    p.kill()
    eng.run()
    assert p.ok and p.value == "survived"


def test_kill_finished_process_is_noop():
    eng = Engine()

    def body(eng):
        yield eng.timeout(1.0)
        return "done"

    p = eng.process(body(eng))
    eng.run()
    p.kill()
    assert p.ok and p.value == "done"


def test_all_of_waits_for_every_event():
    eng = Engine()

    def body(eng):
        vals = yield eng.all_of([eng.timeout(1.0, "a"),
                                 eng.timeout(3.0, "b"),
                                 eng.timeout(2.0, "c")])
        return (eng.now, vals)

    p = eng.process(body(eng))
    eng.run()
    assert p.value == (3.0, ["a", "b", "c"])


def test_all_of_empty_succeeds_immediately():
    eng = Engine()

    def body(eng):
        vals = yield eng.all_of([])
        return (eng.now, vals)

    p = eng.process(body(eng))
    eng.run()
    assert p.value == (0.0, [])


def test_any_of_returns_first_winner():
    eng = Engine()

    def body(eng):
        idx, val = yield eng.any_of([eng.timeout(5.0, "slow"),
                                     eng.timeout(1.0, "fast")])
        return (eng.now, idx, val)

    p = eng.process(body(eng))
    eng.run()
    assert p.value == (1.0, 1, "fast")


def test_any_of_failure_propagates():
    eng = Engine()
    bad = eng.event()

    def body(eng):
        yield eng.any_of([bad, eng.timeout(10.0)])

    p = eng.process(body(eng))
    bad.fail(RuntimeError("bad event"))
    eng.run()
    assert not p.ok and isinstance(p.value, RuntimeError)


def test_all_of_failure_propagates():
    eng = Engine()
    bad = eng.event()

    def body(eng):
        yield eng.all_of([eng.timeout(1.0), bad])

    p = eng.process(body(eng))
    bad.fail(RuntimeError("bad event"))
    eng.run()
    assert not p.ok


def test_is_alive_lifecycle():
    eng = Engine()

    def body(eng):
        yield eng.timeout(2.0)

    p = eng.process(body(eng))
    assert p.is_alive
    eng.run()
    assert not p.is_alive


def test_kill_before_start_never_runs_the_body():
    eng = Engine()
    ran = []

    def body():
        ran.append(True)
        yield eng.timeout(1.0)

    p = eng.process(body())
    p.kill("early")
    eng.run()
    assert ran == []
    assert not p.ok and isinstance(p.value, ProcessKilled)
    assert eng.now == 0.0


def test_yielding_a_processed_event_resumes_with_its_value():
    eng = Engine()
    ev = eng.event()
    ev.succeed("v")
    eng.run()
    assert ev.processed

    def body():
        got = yield ev
        return got, eng.now

    p = eng.process(body())
    eng.run()
    assert p.ok and p.value == ("v", 0.0)


def test_repr_labels_are_readable():
    eng = Engine()
    assert "timeout(1.5)" in repr(eng.timeout(1.5))
    assert "<Event pending" in repr(eng.event())
    assert "<cts:7 pending" in repr(eng.event(name="cts:7"))

    def body():
        yield eng.timeout(1.0)

    assert "<rank3 " in repr(eng.process(body(), name="rank3"))
    assert "<body " in repr(eng.process(body()))

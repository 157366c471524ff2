"""Unit tests for Resource."""

import pytest

from repro.sim import Engine, Resource


# ------------------------------------------------------------- Resource ---

def test_resource_acquire_release():
    eng = Engine()
    res = Resource(eng, capacity=1)

    def body(eng):
        yield res.acquire()
        assert res.in_use == 1
        res.release()
        assert res.in_use == 0

    eng.run_process(body(eng))


def test_resource_blocks_at_capacity():
    eng = Engine()
    res = Resource(eng, capacity=1)
    log = []

    def worker(eng, name, hold):
        yield res.acquire()
        log.append((name, "got", eng.now))
        yield eng.timeout(hold)
        res.release()

    eng.process(worker(eng, "a", 2.0))
    eng.process(worker(eng, "b", 1.0))
    eng.run()
    assert log == [("a", "got", 0.0), ("b", "got", 2.0)]


def test_resource_multi_capacity():
    eng = Engine()
    res = Resource(eng, capacity=2)
    log = []

    def worker(eng, name):
        yield res.acquire()
        log.append((name, eng.now))
        yield eng.timeout(1.0)
        res.release()

    for name in "abc":
        eng.process(worker(eng, name))
    eng.run()
    assert log == [("a", 0.0), ("b", 0.0), ("c", 1.0)]


def test_resource_release_idle_raises():
    eng = Engine()
    res = Resource(eng)
    with pytest.raises(RuntimeError):
        res.release()


def test_resource_held_context_releases_on_error():
    eng = Engine()
    res = Resource(eng)

    def body(eng):
        yield res.acquire()
        try:
            with res.held():
                raise ValueError("oops")
        except ValueError:
            pass
        assert res.in_use == 0

    eng.run_process(body(eng))


def test_resource_queue_length():
    eng = Engine()
    res = Resource(eng, capacity=1)

    def holder(eng):
        yield res.acquire()
        yield eng.timeout(10.0)
        res.release()

    def waiter(eng):
        yield res.acquire()
        res.release()

    eng.process(holder(eng))
    eng.process(waiter(eng))
    eng.run(until=1.0)
    assert res.queue_length == 1
    eng.run()
    assert res.queue_length == 0


def test_resource_bad_capacity():
    eng = Engine()
    with pytest.raises(ValueError):
        Resource(eng, capacity=0)

"""ShardEngine semantics: merge keys, explicit-key insertion, sequence
burning, lineages and exact tie ordering, and the conservative window
loop."""

import pytest

from repro.sim.engine import Engine, SimulationError
from repro.sim.pdes import ShardingUnsupported
from repro.sim.pdes.engine import (ANCESTRY_DEPTH, ROOT_ANCESTRY, ROOT_IDS,
                                   ROOT_LINEAGE, ShardEngine,
                                   ancestry_order)


def test_heap_entries_carry_merge_keys():
    eng = ShardEngine(shard_id=3)
    eng.call_in(2.0, lambda: None)
    eng.timeout(1.0)
    for entry in eng._queue:
        fire_t, sched_t, anc, rank, seq, source, push, lin, _fn, _args = entry
        assert fire_t >= sched_t == 0.0
        assert rank == 0 and anc == ROOT_ANCESTRY
        assert source == 3 and lin is ROOT_LINEAGE
        assert len(anc) == ANCESTRY_DEPTH
        assert isinstance(seq, int) and isinstance(push, int)


def test_zero_delay_ties_fire_in_enqueue_order_like_serial():
    """Same-instant children of different cascades interleave as the
    serial engine runs them (enqueue order), not cascade by cascade."""
    def drive(eng):
        fired = []

        def spawn(tag):
            fired.append(tag)
            if len(tag) < 3:
                eng.call_in(0.0, spawn, tag + "'")

        for tag in ("a", "b"):
            eng.call_in(1.0, spawn, tag)
        eng.run()
        return fired

    serial = drive(Engine())
    assert serial == ["a", "b", "a'", "b'", "a''", "b''"]
    assert drive(ShardEngine()) == serial


def _lineage(*ids, path=0, root=None):
    return (tuple(ids) + ROOT_IDS[len(ids):], path, root)


def test_ancestry_order_splits_at_the_common_ancestor():
    # both lines descend from event (5, 2); its children (5, 3) and
    # (5, 4) were enqueued in that order, whatever happened below
    a = _lineage((0, 40), (5, 3), (5, 2))
    b = _lineage((1, 10), (5, 4), (5, 2))
    assert ancestry_order(a, (0, 41), b, (1, 11)) == -1
    assert ancestry_order(b, (1, 11), a, (0, 41)) == 1
    # no common ancestor before the setup event, and the setup event's
    # children are not rank starts: unknowable
    c = _lineage((1, 10), (6, 4), (6, 2))
    assert ancestry_order(a, (0, 41), c, (1, 11)) == 0


def test_rank_starts_order_by_rank():
    assert ancestry_order(_lineage((-1, 2)), (0, 9),
                          _lineage((-1, 5)), (1, 3)) == -1


def test_lockstep_histories_beyond_reach_keep_rank_order():
    deep_a = [(0, 100 + i) for i in range(ANCESTRY_DEPTH)]
    deep_b = [(1, 200 + i) for i in range(ANCESTRY_DEPTH)]
    a = (tuple(deep_a), 77, 3)
    b = (tuple(deep_b), 77, 1)
    assert ancestry_order(a, (0, 1), b, (1, 1)) == 1
    # a history that ran at other instants somewhere up the line
    assert ancestry_order(a, (0, 1), (b[0], 78, 1), (1, 1)) == 0
    # one rank's history split further up than the lineage reaches
    assert ancestry_order(a, (0, 1), (b[0], 77, 3), (1, 1)) == 0


def test_cross_counter_tie_follows_the_common_ancestor():
    """The heap alone would fire the remote entry first (lower seq);
    the common ancestor says the local one was enqueued first."""
    eng = ShardEngine(shard_id=0)
    fired = []
    eng.schedule_key(1.0, 0.0, 41, fired.append, ("local",),
                     stamp=(ROOT_ANCESTRY,
                            _lineage((0, 40), (5, 3), (5, 2))))
    eng.schedule_key(1.0, 0.0, 11, fired.append, ("remote",),
                     stamp=(ROOT_ANCESTRY,
                            _lineage((1, 10), (5, 4), (5, 2))),
                     source=1)
    eng.run()
    assert fired == ["local", "remote"]


def test_entries_carry_their_schedulers_instants():
    eng = ShardEngine()
    seen = []

    def second():
        eng.call_in(0.5, lambda: None)
        seen.append(eng._queue[0][2])

    eng.call_in(1.0, lambda: eng.call_in(2.0, second))
    eng.run()
    # scheduled by `second` (scheduled at 1.0 by an event scheduled at 0)
    assert seen[0][:3] == (1.0, 0.0, -1.0)


def test_ancestor_instants_outrank_the_common_ancestor():
    """Below their common ancestor the two lines reached the same
    instant by different paths: the one scheduled earlier up the line
    ran first, whatever order the ancestor enqueued their heads in."""
    eng = ShardEngine(shard_id=0)
    fired = []
    early = (0.3,) + ROOT_ANCESTRY[1:]
    late = (0.7,) + ROOT_ANCESTRY[1:]
    eng.schedule_key(1.0, 0.9, 41, fired.append, ("first-enqueued",),
                     stamp=(late, _lineage((0, 40), (5, 3), (5, 2))))
    eng.schedule_key(1.0, 0.9, 11, fired.append, ("first-scheduled",),
                     stamp=(early, _lineage((1, 10), (5, 4), (5, 2))),
                     source=1)
    eng.run()
    assert fired == ["first-scheduled", "first-enqueued"]


def test_cross_counter_tie_without_common_ancestor_is_refused():
    eng = ShardEngine(shard_id=0)
    eng.schedule_key(1.0, 0.0, 10, lambda: None, ())
    eng.schedule_key(1.0, 0.0, 3, lambda: None, (), source=1)
    with pytest.raises(ShardingUnsupported, match="same-instant") as info:
        eng.run()
    assert info.value.reason == "tie-order"


def test_rank_process_lineage_starts_at_its_rank():
    eng = ShardEngine(shard_id=2)
    seen = []

    def prog():
        seen.append(eng._lin)
        yield eng.timeout(1.0)

    eng.process(prog(), origin=7)
    eng.run()
    ids, _path, root = seen[0]
    assert root == 7 and ids[0] == (-1, 7)


def test_same_program_same_event_order_as_serial_engine():
    """A single ShardEngine over a whole program is a drop-in Engine:
    the richer key must not change processing order."""
    def drive(eng):
        fired = []
        for i, d in enumerate([3.0, 1.0, 1.0, 2.0, 1.0]):
            eng.call_in(d, fired.append, i)
        eng.run()
        return fired

    assert drive(ShardEngine()) == drive(Engine())


def test_schedule_key_files_cross_shard_arrival_before_local_tie():
    """An explicit key with a smaller sequence number must fire before
    a locally enqueued event at the same instant, exactly where the
    sending shard's serial-equivalent enqueue would have placed it."""
    eng = ShardEngine(shard_id=1)
    fired = []

    def empty():
        return
        yield

    eng.process(empty(), origin=5)
    eng.call_in(1.0, fired.append, "local")
    # remote arrival burned earlier in serial order
    eng.schedule_key(1.0, 0.0, 1, fired.append, ("remote",))
    eng.run()
    assert fired == ["remote", "local"]


def test_schedule_key_does_not_advance_local_seq():
    eng = ShardEngine()
    before = eng._seq
    eng.schedule_key(1.0, 0.0, 7, lambda: None, ())
    assert eng._seq == before


@pytest.mark.parametrize("engine_cls", [Engine, ShardEngine])
def test_mark_is_passed_exactly_when_the_serial_order_says(engine_cls):
    """``passed(mark)`` is false in the marking entry and in entries
    queued before the mark (same instant included), and true in entries
    queued after it, through the heap or the ``call_soon`` lane."""
    eng = engine_cls()
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


def test_burn_seq_returns_first_and_advances():
    eng = ShardEngine()
    start = eng._seq
    first = eng.burn_seq(3)
    assert first == start + 1
    assert eng._seq == start + 3
    # next local enqueue continues after the burned block
    eng.call_in(1.0, lambda: None)
    assert eng._queue[0][4] == start + 4


def test_run_window_stops_strictly_before_horizon():
    eng = ShardEngine()
    fired = []
    for d in (0.5, 1.0, 1.5, 2.0):
        eng.call_in(d, fired.append, d)
    n = eng.run_window(1.5)  # strictly below: 1.5 stays queued
    assert n == 2 and fired == [0.5, 1.0]
    assert eng.peek() == 1.5
    n = eng.run_window(float("inf"))
    assert n == 2 and fired == [0.5, 1.0, 1.5, 2.0]
    assert eng.peek() == float("inf")


def test_run_window_on_empty_queue_is_a_noop():
    eng = ShardEngine()
    assert eng.run_window(10.0) == 0


def test_step_on_empty_queue_raises():
    with pytest.raises(SimulationError):
        ShardEngine().step()


def test_negative_delay_rejected():
    eng = ShardEngine()
    with pytest.raises(ValueError):
        eng.call_in(-1.0, lambda: None)
    with pytest.raises(ValueError):
        eng.timeout(-1.0)

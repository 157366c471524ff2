"""Differential oracle: one fan-out completion vs per-group events.

:meth:`repro.dv.flow.FlowNetwork.transmit_batch` completes a fan-out
with one :class:`~repro.dv.flow.FanOut`, and ``send_batch`` joins it
where it used to build an ``AllOf``.
:class:`tests.reference_engines.PerGroupFlowNetwork` and
:class:`tests.reference_engines.ReferenceDataVortexAPI` are the layer as
first written: a ``CompletionEvent`` per destination group and an
``AllOf`` over them.

Both run the same programs.  Each run records, in global order, every
delivery, every FIFO push, every counter reaching zero and every
waiter's resume, along with the results and the flow statistics.  The
records must be equal bit for bit: the heap may shrink, the simulation
may not move.  The raw-network programs join fan-outs before, after and
at the instant of their last delivery (from a receiver, directly or
through chains of zero-delay wakeups), never, and from several waiters.
"""

import random

import numpy as np
import pytest

from repro import faults
from repro.agg import AggSpec
from repro.apps.cg import run_cg
from repro.apps.heat import run_heat
from repro.apps.snap import run_snap_iterative
from repro.core import cluster
from repro.core.cluster import ClusterSpec
from repro.dv import flow
from repro.dv.config import DVConfig
from repro.dv.counters import GroupCounters
from repro.dv.fifo import SurpriseFIFO
from repro.dv.flow import FanOut, FlowNetwork
from repro.dv.vic import VIC, FifoPush
from repro.faults.plan import FaultPlan
from repro.kernels.bfs import run_bfs
from repro.kernels.gups import run_gups
from repro.kernels.spmv import run_spmv
from repro.sim.engine import Engine
from repro.sim.process import Process
from repro.tenancy import runner as tenancy_runner
from repro.tenancy.experiments import interference_point
from tests.reference_engines import PerGroupFlowNetwork, ReferenceDataVortexAPI
from tests.test_mpi_requests import _digest


def _stats(net):
    s = net.stats
    wait_in = float(s.total_injection_wait_s).hex()
    wait_out = float(s.total_ejection_wait_s).hex()
    return (s.packets_sent, s.transfers, wait_in, wait_out)


# ------------------------------------------------ raw-network programs ---

#: how a fan-out is joined: at once, by a call after a delay, at one of
#: its deliveries, by several waiting processes, never, or by scatter
JOINS = ("now", "later", "on-delivery", "several", "never", "scatter")


def _drive(net_cls, seed, n_ports=6, n_rounds=60, n_procs=3):
    """Random fan-outs and transfers from several processes; returns
    the record of everything that happened, in order."""
    engine = Engine()
    net = net_cls(engine, DVConfig(), n_ports)
    hop = net.config.hop_time_s
    rng = random.Random(seed)
    log = []
    hooks = {}  # token -> callback run when that group is delivered

    def note(*entry):
        log.append((engine.now,) + entry)

    def chain(depth, fn, *args):
        """Run ``fn(*args)`` after ``depth`` zero-delay hops."""
        if depth == 0:
            fn(*args)
        else:
            engine.call_in(0.0, chain, depth - 1, fn, *args)

    def receiver(port):
        def rx(src, eff, n):
            token = None if eff is None else int(eff.values[0])
            note("rx", port, int(src), int(n), token)
            hook = hooks.pop(token, None)
            if hook is not None:
                hook()

        return rx

    for p in range(n_ports):
        net.attach(p, receiver(p))

    def waiter(name, ev, delay):
        if delay is not None:
            yield engine.timeout(delay)
        value = yield ev
        note("resume", name, len(value))

    def joined(name, fan, n_waiters):
        ev = fan.join()
        note("join", name)
        ev.add_callback(lambda e: note("fired", name))
        for w in range(n_waiters):
            engine.process(waiter(f"{name}/w{w}", ev, None))
        engine.call_in(0.0, note, "after-join", name)

    def join_on_delivery(name, fan, at, depth, n_waiters, bystanders):
        """At the fan-out's ``at``-th delivery, join it ``depth``
        zero-delay hops later, with zero-delay bystanders racing it."""
        seen = []

        def tick():
            seen.append(engine.now)
            if len(seen) == at:
                chain(depth, joined, name, fan, n_waiters)
                for d in range(bystanders):
                    chain(d, chain, 2, note, "bystander", name, d)

        return tick

    def prog(pid):
        tokens = iter(range(pid * 10_000, (pid + 1) * 10_000))
        for i in range(n_rounds):
            yield engine.timeout(rng.randrange(0, 4) * hop)
            name = f"p{pid}.{i}"
            src = rng.randrange(n_ports)
            if rng.random() < 0.25:
                dest = rng.randrange(n_ports)
                word = np.array([next(tokens)], np.uint64)
                ev = net.transmit(src, dest, 1, payload=FifoPush(word))
                if rng.random() < 0.5:
                    yield ev
                    note("resume", name, 0)
                continue
            m = rng.randrange(1, min(n_ports, 4) + 1)
            dests = rng.sample(range(n_ports), m)
            counts = [rng.randrange(1, 3) for _ in range(m)]
            payloads = [
                FifoPush(np.full(c, next(tokens), np.uint64)) for c in counts
            ]
            mode = rng.choice(JOINS)
            if mode == "scatter":
                ev = net.scatter(src, dests, counts, payloads)
                note("join", name)
                yield ev
                note("resume", name, len(ev.value))
                continue
            fan = net.transmit_batch(src, dests, counts, payloads)
            if mode == "now":
                joined(name, fan, 1)
            elif mode == "later":
                delay = rng.randrange(0, 8) * hop
                engine.call_in(delay, joined, name, fan, 1)
            elif mode == "several":
                ev = fan.join()
                for w in range(3):
                    delay = rng.randrange(0, 6) * hop
                    engine.process(waiter(f"{name}/w{w}", ev, delay))
            elif mode == "on-delivery":
                at = rng.choice([m, rng.randrange(1, m + 1)])
                depth = rng.randrange(0, 3)
                n_waiters = rng.randrange(0, 3)
                bystanders = rng.randrange(0, 4)
                tick = join_on_delivery(
                    name, fan, at, depth, n_waiters, bystanders
                )
                for p in payloads:
                    hooks[int(p.values[0])] = tick

    for pid in range(n_procs):
        engine.process(prog(pid), name=f"p{pid}")
    engine.run()
    return log, _stats(net), float(engine.now).hex()


PLANS = {
    "none": None,
    "lossy": FaultPlan(seed=11, drop_prob=0.2),
}
SEEDS = range(6)


@pytest.mark.parametrize("plan_name", sorted(PLANS))
@pytest.mark.parametrize("seed", SEEDS)
def test_random_fanouts_match_per_group_oracle(seed, plan_name):
    plan = PLANS[plan_name]
    with faults.session(plan):
        ref = _drive(PerGroupFlowNetwork, seed)
    with faults.session(plan):
        new = _drive(FlowNetwork, seed)
    assert new[1:] == ref[1:]
    assert len(new[0]) == len(ref[0])
    for i, (a, b) in enumerate(zip(new[0], ref[0])):
        assert a == b, f"record {i} differs"


def test_random_programs_join_every_way(monkeypatch):
    """The seeds above join fan-outs at every position the AllOf could
    have been built at, relative to their groups' completions."""
    seen = set()
    real_join = FanOut.join
    real_last = FanOut._last_done
    last_ran = {}  # holds the fan-outs, so their ids stay unique

    def last_done(fan):
        last_ran[id(fan)] = fan
        real_last(fan)

    def join(fan):
        if fan._left:
            seen.add("before the last delivery")
        elif not fan.engine.passed(fan._first):
            seen.add("all delivered, no completion run")
        elif id(fan) in last_ran:
            seen.add("after the last completion")
        else:
            seen.add("last completion pending, an earlier one run")
        return real_join(fan)

    monkeypatch.setattr(FanOut, "join", join)
    monkeypatch.setattr(FanOut, "_last_done", last_done)
    for seed in SEEDS:
        _drive(FlowNetwork, seed)
    assert seen == {
        "before the last delivery",
        "all delivered, no completion run",
        "after the last completion",
        "last completion pending, an earlier one run",
    }


def test_fanout_value_and_empty_batch():
    engine = Engine()
    net = FlowNetwork(engine, DVConfig(), 4)
    ev = net.scatter(0, [1, 2, 3], [2, 1, 1], ["a", "b", "c"])
    empty = net.scatter(0, [], [], [])
    engine.run()
    assert ev.value == ["a", "b", "c"]
    assert empty.ok and empty.value == []


def test_unjoined_fanout_fires_once_joined():
    engine = Engine()
    net = FlowNetwork(engine, DVConfig(), 4)
    fan = net.transmit_batch(0, [1, 2], [1, 1], [None, None])
    engine.run()
    assert not fan.triggered
    fan.join()
    engine.run()
    assert fan.ok and fan.value == [None, None]


# --------------------------------------------------- kernels and apps ---


def _record(monkeypatch, reference, run):
    """Run ``run()`` on one fan-out layer; return its record."""
    log = []
    nets = []
    names = {}
    if reference:
        for module in (cluster, tenancy_runner):
            monkeypatch.setattr(module, "FlowNetwork", PerGroupFlowNetwork)
            monkeypatch.setattr(
                module, "DataVortexAPI", ReferenceDataVortexAPI
            )

    def ident(obj):
        # holds obj, so no later object can take over its id
        return names.setdefault(id(obj), (len(names), obj))[0]

    real_init = flow.FlowNetwork.__init__

    def init(net, *args, **kwargs):
        real_init(net, *args, **kwargs)
        nets.append(net)

    real_rx = VIC._on_delivery

    def words(v, dtype):
        # one-word effects may carry scalars: compare every address and
        # value bit for bit, whatever container carries it
        if v is None:
            return None
        return _digest(np.atleast_1d(np.asarray(v, dtype)))

    def rx(vic, src, effect, n):
        addrs = words(getattr(effect, "addrs", None), np.int64)
        values = words(getattr(effect, "values", None), np.uint64)
        kind = type(effect).__name__
        entry = (vic.engine.now, vic.vic_id, src, n, kind, addrs, values)
        log.append(("rx",) + entry)
        real_rx(vic, src, effect, n)

    real_push = SurpriseFIFO.push

    def push(fifo, values, src=-1):
        words = _digest(np.asarray(values))
        log.append(("fifo", fifo.engine.now, ident(fifo), src, words))
        return real_push(fifo, values, src)

    real_fire = GroupCounters._fire

    def fire(ctrs, idx):
        waiters = len(ctrs._zero_waiters.get(idx, ()))
        log.append(("zero", ctrs.engine.now, ident(ctrs), idx, waiters))
        real_fire(ctrs, idx)

    real_resume = Process._resume

    def resume(proc, trigger):
        awaited = trigger is proc._waiting_on
        entry = (proc.engine.now, proc.name, ident(proc), awaited)
        log.append(("resume",) + entry)
        real_resume(proc, trigger)

    monkeypatch.setattr(flow.FlowNetwork, "__init__", init)
    monkeypatch.setattr(VIC, "_on_delivery", rx)
    monkeypatch.setattr(SurpriseFIFO, "push", push)
    monkeypatch.setattr(GroupCounters, "_fire", fire)
    monkeypatch.setattr(Process, "_resume", resume)
    out = run()
    monkeypatch.undo()
    assert nets, "the run built no DV network"
    return log, _digest(out), [_stats(net) for net in nets]


def _assert_same(monkeypatch, run):
    """The one-completion layer and the oracle leave identical
    records."""
    log, out, stats = _record(monkeypatch, False, run)
    ref_log, ref_out, ref_stats = _record(monkeypatch, True, run)
    assert stats == ref_stats
    assert out == ref_out
    assert len(log) == len(ref_log)
    for i, (a, b) in enumerate(zip(log, ref_log)):
        assert a == b, f"record {i} differs"
    assert {"rx", "resume"} <= {entry[0] for entry in log}


@pytest.mark.parametrize("n", [2, 8])
def test_gups_matches_oracle(monkeypatch, n):
    spec = ClusterSpec(n_nodes=n, seed=3)
    kw = dict(table_words=256, n_updates=512, window=128, validate=True)
    _assert_same(monkeypatch, lambda: run_gups(spec, "dv", **kw))


def test_agg_gups_matches_oracle(monkeypatch):
    agg = AggSpec(watermark=8, routing="tree")
    spec = ClusterSpec(n_nodes=8, seed=5, aggregation=agg)
    kw = dict(table_words=256, n_updates=512)
    _assert_same(monkeypatch, lambda: run_gups(spec, "dv", **kw))


@pytest.mark.parametrize("strategy", ["topdown", "diropt"])
def test_bfs_matches_oracle(monkeypatch, strategy):
    spec = ClusterSpec(n_nodes=4, seed=3)
    kw = dict(scale=7, n_roots=2, strategy=strategy, validate=True)
    _assert_same(monkeypatch, lambda: run_bfs(spec, "dv", **kw))


def test_spmv_matches_oracle(monkeypatch):
    spec = ClusterSpec(n_nodes=4, seed=3)
    kw = dict(scale=7, iters=2, validate=True)
    _assert_same(monkeypatch, lambda: run_spmv(spec, "dv", **kw))


def test_heat_matches_oracle(monkeypatch):
    spec = ClusterSpec(n_nodes=8, seed=3)
    kw = dict(n=8, steps=3, validate=True)
    _assert_same(monkeypatch, lambda: run_heat(spec, "dv", **kw))


def test_cg_matches_oracle(monkeypatch):
    spec = ClusterSpec(n_nodes=4, seed=3)
    kw = dict(n=8, max_iters=6)
    _assert_same(monkeypatch, lambda: run_cg(spec, "dv", **kw))


def test_snap_matches_oracle(monkeypatch):
    spec = ClusterSpec(n_nodes=4, seed=3)
    kw = dict(max_iters=3, nx=4, ny_per_rank=2, nz=4, n_angles=4)
    _assert_same(monkeypatch, lambda: run_snap_iterative(spec, "dv", **kw))


@pytest.mark.parametrize("victim", ["gups", "bfs"])
def test_cotenants_match_oracle(monkeypatch, victim):
    """Tenant network views hand the fan-outs through unchanged."""
    aggressor = "bfs" if victim == "gups" else "gups"
    small = {
        "gups": {"table_words": 256, "n_updates": 256},
        "bfs": {"scale": 7},
    }
    kw = dict(aggressor=aggressor, fabric="dv", workload_params=small)
    _assert_same(monkeypatch, lambda: interference_point(victim=victim, **kw))

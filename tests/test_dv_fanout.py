"""Differential oracle: one posted fan-out vs a transmit per group.

:meth:`repro.dv.flow.FlowNetwork.post` prices a fan-out in one
vectorised pass and sends it fire and forget; ``send_batch`` and
``exchange_words`` end in it.
:class:`tests.reference_engines.PerGroupFlowNetwork` and
:class:`tests.reference_engines.ReferenceDataVortexAPI` are the layer as
first written: one scalar ``transmit`` per destination group.

Both run the same programs.  Each run records, in global order, every
delivery, every FIFO push, every counter reaching zero and every
waiter's resume, along with the results and the flow statistics.  The
records must be equal bit for bit: the heap may shrink, the simulation
may not move.  The raw-network programs post fan-outs from several
processes among scalar transfers, some of which are waited on.
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
from repro.dv.flow import FlowNetwork
from repro.dv.vic import VIC, FifoPush, MemWrite
from repro.faults.plan import FaultPlan
from repro.kernels.bfs import run_bfs
from repro.kernels.gups import run_gups
from repro.kernels.spmv import run_spmv
from repro.sim.engine import Engine
from repro.sim.process import Process
from repro.tenancy.experiments import interference_point
from tests.reference_engines import PerGroupFlowNetwork, ReferenceDataVortexAPI
from tests.test_mpi_requests import _digest


def _stats(net):
    s = net.stats
    wait_in = float(s.total_injection_wait_s).hex()
    wait_out = float(s.total_ejection_wait_s).hex()
    return (s.packets_sent, s.transfers, wait_in, wait_out)


# ------------------------------------------------ raw-network programs ---


def _drive(net_cls, seed, n_ports=6, n_rounds=60, n_procs=3):
    """Random fan-outs and transfers from several processes; returns
    the record of everything that happened, in order."""
    engine = Engine()
    net = net_cls(engine, DVConfig(), n_ports)
    hop = net.config.hop_time_s
    rng = random.Random(seed)
    log = []

    def note(*entry):
        log.append((engine.now,) + entry)

    def receiver(port):
        def rx(src, eff, n):
            token = None if eff is None else int(eff.values[0])
            note("rx", port, int(src), int(n), token)

        return rx

    for p in range(n_ports):
        net.attach(p, receiver(p))

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
                    note("resume", name)
                continue
            m = rng.randrange(1, min(n_ports, 4) + 1)
            dests = rng.sample(range(n_ports), m)
            counts = [rng.randrange(1, 3) for _ in range(m)]
            payloads = [
                FifoPush(np.full(c, next(tokens), np.uint64)) for c in counts
            ]
            net.post(src, dests, counts, payloads)
            note("post", name)

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


def test_fanout_value_and_empty_batch():
    """Each group's payload reaches its own destination and nothing
    comes back to the sender; an empty fan-out queues nothing."""
    engine = Engine()
    net = FlowNetwork(engine, DVConfig(), 4)
    got = []
    for p in range(4):
        net.attach(p, lambda src, pl, n, p=p: got.append((src, p, pl, n)))
    assert net.post(0, [1, 2, 3], [2, 1, 1], ["a", "b", "c"]) is None
    net.post(0, [], [], [])
    engine.run()
    assert got == [(0, 1, "a", 2), (0, 2, "b", 1), (0, 3, "c", 1)]
    assert (net.stats.transfers, net.stats.packets_sent) == (3, 4)


# --------------------------------------------------- kernels and apps ---


def _record(monkeypatch, reference, run, remap=None):
    """Run ``run()`` on one fan-out layer; return its record.

    ``remap(vic_id, effect, addrs)``, if given, returns the addresses a
    delivered ``MemWrite`` is recorded under (to compare runs through a
    documented DV-memory layout move)."""
    log = []
    nets = []
    names = {}
    if reference:
        monkeypatch.setattr(cluster, "FlowNetwork", PerGroupFlowNetwork)
        monkeypatch.setattr(cluster, "DataVortexAPI", ReferenceDataVortexAPI)

    def ident(obj):
        # holds obj, so no later object can take over its id
        return names.setdefault(id(obj), (len(names), obj))[0]

    real_init = flow.FlowNetwork.__init__

    def init(net, *args, **kwargs):
        real_init(net, *args, **kwargs)
        nets.append(net)

    real_rx = VIC._on_delivery

    def words(v, dtype):
        if v is None:
            return None
        return _digest(np.atleast_1d(np.asarray(v, dtype)))

    def rx(vic, src, effect, n):
        if type(effect) is MemWrite:
            # a range write records as its address array, so both forms
            # of one write compare equal
            addrs, values = effect.expanded()
            if remap is not None:
                addrs = remap(vic.vic_id, effect, addrs)
            addrs, values = _digest(addrs), _digest(values)
        else:
            addrs = None
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
    """The posting layer and the oracle leave identical records."""
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

"""Differential oracle: held FIFO deliveries vs one heap entry each.

:meth:`repro.dv.flow.FlowNetwork.post_fifo` lets the destination
:class:`~repro.dv.fifo.SurpriseFIFO` hold a delivery and land it when
the FIFO is next observed.  Two oracles give every delivery its own
heap entry: :class:`tests.reference_engines.EagerFifoFlowNetwork` posts
through ``post`` with ``FifoPush`` payloads, and
:class:`tests.reference_engines.ReferenceFlowNetwork` through one
scalar ``transmit`` per group.

The same random programs run on each.  A run records every FIFO
observation with its time, every waiter's resume (``fifo_wait`` with
and without timeouts), each VIC's received packets and FIFO totals, the
flow statistics as ``float.hex`` and the final ``engine.now``.  The
records must be equal: the heap may shrink, the simulation may not
move.  The programs post, send real FIFO and timing-only transfers,
observe from processes and from zero-delay callbacks, wait, stop at
``run(until=)`` (also exactly at a held key), leave deliveries
unobserved, fill small FIFOs to overflow in strict and drop mode, run
under a fault plan and with obs on.  GUPS, alone and as a co-tenant,
must leave the same results, statistics and metrics.
"""

import random

import numpy as np
import pytest

from repro import faults, obs
from repro.core import cluster
from repro.core.cluster import ClusterSpec
from repro.dv.api import DataVortexAPI
from repro.dv.config import DVConfig
from repro.dv.fifo import FifoOverflow, SurpriseFIFO
from repro.dv.flow import FlowNetwork
from repro.dv.vic import VIC, FifoPush
from repro.faults.plan import FaultPlan
from repro.kernels.gups import run_gups
from repro.sim.engine import Engine
from repro.tenancy.experiments import interference_point
from tests.reference_engines import EagerFifoFlowNetwork, ReferenceFlowNetwork
from tests.test_mpi_requests import _digest

#: the keys name the oracles in test ids by the call each one lands a
#: FIFO delivery with: ``post`` of ``FifoPush`` groups, or ``transmit``
ORACLES = {
    "post": EagerFifoFlowNetwork,
    "transmit": ReferenceFlowNetwork,
}

#: what a program observes on a FIFO (and its VIC)
LOOKS = ("poll", "len", "total", "rx", "pop", "drain", "sources", "dropped")


def _stats(net):
    s = net.stats
    wait_in = float(s.total_injection_wait_s).hex()
    wait_out = float(s.total_ejection_wait_s).hex()
    return (s.packets_sent, s.transfers, wait_in, wait_out)


def _look(vic, what, n):
    fifo = vic.fifo
    if what == "poll":
        return fifo.poll()
    if what == "len":
        return len(fifo)
    if what == "total":
        return fifo.total_pushed
    if what == "rx":
        return vic.packets_received
    if what == "pop":
        return fifo.pop(n).tolist()
    if what == "drain":
        return fifo.pop().tolist()
    if what == "sources":
        return [(s, w.tolist()) for s, w in fifo.pop_with_sources()]
    return fifo.dropped


def _drive(
    net_cls,
    seed,
    *,
    n_ports=5,
    n_rounds=40,
    n_procs=3,
    capacity=None,
    strict=True,
    observe=True,
    stops=(),
):
    """Random posts, transfers, observations and waits from several
    processes; returns the record of everything observed, in order.
    Without ``observe`` nothing looks at a FIFO until the run ends."""
    mem = 1 << 12
    if capacity is None:
        cfg = DVConfig(dv_memory_bytes=mem)
    else:
        cfg = DVConfig(
            dv_memory_bytes=mem, fifo_capacity=capacity, host_fifo_words=0
        )
    engine = Engine()
    net = net_cls(engine, cfg, n_ports)
    vics = [VIC(engine, cfg, p, net) for p in range(n_ports)]
    for vic in vics:
        vic.fifo.strict = strict
    apis = [DataVortexAPI(engine, cfg, vic, net) for vic in vics]
    hop = net.config.hop_time_s
    rng = random.Random(seed)
    log = []

    def note(*entry):
        log.append((float(engine.now).hex(),) + entry)

    def look(name, port, what, n):
        note("look", name, port, what, _look(vics[port], what, n))

    def waiter(name, port, timeout):
        ok = yield from apis[port].fifo_wait(timeout)
        note("wake", name, port, ok)

    def prog(pid):
        tokens = iter(range(pid * 100_000, (pid + 1) * 100_000))

        def words(n):
            return np.array([next(tokens) for _ in range(n)], np.uint64)

        for i in range(n_rounds):
            yield engine.timeout(rng.randrange(0, 4) * hop)
            name = f"p{pid}.{i}"
            src = rng.randrange(n_ports)
            dest = rng.randrange(n_ports)
            act = rng.random()
            if not observe and act >= 0.45:
                act = 0.5  # a timing-only transfer instead
            if act < 0.35:
                m = rng.randrange(1, n_ports + 1)
                dests = rng.sample(range(n_ports), m)
                counts = [rng.randrange(1, 4) for _ in range(m)]
                rate = rng.choice([None, 0.5 / hop])
                net.post_fifo(
                    src, dests, counts, [words(c) for c in counts], rate
                )
            elif act < 0.45:
                ev = net.transmit(src, dest, 2, payload=FifoPush(words(2)))
                if rng.random() < 0.5:
                    yield ev
                    note("sent", name)
            elif act < 0.6:
                net.transmit(src, dest, rng.randrange(1, 4))
            elif act < 0.75:
                look(name, dest, rng.choice(LOOKS), rng.randrange(1, 6))
            elif act < 0.85:
                # from a callback, at a later entry of the same instant
                # or a few hops on
                delay = rng.randrange(0, 3) * hop
                what = rng.choice(LOOKS)
                engine.call_in(delay, look, name, dest, what, 2)
            else:
                timeout = rng.choice([None, rng.randrange(1, 12) * hop])
                engine.process(waiter(name, dest, timeout))
        # a last post everywhere, landing after everything else
        ports = list(range(n_ports))
        net.post_fifo(pid, ports, [1] * n_ports, [words(1) for _ in ports])

    for pid in range(n_procs):
        engine.process(prog(pid), name=f"p{pid}")
    try:
        for until in stops:
            engine.run(until=until)
            for port in range(n_ports):
                look("stop", port, "total", 0)
                look("stop", port, "rx", 0)
        engine.run()
    except FifoOverflow as exc:
        note("overflow", str(exc))
    end = [
        (vic.packets_received, vic.fifo.total_pushed, vic.fifo.dropped)
        for vic in vics
    ]
    return log, end, _stats(net), float(engine.now).hex()


class _Spy:
    """Counts what the FIFOs do with held deliveries."""

    def __init__(self, monkeypatch):
        self.holds = []
        self.arms = 0
        real_hold = SurpriseFIFO.hold
        real_arm = SurpriseFIFO._arm

        def hold(fifo, t, seq, src, words):
            held = real_hold(fifo, t, seq, src, words)
            if held:
                self.holds.append(t)
            return held

        def arm(fifo):
            fifo.settle()
            self.arms += len(fifo._held)
            real_arm(fifo)

        monkeypatch.setattr(SurpriseFIFO, "hold", hold)
        monkeypatch.setattr(SurpriseFIFO, "_arm", arm)


def _assert_same(monkeypatch, oracle, plan=None, **kw):
    """The holding network and ``oracle`` leave identical records (each
    run under its own session of ``plan``); returns the spy over the
    holding run."""
    with faults.session(plan):
        ref = _drive(ORACLES[oracle], **kw)
    spy = _Spy(monkeypatch)
    with faults.session(plan):
        new = _drive(FlowNetwork, **kw)
    monkeypatch.undo()
    assert new[1:] == ref[1:]
    assert len(new[0]) == len(ref[0])
    for i, (a, b) in enumerate(zip(new[0], ref[0])):
        assert a == b, f"record {i} differs"
    return spy


SEEDS = range(6)


@pytest.mark.parametrize("oracle", sorted(ORACLES))
@pytest.mark.parametrize("seed", SEEDS)
def test_random_programs_match_oracle(monkeypatch, seed, oracle):
    spy = _assert_same(monkeypatch, oracle, seed=seed)
    assert spy.holds


def test_programs_hold_and_arm(monkeypatch):
    """The seeds above hold deliveries, settle them and put some back
    on the heap (for waiters and at the stop)."""
    holds = arms = 0
    for seed in SEEDS:
        spy = _Spy(monkeypatch)
        _drive(FlowNetwork, seed)
        monkeypatch.undo()
        holds += len(spy.holds)
        arms += spy.arms
    assert holds > arms > 0


@pytest.mark.parametrize("oracle", sorted(ORACLES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_run_until_stops_at_held_keys(monkeypatch, seed, oracle):
    """``run(until=)`` stopping exactly at a held delivery's time, and
    between keys, lands what an entry per delivery would have."""
    spy = _Spy(monkeypatch)
    _drive(FlowNetwork, seed)
    monkeypatch.undo()
    keys = sorted(set(spy.holds))
    assert len(keys) > 3
    third = len(keys) // 3
    between = keys[len(keys) // 2] * 1.001
    stops = sorted([keys[third], between, keys[2 * third]])
    spy = _assert_same(monkeypatch, oracle, seed=seed, stops=stops)
    assert set(stops) & set(spy.holds)


@pytest.mark.parametrize("oracle", sorted(ORACLES))
@pytest.mark.parametrize("seed", [0, 3])
def test_unobserved_deliveries_land_before_the_run_ends(
    monkeypatch, seed, oracle
):
    spy = _assert_same(monkeypatch, oracle, seed=seed, observe=False)
    assert spy.holds and spy.arms


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("capacity", [4, 12, 40])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_near_capacity_fifos(monkeypatch, seed, capacity, strict):
    """A delivery that might not fit is an entry of its own, so
    overflow and drops happen where they did."""
    _assert_same(
        monkeypatch,
        "post",
        seed=seed,
        capacity=capacity,
        strict=strict,
    )


def test_near_capacity_programs_overflow_and_drop():
    """The grid above overflows (strict) and drops (drop mode)."""
    last = [_drive(FlowNetwork, s, capacity=4)[0][-1][1] for s in range(4)]
    assert "overflow" in last
    drops = 0
    for s in range(4):
        end = _drive(FlowNetwork, s, capacity=4, strict=False)[1]
        drops += sum(dropped for _, _, dropped in end)
    assert drops > 0


@pytest.mark.parametrize(
    "plan",
    [
        FaultPlan(seed=11, drop_prob=0.2),
        FaultPlan(seed=5, corrupt_prob=0.1),
        FaultPlan(seed=3, node_outages=((1, 0.0, 2e-7),)),
    ],
)
@pytest.mark.parametrize("oracle", sorted(ORACLES))
def test_fault_plans_hold_nothing(monkeypatch, plan, oracle):
    spy = _assert_same(monkeypatch, oracle, plan, seed=4)
    assert not spy.holds


def _metrics(reg):
    """The DV layers' series from a registry snapshot."""
    snap = reg.snapshot()
    return {
        kind: sorted(
            (m["name"], sorted(m["labels"].items()), repr(m))
            for m in series
            if m["name"].startswith(("dv.", "kernels.", "tenant."))
        )
        for kind, series in snap.items()
    }


@pytest.mark.parametrize("seed", [1, 5])
def test_obs_on_matches_oracle(seed):
    """Against both oracles: a batch observes its injection waits in
    one ``observe_many``, which sums them in element order, so its
    histogram total equals that of per-transfer ``observe`` calls bit
    for bit."""
    with obs.session() as new_reg:
        new = _drive(FlowNetwork, seed)
    for oracle in ORACLES.values():
        with obs.session() as reg:
            ref = _drive(oracle, seed)
        assert new == ref
        assert _metrics(new_reg) == _metrics(reg)
    assert _metrics(reg)["counters"]


# --------------------------------------------------- kernels and apps ---


def _kernel(monkeypatch, oracle, run):
    """Run ``run()`` on one network; returns its results, statistics,
    per-VIC packets, final clock and (with obs on) metrics."""
    if oracle is not None:
        monkeypatch.setattr(cluster, "FlowNetwork", ORACLES[oracle])
    nets, vics, engines = [], [], []
    real_net_init = FlowNetwork.__init__
    real_vic_init = VIC.__init__

    def net_init(net, engine, *args, **kwargs):
        real_net_init(net, engine, *args, **kwargs)
        nets.append(net)
        engines.append(engine)

    def vic_init(vic, *args, **kwargs):
        real_vic_init(vic, *args, **kwargs)
        vics.append(vic)

    monkeypatch.setattr(FlowNetwork, "__init__", net_init)
    monkeypatch.setattr(VIC, "__init__", vic_init)
    out = run()
    monkeypatch.undo()
    assert nets
    return (
        _digest(out),
        [_stats(net) for net in nets],
        [vic.packets_received for vic in vics],
        [vic.fifo.total_pushed for vic in vics],
        [float(engine.now).hex() for engine in engines],
    )


def _gups(n):
    spec = ClusterSpec(n_nodes=n, seed=3)
    return lambda: run_gups(
        spec, "dv", table_words=256, n_updates=512, window=128, validate=True
    )


@pytest.mark.parametrize("oracle", sorted(ORACLES))
@pytest.mark.parametrize("n", [2, 8])
def test_gups_matches_oracle(monkeypatch, n, oracle):
    ref = _kernel(monkeypatch, oracle, _gups(n))
    assert _kernel(monkeypatch, None, _gups(n)) == ref


def test_gups_obs_on_matches_oracle(monkeypatch):
    with obs.session() as reg:
        ref = _kernel(monkeypatch, "post", _gups(8))
    with obs.session() as new_reg:
        new = _kernel(monkeypatch, None, _gups(8))
    assert new == ref
    assert _metrics(new_reg) == _metrics(reg)


def test_gups_unaggregated_matches_oracle(monkeypatch):
    spec = ClusterSpec(n_nodes=4, seed=9)

    def run():
        return run_gups(
            spec, "dv", table_words=256, n_updates=256, aggregate=False
        )

    ref = _kernel(monkeypatch, "post", run)
    assert _kernel(monkeypatch, None, run) == ref


def test_gups_cotenant_matches_oracle(monkeypatch):
    """Tenant network views translate ``post_fifo`` ranks too."""
    small = {
        "gups": {"table_words": 256, "n_updates": 256},
        "bfs": {"scale": 7},
    }

    def run():
        return interference_point(
            victim="gups",
            aggressor="bfs",
            fabric="dv",
            workload_params=small,
        )

    with obs.session() as reg:
        ref = _kernel(monkeypatch, "post", run)
    with obs.session() as new_reg:
        new = _kernel(monkeypatch, None, run)
    assert new == ref
    assert _metrics(new_reg) == _metrics(reg)

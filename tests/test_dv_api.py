"""Integration tests for the Data Vortex API, VIC, PCIe and barriers."""

import gc
import weakref

import numpy as np
import pytest

import repro.dv.api as dv_api
from repro.dv import (DVConfig, DataVortexAPI, FastBarrier, FlowNetwork,
                      HardwareBarrier, VIC)
from repro.dv.vic import MemWrite
from repro.sim import Engine


class MiniCluster:
    """Hand-built DV-only cluster for API-level tests."""

    def __init__(self, n, config=None):
        self.engine = Engine()
        self.config = config or DVConfig()
        self.net = FlowNetwork(self.engine, self.config, n)
        self.vics = [VIC(self.engine, self.config, i, self.net)
                     for i in range(n)]
        self.apis = [DataVortexAPI(self.engine, self.config, v, self.net)
                     for v in self.vics]
        hw = HardwareBarrier(self.engine, self.config, self.vics, self.net)
        fast = FastBarrier(self.engine, self.config, self.vics, self.net)
        for a in self.apis:
            a.hw_barrier = hw
            a.fast_barrier_impl = fast

    def run(self, *programs):
        procs = [self.engine.process(p) for p in programs]
        self.engine.run()
        for p in procs:
            if not p.triggered:
                raise AssertionError("deadlock in MiniCluster.run")
            if not p.ok:
                raise p.value
        return [p.value for p in procs]


# ------------------------------------------------------------ send paths ---

def test_send_words_lands_in_dest_memory():
    mc = MiniCluster(2)

    def sender(api):
        ev = yield from api.send_words(1, [10, 11, 12],
                                       [100, 200, 300])
        yield ev

    mc.run(sender(mc.apis[0]))
    assert mc.vics[1].memory.read_range(10, 3).tolist() == [100, 200, 300]


def test_send_words_decrements_counter():
    mc = MiniCluster(2)
    mc.vics[1].counters.set(5, 3)

    def sender(api):
        ev = yield from api.send_words(1, np.arange(3), np.arange(3),
                                       counter=5)
        yield ev

    mc.run(sender(mc.apis[0]))
    assert mc.vics[1].counters.value(5) == 0


def test_send_to_self_allowed():
    """The API allows 'sending packets ... to any individual VIC,
    including your own' (SS III)."""
    mc = MiniCluster(2)

    def prog(api):
        ev = yield from api.send_words(0, [7], [99])
        yield ev

    mc.run(prog(mc.apis[0]))
    assert mc.vics[0].memory.read_word(7) == 99


def test_send_empty_rejected():
    mc = MiniCluster(2)

    def prog(api):
        yield from api.send_words(1, [], [])

    with pytest.raises(ValueError):
        mc.run(prog(mc.apis[0]))


def test_send_batch_scatter_many_destinations():
    """``send_batch`` returns nothing: each destination learns from its
    preset group counter that its words have landed."""
    mc = MiniCluster(4)
    dests = np.array([1, 2, 3, 1, 2, 3])
    addrs = np.array([0, 0, 0, 1, 1, 1])
    vals = np.array([10, 20, 30, 11, 21, 31], np.uint64)
    for d in (1, 2, 3):
        mc.vics[d].counters.set(5, 2)

    def sender(api):
        return (yield from api.send_batch(dests, addrs, vals, counter=5))

    def receiver(api):
        yield from api.wait_counter_zero(5)
        return api.vic.memory.read_range(0, 2).tolist()

    got = mc.run(sender(mc.apis[0]), *map(receiver, mc.apis[1:]))
    assert got == [None, [10, 11], [20, 21], [30, 31]]


@pytest.mark.parametrize("call", ["send_batch", "exchange_words"])
def test_group_payload_is_freed_at_its_own_delivery(monkeypatch, call):
    """A multi-destination send is fire and forget: each group's values
    view is freed when that group lands, while the sender's later
    groups are still in flight."""
    mc = MiniCluster(4)
    base, k, ctr = 64, 2, 9
    refs = {0: [], 1: [], 2: [], 3: []}  # sender -> its groups' values

    def recording(addrs, values, counter=None):
        src = 0 if call == "send_batch" else (addrs - base) // k
        refs[src].append(weakref.ref(values))
        return MemWrite(addrs, values, counter)

    monkeypatch.setattr(dv_api, "MemWrite", recording)
    alive = {0: [], 1: [], 2: [], 3: []}  # sender -> live views per landing
    for p, apply in enumerate(mc.net._receivers):

        def rx(src, eff, n, apply=apply):
            if isinstance(eff, MemWrite):
                alive[src].append(sum(r() is not None for r in refs[src]))
            apply(src, eff, n)

        mc.net._receivers[p] = rx

    def prog(api):
        # an exchange lands k words from each of 3 peers, a batch k
        yield from api.set_counter(ctr, k * 3 if call == "exchange_words"
                                   else k)
        yield from api.barrier()
        if call == "exchange_words":
            words = np.arange(4 * k, dtype=np.uint64).reshape(4, k)
            yield from api.exchange_words(words, base=base, counter=ctr)
        elif api.rank == 0:
            dests = np.repeat(np.arange(1, 4), k)
            yield from api.send_batch(dests, np.tile(np.arange(k), 3),
                                      np.arange(3 * k, dtype=np.uint64),
                                      counter=ctr)
        else:
            yield from api.wait_counter_zero(ctr)

    enabled = gc.isenabled()
    gc.disable()
    try:
        mc.run(*map(prog, mc.apis))
    finally:
        if enabled:
            gc.enable()
    senders = range(4) if call == "exchange_words" else [0]
    assert {s: alive[s] for s in senders} == dict.fromkeys(senders,
                                                           [3, 2, 1])


@pytest.mark.parametrize("n", [1, 3])
def test_exchange_words_gathers_rank_major_table(n):
    """Peer ``s``'s row for ``d`` lands at ``base + k*s`` in ``d``'s DV
    memory; every rank gets the whole table back, its own row filled
    in from its own words."""
    mc = MiniCluster(n)
    base, k, ctr = 100, 2, 7
    sent = [np.arange(n * k, dtype=np.uint64).reshape(n, k) + 10 * r
            for r in range(n)]

    def prog(api):
        yield from api.set_counter(ctr, k * (n - 1))
        yield from api.barrier()
        table = yield from api.exchange_words(sent[api.rank], base=base,
                                              counter=ctr)
        return table.tolist()

    tables = mc.run(*(prog(api) for api in mc.apis))
    for d in range(n):
        assert tables[d] == [sent[s][d].tolist() for s in range(n)]
        if n > 1:
            # nobody writes this rank's own row
            assert mc.vics[d].memory.read_range(base + k * d, k).tolist() \
                == [0] * k
    assert [v.counters.value(ctr) for v in mc.vics] == [0] * n


def test_exchange_words_broadcasts_a_scalar():
    mc = MiniCluster(4)

    def prog(api):
        yield from api.set_counter(3, 3)
        yield from api.barrier()
        table = yield from api.exchange_words(5 + api.rank, base=0,
                                              counter=3)
        return table.ravel().tolist()

    assert mc.run(*(prog(api) for api in mc.apis)) == [[5, 6, 7, 8]] * 4


def test_fifo_send_and_receive():
    mc = MiniCluster(2)

    def sender(api):
        ev = yield from api.send_fifo(1, np.array([5, 6, 7], np.uint64))
        yield ev

    def receiver(api):
        ok = yield from api.fifo_wait()
        assert ok
        return api.fifo_take().tolist()

    vals = mc.run(sender(mc.apis[0]), receiver(mc.apis[1]))
    assert vals[1] == [5, 6, 7]


def test_fifo_wait_timeout():
    mc = MiniCluster(2)

    def receiver(api):
        ok = yield from api.fifo_wait(timeout=1e-3)
        return ok

    assert mc.run(receiver(mc.apis[1]))[0] is False


# ------------------------------------------------------------- counters ---

def test_wait_counter_zero_with_timeout_false():
    mc = MiniCluster(2)

    def prog(api):
        yield from api.set_counter(9, 5)
        ok = yield from api.wait_counter_zero(9, timeout=1e-3)
        return ok

    assert mc.run(prog(mc.apis[0]))[0] is False


def test_set_remote_counter():
    mc = MiniCluster(2)

    def prog(api):
        ev = yield from api.set_remote_counter(1, 8, 42)
        yield ev

    mc.run(prog(mc.apis[0]))
    assert mc.vics[1].counters.value(8) == 42


# --------------------------------------------------------------- queries ---

def test_read_remote_word():
    mc = MiniCluster(3)
    mc.vics[2].memory.write_word(1000, 777)

    def prog(api):
        val = yield from api.read_remote_word(2, 1000, reply_addr=50)
        return val

    assert mc.run(prog(mc.apis[0]))[0] == 777
    assert mc.vics[2].queries_served == 1


def test_query_reply_no_host_time_at_target():
    """The queried VIC's PCIe must stay untouched (hardware reply)."""
    mc = MiniCluster(2)
    mc.vics[1].memory.write_word(0, 5)

    def prog(api):
        return (yield from api.read_remote_word(1, 0, reply_addr=10))

    mc.run(prog(mc.apis[0]))
    pcie = mc.vics[1].pcie
    assert pcie.bytes_pio_written == 0 and pcie.bytes_dma_written == 0


# -------------------------------------------------------------- DV memory ---

def test_dv_write_and_read_local():
    mc = MiniCluster(1)

    def prog(api):
        yield from api.dv_write(100, np.arange(16, dtype=np.uint64))
        data = yield from api.dv_read(100, 16)
        return data.tolist()

    assert mc.run(prog(mc.apis[0]))[0] == list(range(16))


def test_dma_faster_than_pio_for_bulk():
    cfg = DVConfig()
    n_words = 1 << 15

    def one(via):
        mc = MiniCluster(1, cfg)

        def prog(api):
            yield from api.dv_write(0, np.zeros(n_words, np.uint64),
                                    via=via)

        mc.run(prog(mc.apis[0]))
        return mc.engine.now

    assert one("dma") < one("pio")


# -------------------------------------------------------------- barriers ---

@pytest.mark.parametrize("n", [1, 2, 3, 8, 32])
def test_hardware_barrier_all_sizes(n):
    mc = MiniCluster(n)

    def prog(api, delay):
        yield api.engine.timeout(delay)
        yield from api.barrier()
        return api.engine.now

    vals = mc.run(*(prog(mc.apis[r], 1e-6 * r) for r in range(n)))
    slowest_entry = 1e-6 * (n - 1)
    assert all(v >= slowest_entry for v in vals)


def test_hardware_barrier_reusable_many_times():
    mc = MiniCluster(4)
    rounds = 10

    def prog(api):
        for _ in range(rounds):
            yield from api.barrier()
        return api.engine.now

    vals = mc.run(*(prog(a) for a in mc.apis))
    assert max(vals) < 1e-3  # microseconds each, not hanging


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_fast_barrier_all_sizes(n):
    mc = MiniCluster(n)

    def prog(api, delay):
        yield api.engine.timeout(delay)
        yield from api.fast_barrier()
        yield from api.fast_barrier()
        return api.engine.now

    vals = mc.run(*(prog(mc.apis[r], 1e-7 * r) for r in range(n)))
    assert all(v >= 1e-7 * (n - 1) for v in vals)


def test_dv_barrier_nearly_flat_in_node_count():
    """Fig. 4's DV lines: latency roughly constant 2 -> 32 nodes."""
    def one(n):
        mc = MiniCluster(n)

        def prog(api):
            yield from api.barrier()   # warm
            t0 = api.engine.now
            yield from api.barrier()
            return api.engine.now - t0

        return max(mc.run(*(prog(a) for a in mc.apis)))

    t2, t32 = one(2), one(32)
    assert t32 < 2.5 * t2  # flat-ish, unlike MPI's 4-6x growth


def test_barrier_unwired_raises():
    eng = Engine()
    cfg = DVConfig()
    net = FlowNetwork(eng, cfg, 1)
    api = DataVortexAPI(eng, cfg, VIC(eng, cfg, 0, net), net)

    def prog():
        yield from api.barrier()

    p = eng.process(prog())
    eng.run()
    assert not p.ok and isinstance(p.value, RuntimeError)

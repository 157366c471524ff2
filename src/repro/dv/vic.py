"""The Vortex Interface Controller (VIC).

One VIC per cluster node (paper Fig. 2): it owns the DV memory, the group
counters, the surprise FIFO, the DMA engines / PCIe link, and the port
into the Data Vortex switch.  Incoming packets are dispatched by the
address space encoded in their headers; "query" packets trigger
hardware-generated replies with no host involvement (§III).

Network transfers carry *effects* — compact, vectorised descriptions of
what a batch of packets does at the destination — rather than one Python
object per packet, so a million-packet transfer costs O(1) simulation
events.
"""

from __future__ import annotations

from typing import Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.dv.config import DVConfig
from repro.dv.counters import GroupCounters
from repro.dv.dvmemory import DVMemory
from repro.dv.fifo import SurpriseFIFO
from repro.dv.pcie import PCIeBus
from repro.faults import injector as fltreg
from repro.obs import registry as obsreg
from repro.sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.dv.flow import FlowNetwork


# --------------------------------------------------------------- effects ---
#
# Effects are built once per transfer (tens of thousands per GUPS run),
# so they are plain slotted classes: a frozen dataclass pays an
# ``object.__setattr__`` per field on every construction.  Treat them as
# immutable all the same.

class _Effect:
    __slots__ = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}"
                           for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


class MemWrite(_Effect):
    """Write ``values[i]`` to DV memory ``addrs[i]``; optionally decrement
    a group counter by the number of words delivered.

    ``addrs`` is either an address array, one entry per value, or a
    Python ``int``: the start of a contiguous range that ``values``
    fills word by word (a *range write*, as
    :meth:`DataVortexAPI.exchange_words
    <repro.dv.api.DataVortexAPI.exchange_words>` sends).  A range
    write's ``values`` is a ``uint64`` array, or a Python ``int`` for
    one word, which costs a quarter of a one-element array view
    (exchanges send P(P-1) of them).  Past the VIC's delivery,
    consumers see one form through :meth:`span` and :meth:`expanded`."""

    __slots__ = ("addrs", "values", "counter")

    def __init__(self, addrs, values,
                 counter: Optional[int] = None) -> None:
        self.addrs = addrs
        self.values = values
        self.counter = counter

    @property
    def n_packets(self) -> int:
        if self.addrs.__class__ is not int:
            return int(np.asarray(self.addrs).size)
        return 1 if self.values.__class__ is int else self.values.size

    def span(self) -> Tuple[int, int]:
        """The lowest address written and one past the highest (the
        write must carry at least one word)."""
        a = self.addrs
        if a.__class__ is int:
            return a, a + self.n_packets
        a = np.asarray(a)
        return int(a.min()), int(a.max()) + 1

    def expanded(self) -> Tuple[np.ndarray, np.ndarray]:
        """The write as flat ``int64`` addresses and ``uint64`` values,
        one entry per word."""
        values = np.atleast_1d(np.asarray(self.values, np.uint64))
        a = self.addrs
        if a.__class__ is int:
            return np.arange(a, a + values.size, dtype=np.int64), values
        return np.atleast_1d(np.asarray(a, np.int64)), values


class FifoPush(_Effect):
    """Append payload words to the surprise FIFO."""

    __slots__ = ("values", "counter")

    def __init__(self, values: np.ndarray,
                 counter: Optional[int] = None) -> None:
        self.values = values
        self.counter = counter

    @property
    def n_packets(self) -> int:
        return int(np.asarray(self.values).size)


class CounterSet(_Effect):
    """Remote set of a group counter (group counters are globally
    accessible, §III)."""

    __slots__ = ("index", "value", "n_packets")

    def __init__(self, index: int, value: int, n_packets: int = 1) -> None:
        self.index = index
        self.value = value
        self.n_packets = n_packets


class CounterDec(_Effect):
    """Bare counter-decrement packets (barrier building block)."""

    __slots__ = ("index", "count")

    def __init__(self, index: int, count: int = 1) -> None:
        self.index = index
        self.count = count

    @property
    def n_packets(self) -> int:
        return self.count


class Query(_Effect):
    """Read ``addr`` at the destination VIC and send the value to
    ``reply_vic``/``reply_addr`` (which need not be the querying VIC)."""

    __slots__ = ("addr", "reply_vic", "reply_addr", "reply_counter",
                 "n_packets")

    def __init__(self, addr: int, reply_vic: int, reply_addr: int,
                 reply_counter: Optional[int] = None,
                 n_packets: int = 1) -> None:
        self.addr = addr
        self.reply_vic = reply_vic
        self.reply_addr = reply_addr
        self.reply_counter = reply_counter
        self.n_packets = n_packets


Effect = object  # union of the classes above; kept loose for speed


# ------------------------------------------------------------------- VIC ---

class VIC:
    """One Vortex Interface Controller attached to switch port ``vic_id``."""

    def __init__(self, engine: Engine, config: DVConfig, vic_id: int,
                 network: "FlowNetwork") -> None:
        self.engine = engine
        self.config = config
        self.vic_id = vic_id
        self.network = network
        self.memory = DVMemory(config.dv_memory_words)
        self.counters = GroupCounters(
            engine, config.group_counters,
            scratch=config.scratch_counter,
            barrier=config.barrier_counters)
        # effective surprise capacity = on-VIC queue + the host circular
        # buffer the background DMA process drains it into (SS III)
        self.fifo = SurpriseFIFO(
            engine, config.fifo_capacity + config.host_fifo_words)
        self.pcie = PCIeBus(engine, config, name=f"vic{vic_id}:pcie")
        self._packets_received = 0
        self.queries_served = 0
        # node-outage windows are enforced here, at the receiving VIC:
        # the whole controller goes dark for data during the window
        self._faults = fltreg.site("dv.vic")
        # shared (unlabelled) handles: all VICs aggregate into one series
        self._obs_on = obsreg.enabled()
        if self._obs_on:
            self._m_packets = obsreg.counter("dv.vic.packets_received")
            self._m_mem_words = obsreg.counter("dv.vic.memwrite_words")
            self._m_fifo_words = obsreg.counter("dv.vic.fifo_words")
            self._m_queries = obsreg.counter("dv.vic.queries_served")
        if self._faults is None:
            # a node outage must see each delivery at its own time
            self.fifo.enable_holding(self._land_held, self._deliver_held)
        network.attach(vic_id, self._on_delivery, self.fifo)

    @property
    def packets_received(self) -> int:
        """Packets delivered to this VIC, held FIFO deliveries settled."""
        self.fifo.settle()
        return self._packets_received

    # -- network receive path ---------------------------------------------
    def _land_held(self, n_packets: int) -> None:
        """Charge settled FIFO deliveries of ``n_packets`` words in all
        (see :meth:`SurpriseFIFO.hold <repro.dv.fifo.SurpriseFIFO.hold>`)
        as :meth:`_on_delivery` would have; the FIFO appends the words
        itself."""
        self._packets_received += n_packets
        if self._obs_on:
            self._m_packets.inc(n_packets)
            self._m_fifo_words.inc(n_packets)

    def _deliver_held(self, src: int, words: np.ndarray) -> None:
        """A held FIFO delivery put back on the heap."""
        self._on_delivery(src, FifoPush(words), words.size)

    def _on_delivery(self, src: int, effect: Effect, n_packets: int) -> None:
        """Dispatch an arriving batch (called by the flow network at the
        simulated time the last word of the batch is ejected)."""
        self._packets_received += n_packets
        if self._obs_on:
            self._m_packets.inc(n_packets)
        kind = type(effect)
        if (self._faults is not None
                and (kind is MemWrite or kind is FifoPush)
                and self._faults.node_down(self.vic_id, self.engine.now)):
            return  # VIC dark for data during a node-outage window
        if kind is FifoPush:
            self.fifo.push(effect.values, src=src)
            if self._obs_on:
                self._m_fifo_words.inc(effect.n_packets)
            if effect.counter is not None:
                self.counters.decrement(effect.counter, effect.n_packets)
        elif kind is MemWrite:
            addrs, values = effect.addrs, effect.values
            if addrs.__class__ is not int:
                self.memory.scatter(addrs, values)
            elif values.__class__ is int:
                self.memory.write_word(addrs, values)
            else:
                self.memory.write_range(addrs, values)
            if self._obs_on:
                self._m_mem_words.inc(effect.n_packets)
            if effect.counter is not None:
                self.counters.decrement(effect.counter, effect.n_packets)
        elif kind is CounterSet:
            self.counters.set(effect.index, effect.value)
        elif kind is CounterDec:
            self.counters.decrement(effect.index, effect.count)
        elif kind is Query:
            self._serve_query(effect)
        elif effect is None:
            pass  # timing-only packets (micro-benchmarks)
        else:
            raise TypeError(f"VIC {self.vic_id}: unknown effect {effect!r}")

    def _serve_query(self, q: Query) -> None:
        """Hardware query service: read the slot, emit the reply packet.

        Entirely VIC-side — no host time is charged, matching the paper's
        description of replies assembled "without any host intervention".
        """
        value = self.memory.read_word(q.addr)
        self.queries_served += 1
        if self._obs_on:
            self._m_queries.inc()
        self.network.transmit(
            self.vic_id, q.reply_vic, 1,
            payload=MemWrite(addrs=np.array([q.reply_addr]),
                             values=np.array([value], np.uint64),
                             counter=q.reply_counter))

    # -- convenience views ---------------------------------------------------
    def counter_value(self, idx: int) -> int:
        return self.counters.value(idx)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<VIC {self.vic_id}: {self.packets_received} pkts rx, "
                f"fifo={len(self.fifo)}>")

"""The ``dvapi``-style programming interface (paper §III).

One :class:`DataVortexAPI` instance per rank.  All methods that consume
simulated time are generators meant to be driven from a rank process::

    def program(ctx):
        api = ctx.dv
        yield from api.set_counter(5, 1024)
        yield from api.barrier()
        ev = yield from api.send_words(dest, addrs, values, counter=5,
                                       via="dma")
        ...

Three transmission paths mirror the paper's ping-pong variants:

* ``via="direct"`` — programmed-I/O writes of header+payload from host
  memory (``DWr/NoCached``), or payload only with ``cached_headers=True``
  (``DWr/Cached``);
* ``via="dma"`` — DMA from host memory with headers pre-cached in DV
  memory (``DMA/Cached``), overlapping PCIe and switch injection;
* ``via="dv_memory"`` — payload already resides in DV memory (used by the
  FFT/Vorticity transposes that "fold redistribution into
  communication"); no PCIe transfer at all.
"""

from __future__ import annotations

from typing import Generator, Optional, TYPE_CHECKING

import numpy as np

from repro.dv.config import DVConfig, PACKET_BYTES, WORD_BYTES
from repro.dv.vic import (CounterDec, CounterSet, FifoPush, MemWrite, Query,
                          VIC)
from repro.sim.engine import Engine
from repro.sim.events import CompletionEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.dv.barrier import FastBarrier, HardwareBarrier
    from repro.dv.flow import FlowNetwork

_VIAS = ("direct", "dma", "dv_memory")


class DataVortexAPI:
    """Per-rank handle to the Data Vortex network."""

    def __init__(self, engine: Engine, config: DVConfig, vic: VIC,
                 network: "FlowNetwork") -> None:
        self.engine = engine
        self.config = config
        self.vic = vic
        self.network = network
        self.rank = vic.vic_id
        self.hw_barrier: Optional["HardwareBarrier"] = None
        self.fast_barrier_impl: Optional["FastBarrier"] = None

    # ------------------------------------------------------------ helpers --
    def _overhead(self) -> Generator:
        """Fixed host-side cost of issuing one API call."""
        yield self.engine.timeout(self.config.api_call_overhead_s)

    def _wire_bytes(self, n: int, cached_headers: bool) -> int:
        return n * (WORD_BYTES if cached_headers else PACKET_BYTES)

    def _inject_rate(self, via: str, cached_headers: bool) -> Optional[float]:
        """Packets/s the PCIe side can feed the switch for this path."""
        per_pkt = WORD_BYTES if cached_headers else PACKET_BYTES
        if via == "direct":
            return self.config.pcie_direct_write_bw / per_pkt
        if via == "dma":
            return self.config.pcie_dma_write_bw / per_pkt
        return None  # dv_memory: switch line rate

    def _charge_tx(self, via: str, n: int, cached_headers: bool) -> Generator:
        """Block the caller for the host-side share of a send."""
        if via == "direct":
            yield from self.vic.pcie.direct_write(
                self._wire_bytes(n, cached_headers))
        elif via == "dma":
            yield from self.vic.pcie.dma_write(
                self._wire_bytes(n, cached_headers))
        elif via == "dv_memory":
            # one PIO doorbell starts the VIC-side transfer
            yield from self.vic.pcie.direct_write(PACKET_BYTES)
        else:
            raise ValueError(f"via must be one of {_VIAS}, got {via!r}")

    # ----------------------------------------------------------- sending --
    def send_words(self, dest: int, addrs, values, *,
                   counter: Optional[int] = None,
                   cached_headers: bool = False,
                   via: str = "direct") -> Generator:
        """Send one word per (addr, value) pair into ``dest``'s DV memory.

        Returns (as the generator's value) the *delivery* event, which
        fires when the last word is ejected at the destination — the
        sender itself only blocks for its local PCIe/injection share
        (sends are one-sided and fire-and-forget, like the hardware).
        """
        addrs = np.atleast_1d(np.asarray(addrs, dtype=np.int64))
        values = np.atleast_1d(np.asarray(values, dtype=np.uint64))
        if addrs.size != values.size:
            raise ValueError("addrs and values must have equal length")
        if addrs.size == 0:
            raise ValueError("empty send")
        yield from self._overhead()
        ev = self.network.transmit(
            self.rank, dest, addrs.size,
            payload=MemWrite(addrs=addrs, values=values, counter=counter),
            inject_rate=self._inject_rate(via, cached_headers))
        yield from self._charge_tx(via, addrs.size, cached_headers)
        return ev

    def send_batch(self, dests, addrs, values, *,
                   counter: Optional[int] = None,
                   cached_headers: bool = True,
                   via: str = "dma") -> Generator:
        """Scatter words to *many* destinations ("source aggregation").

        The whole batch crosses PCIe as one DMA and the VIC fans packets
        out to per-destination groups, in destination order (the
        paper's optimisation).

        Fire and forget: nothing is returned.  A receiver that must know
        when the words have landed presets ``counter`` and waits on it
        (:meth:`wait_counter_zero`), as on the hardware.
        """
        dests = np.atleast_1d(np.asarray(dests, dtype=np.int64))
        addrs = np.atleast_1d(np.asarray(addrs, dtype=np.int64))
        values = np.atleast_1d(np.asarray(values, dtype=np.uint64))
        if not (dests.size == addrs.size == values.size):
            raise ValueError("dests, addrs, values must align")
        if dests.size == 0:
            raise ValueError("empty batch")
        order = np.argsort(dests, kind="stable")
        dests_s, addrs_s, values_s = dests[order], addrs[order], values[order]
        uniq, starts = np.unique(dests_s, return_index=True)
        group_counts = np.diff(np.append(starts, dests_s.size))
        starts = starts.tolist()
        yield from self._send_groups(
            uniq, group_counts,
            [MemWrite(addrs=addrs_s[lo:hi], values=values_s[lo:hi],
                      counter=counter)
             for lo, hi in zip(starts, starts[1:] + [dests_s.size])],
            dests.size, via, cached_headers)

    def exchange_words(self, words, *, base: int,
                       counter: int) -> Generator:
        """All-gather ``k`` words per rank through DV memory (paper §III:
        peers write straight into your DV memory and a preset group
        counter says when they have all landed).

        ``words`` broadcasts to a P×k ``uint64`` table whose row ``d``
        goes to peer ``d``; a scalar or a length-P vector is one word
        per peer.  Peer ``s``'s row lands at ``base + k*s`` through
        ``base + k*s + k - 1`` as one range write, so the slot table is
        rank-major.  The caller presets (and recycles) ``counter`` to
        ``k * (P - 1)`` and places any barrier; this call sends one
        group to every peer (none at P = 1), waits on ``counter`` and
        reads the slot table back.

        Returns the P×k ``uint64`` table: row ``s`` is what peer ``s``
        sent, and this rank's own row is ``words[rank]``.
        """
        P, me = self.network.n_ports, self.rank
        # a private copy: the payloads hold views of its rows
        words = np.array(words, dtype=np.uint64)
        if words.ndim < 2:
            words = words.reshape(-1, 1)
        table = np.broadcast_to(words, (P, words.shape[1]))
        k = table.shape[1]
        if P > 1:
            peers = [d for d in range(P) if d != me]
            start = int(base) + k * me
            rows = table[:, 0].tolist() if k == 1 else table
            yield from self._send_groups(
                peers, [k] * (P - 1),
                [MemWrite(addrs=start, values=rows[d], counter=counter)
                 for d in peers],
                k * (P - 1), "dma", True)
        yield from self.wait_counter_zero(counter)
        slots = self.vic.memory.read_range(base, P * k).reshape(P, k)
        slots[me] = table[me]
        return slots

    def _send_groups(self, dests, counts, payloads, n_words: int,
                     via: str, cached_headers: bool) -> Generator:
        """The tail of every multi-destination send: the call overhead,
        the posted fan-out, then the PCIe share of all ``n_words``.

        Callers pass ``payloads`` as a temporary and this frame drops it
        once posted, so each group's payload lives until its own
        delivery, not until the sender's PCIe share is paid."""
        yield from self._overhead()
        self.network.post(self.rank, dests, counts, payloads,
                          inject_rate=self._inject_rate(via, cached_headers))
        del payloads
        yield from self._charge_tx(via, n_words, cached_headers)

    def send_fifo(self, dest: int, values, *,
                  counter: Optional[int] = None,
                  cached_headers: bool = False,
                  via: str = "direct") -> Generator:
        """Send "surprise" packets into ``dest``'s FIFO queue."""
        values = np.atleast_1d(np.asarray(values, dtype=np.uint64))
        if values.size == 0:
            raise ValueError("empty send")
        yield from self._overhead()
        ev = self.network.transmit(
            self.rank, dest, values.size,
            payload=FifoPush(values=values, counter=counter),
            inject_rate=self._inject_rate(via, cached_headers))
        yield from self._charge_tx(via, values.size, cached_headers)
        return ev

    def send_counter_dec(self, dest: int, idx: int,
                         count: int = 1) -> Generator:
        """Send bare decrement packets at ``dest``'s counter ``idx``."""
        yield from self._overhead()
        ev = self.network.transmit(self.rank, dest, count,
                                   payload=CounterDec(idx, count))
        yield from self._charge_tx("direct", count, False)
        return ev

    def set_remote_counter(self, dest: int, idx: int,
                           value: int) -> Generator:
        """Remotely set a group counter (racy by design, see §III)."""
        yield from self._overhead()
        ev = self.network.transmit(self.rank, dest, 1,
                                   payload=CounterSet(idx, value))
        yield from self._charge_tx("direct", 1, False)
        return ev

    # ---------------------------------------------------------- counters --
    def set_counter(self, idx: int, value: int) -> Generator:
        """Preset a local group counter (one PIO write)."""
        yield from self.vic.pcie.direct_write(PACKET_BYTES)
        self.vic.counters.set(idx, value)

    def counter_value(self, idx: int) -> int:
        """Host-visible counter value (instantaneous read of the pushed
        zero-list plus a cached value; no PCIe read is charged because
        the VIC pushes state to host memory during idle cycles)."""
        return self.vic.counters.value(idx)

    def wait_counter_zero(self, idx: int,
                          timeout: Optional[float] = None) -> Generator:
        """Wait until counter ``idx`` reaches zero.

        Returns True on success, False if ``timeout`` expired first —
        mirroring the dvapi call that "waits until a specific group
        counter reaches 0, or a timeout expires".
        """
        zero = self.vic.counters.wait_zero(idx)
        if timeout is None:
            yield zero
            yield self.engine.timeout(self.config.counter_push_latency_s)
            return True
        winner_idx, _ = yield self.engine.any_of(
            [zero, self.engine.timeout(timeout)])
        if winner_idx == 1 and not zero.triggered:
            return False
        yield self.engine.timeout(self.config.counter_push_latency_s)
        return True

    # -------------------------------------------------------------- FIFO --
    def fifo_available(self) -> int:
        """Words visible in the host-side circular buffer."""
        return self.vic.fifo.poll()

    def fifo_wait(self, timeout: Optional[float] = None) -> Generator:
        """Block until the surprise FIFO is non-empty (True) or the
        timeout expires (False)."""
        nonempty = self.vic.fifo.wait_nonempty()
        if timeout is None:
            yield nonempty
            yield self.engine.timeout(self.config.host_poll_interval_s)
            return True
        winner_idx, _ = yield self.engine.any_of(
            [nonempty, self.engine.timeout(timeout)])
        if winner_idx == 1 and not nonempty.triggered:
            return False
        yield self.engine.timeout(self.config.host_poll_interval_s)
        return True

    def fifo_take(self, n: Optional[int] = None) -> np.ndarray:
        """Pop up to ``n`` words from the host circular buffer.

        Free of PCIe cost: the background DMA already staged the data in
        host memory (§III).
        """
        return self.vic.fifo.pop(n)

    # --------------------------------------------------------- DV memory --
    def dv_write(self, addr: int, values, via: str = "dma") -> Generator:
        """Stage data into the local VIC's DV memory (pre-caching)."""
        values = np.atleast_1d(np.asarray(values, dtype=np.uint64))
        nbytes = values.size * WORD_BYTES
        if via == "dma":
            yield from self.vic.pcie.dma_write(nbytes)
        else:
            yield from self.vic.pcie.direct_write(nbytes)
        self.vic.memory.write_range(addr, values)

    def dv_read(self, addr: int, n: int, via: str = "dma") -> Generator:
        """Copy ``n`` words from local DV memory into host memory."""
        nbytes = n * WORD_BYTES
        if via == "dma":
            yield from self.vic.pcie.dma_read(nbytes)
        else:
            yield from self.vic.pcie.direct_read(nbytes)
        return self.vic.memory.read_range(addr, n)

    def drain_overlapped(self, n_words: int,
                         chunk_words: int = 512) -> Generator:
        """Charge the *exposed* cost of copying ``n_words`` from the VIC
        to host memory with multi-buffered DMA overlapped against packet
        arrival (§III: "incoming and outgoing DMA transfers can be
        overlapped, and multi-buffered DMAs enable better overlap").

        Only the final buffer's drain remains on the critical path once
        the last word has been ejected; the caller obtains the data
        functionally via ``vic.memory`` afterwards.
        """
        residue = min(max(n_words, 1), chunk_words)
        yield from self.vic.pcie.dma_read(residue * WORD_BYTES)

    def precache_headers(self, n: int) -> Generator:
        """Charge the one-time cost of staging ``n`` packet headers in DV
        memory (enables the ``cached_headers`` send paths)."""
        yield from self.vic.pcie.dma_write(n * WORD_BYTES)

    # ------------------------------------------------------------ queries --
    def read_remote_word(self, dest: int, addr: int, *,
                         reply_addr: int = 0,
                         counter: Optional[int] = None) -> Generator:
        """Round-trip remote read: send a query packet, wait for the
        hardware-generated reply, return the value."""
        ctr = self.config.scratch_counter if counter is None else counter
        yield from self.set_counter(ctr, 1)
        yield from self._overhead()
        self.network.transmit(
            self.rank, dest, 1,
            payload=Query(addr=addr, reply_vic=self.rank,
                          reply_addr=reply_addr, reply_counter=ctr))
        yield from self._charge_tx("direct", 1, False)
        ok = yield from self.wait_counter_zero(ctr)
        if not ok:  # pragma: no cover - no timeout used here
            raise RuntimeError("remote read timed out")
        return int(self.vic.memory.read_word(reply_addr))

    # ------------------------------------------------------------ barriers --
    def barrier(self) -> Generator:
        """Hardware global barrier (the dvapi intrinsic, 2 reserved
        counters).  The generator's value is a (pre-fired)
        :class:`~repro.sim.events.CompletionEvent` — the same shape
        :meth:`MPIEndpoint.barrier <repro.ib.mpi.MPIEndpoint.barrier>`
        returns, so fabric-generic drivers can treat both alike."""
        if self.hw_barrier is None:
            raise RuntimeError("barrier not wired; use a Cluster")
        yield from self.hw_barrier.enter(self.rank)
        done = CompletionEvent(self.engine, fabric="dv", op="barrier",
                               src=self.rank,
                               name=f"dv:barrier @{self.rank}")
        done.succeed(None)
        return done

    def fast_barrier(self) -> Generator:
        """The paper's in-house all-to-all "Fast Barrier"."""
        if self.fast_barrier_impl is None:
            raise RuntimeError("fast barrier not wired; use a Cluster")
        yield from self.fast_barrier_impl.enter(self.rank)

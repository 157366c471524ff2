"""Global barriers over the Data Vortex network.

Two implementations, matching the two lines of the paper's Fig. 4:

* :class:`HardwareBarrier` — the dvapi intrinsic.  Uses the two reserved
  group counters in alternation.  Every entering rank decrements a
  gather counter on VIC 0; when it hits zero the *VIC* broadcasts release
  packets to every other VIC with no host involvement.  Latency is
  dominated by two switch traversals plus the PIO that initiates entry,
  and is essentially independent of node count — the flat line.

* :class:`FastBarrier` — the paper's in-house all-to-all variant: each
  rank sends one decrement packet to every other rank and waits for its
  own counter to drain.  Still flat-ish (injection of N-1 packets costs
  nanoseconds) but pays per-rank PIO for N-1 packets.
"""

from __future__ import annotations

from typing import Generator, Sequence

from repro.dv.config import DVConfig, PACKET_BYTES
from repro.dv.vic import CounterDec, VIC
from repro.sim.engine import Engine

from typing import TYPE_CHECKING
if TYPE_CHECKING:  # pragma: no cover
    from repro.dv.flow import FlowNetwork


class HardwareBarrier:
    """dvapi-intrinsic barrier using the two reserved group counters."""

    def __init__(self, engine: Engine, config: DVConfig,
                 vics: Sequence[VIC], network: "FlowNetwork") -> None:
        self.engine = engine
        self.config = config
        self.vics = list(vics)
        self.network = network
        self.n = len(self.vics)
        self._rank_generation = [0] * self.n
        c0, c1 = config.barrier_counters
        master = self.vics[0].counters
        # Pre-arm both generations' gather counters on the master VIC.
        master.set(c0, self.n)
        master.set(c1, self.n)
        self._arm(generation=0)
        self._arm(generation=1)

    def _arm(self, generation: int) -> None:
        """Register the VIC-side release trigger for ``generation``."""
        idx = self.config.barrier_counters[generation % 2]
        master = self.vics[0].counters

        def _release(_ev) -> None:
            # Broadcast release packets (one per remote VIC), then
            # recycle this counter for generation + 2 and re-arm.  All of
            # this is VIC hardware; no host time is charged.
            for r in range(1, self.n):
                self.network.transmit(0, r, 1, payload=CounterDec(idx, 1))
            master.set(idx, self.n)
            self._arm(generation + 2)

        master.wait_zero(idx).add_callback(_release)

    def enter(self, rank: int) -> Generator:
        """Enter the barrier from ``rank``; returns when released."""
        gen = self._rank_generation[rank]
        self._rank_generation[rank] += 1
        idx = self.config.barrier_counters[gen % 2]
        vic = self.vics[rank]
        # Host initiates with a single PIO packet write; everything else
        # happens VIC-side.
        yield from vic.pcie.direct_write(PACKET_BYTES)
        if rank != 0:
            # Preset the local release counter *before* notifying the
            # master — the ordering that makes the race-free (SS III).
            vic.counters.set(idx, 1)
        self.network.transmit(rank, 0, 1, payload=CounterDec(idx, 1))
        yield vic.counters.wait_zero(idx)
        # Host observes the zero via the reverse-DMA push.
        yield self.engine.timeout(self.config.counter_push_latency_s)


class FastBarrier:
    """All-to-all dissemination barrier built on user group counters."""

    def __init__(self, engine: Engine, config: DVConfig,
                 vics: Sequence[VIC], network: "FlowNetwork",
                 counters: Sequence[int] = None) -> None:
        self.engine = engine
        self.config = config
        self.vics = list(vics)
        self.network = network
        self.n = len(self.vics)
        if counters is None:
            # user_counters() is identical on every VIC
            user = self.vics[0].counters.user_counters()
            counters = (user[-1], user[-2])
        self.counters = tuple(counters)
        self._rank_generation = [0] * self.n
        # Pre-arm both generations on every VIC.
        for vic in self.vics:
            vic.counters.set(self.counters[0], max(self.n - 1, 0))
            vic.counters.set(self.counters[1], max(self.n - 1, 0))

    def enter(self, rank: int) -> Generator:
        gen = self._rank_generation[rank]
        self._rank_generation[rank] += 1
        idx = self.counters[gen % 2]
        vic = self.vics[rank]
        if self.n == 1:
            yield self.engine.timeout(self.config.api_call_overhead_s)
            return
        # PIO the N-1 decrement packets out (header+payload each).
        yield from vic.pcie.direct_write((self.n - 1) * PACKET_BYTES)
        for r in range(self.n):
            if r != rank:
                self.network.transmit(rank, r, 1, payload=CounterDec(idx, 1))
        zero = vic.counters.wait_zero(idx)
        yield zero
        # Recycle for generation + 2 before anyone could re-enter it.
        vic.counters.set(idx, self.n - 1)
        yield self.engine.timeout(self.config.counter_push_latency_s)

"""Fat-tree InfiniBand fabric with static-routing contention.

Geometry: ``leaf_size`` nodes per leaf switch, all leaves joined through a
spine.  Each message follows node-tx -> (leaf uplink -> leaf downlink, if
it crosses leaves) -> node-rx.  The uplink a flow takes is a *static* hash
of (src, dst) — as with real IB static routing, two flows between
different node pairs can collide on one uplink while others idle, which is
the effect that degrades unstructured (irregular) traffic on fat trees
(paper §VIII, ref [33]).

Channels are modelled as next-free-time accumulators (cut-through: a
message's serialisation time is charged once, concurrently on every
channel along its path), numbered into one flat list of slots
(:meth:`IBFabric._slots`).  Per-message state rides in the arguments of
one :meth:`Engine.call_in` wakeup, and each flow's uplink — a blake2b
hash per (src, dst) pair — is memoised once per process, which is exact
because it is a pure function of ``(src, dst, n)``.
"""

from __future__ import annotations

import collections
import functools
import hashlib
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.faults import injector as fltreg
from repro.ib.config import IBConfig
from repro.obs import registry as obsreg
from repro.sim.engine import Engine
from repro.sim.events import CompletionEvent, Event

#: Receiver callback signature: (src, kind, payload, nbytes)
Receiver = Callable[[int, str, Any, int], None]


@dataclass
class FabricStats:
    """Aggregate fabric accounting."""

    messages: int = 0
    bytes: int = 0
    cross_leaf_messages: int = 0
    total_queue_wait_s: float = 0.0


@functools.lru_cache(maxsize=1 << 16)
def _route_hash(src: int, dst: int, n: int) -> int:
    """Deterministic static-routing uplink choice for the (src, dst) flow.

    Memoised across fabrics: every run of the same cluster size asks for
    the same pairs."""
    h = hashlib.blake2b(f"{src}->{dst}".encode(), digest_size=4)
    return int.from_bytes(h.digest(), "little") % n


class IBFabric:
    """The simulated IB fat tree connecting ``n_nodes`` HCAs."""

    def __init__(self, engine: Engine, config: IBConfig, n_nodes: int,
                 contention: bool = True) -> None:
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.engine = engine
        self.config = config
        self.n_nodes = n_nodes
        #: disable to model an ideal non-blocking crossbar (ablation)
        self.contention = contention
        leaves = -(-n_nodes // config.leaf_size)
        up = config.uplinks_per_leaf
        #: first up- and downlink slot (see :meth:`_slots`)
        self._up0 = 2 * n_nodes
        self._down0 = 2 * n_nodes + leaves * up
        #: next-free time per channel slot; with contention off the
        #: private per-flow slots (n² of them) are made on first use
        self._free: Any = ([0.0] * (self._down0 + leaves * up) if contention
                           else collections.defaultdict(float))
        self._receivers: List[Optional[Receiver]] = [None] * n_nodes
        self.stats = FabricStats()
        # IB loses no messages: link-level CRC errors are retried by the
        # HCA, so a FaultPlan shows up as latency, not loss
        self._faults = fltreg.site("ib.fabric")
        self._obs_on = obsreg.enabled()
        if self._obs_on:
            self._m_messages = obsreg.counter("ib.fabric.messages")
            self._m_bytes = obsreg.counter("ib.fabric.bytes")
            self._m_cross = obsreg.counter("ib.fabric.cross_leaf_messages")
            self._m_wait = obsreg.histogram("ib.fabric.queue_wait_s")

    # -- wiring ---------------------------------------------------------------
    def attach(self, node: int, receiver: Receiver) -> None:
        if self._receivers[node] is not None:
            raise ValueError(f"node {node} already attached")
        self._receivers[node] = receiver

    def leaf_of(self, node: int) -> int:
        return node // self.config.leaf_size

    def _slots(self, src: int, dst: int) -> Tuple[int, ...]:
        """Indices into ``_free`` of the channels along the route.

        ``tx[src]`` is slot ``src`` and ``rx[dst]`` slot ``n + dst``; a
        cross-leaf route adds leaf ``l``'s uplink ``k`` at
        ``2n + l·U + k`` and its downlink ``k`` at ``2n + L·U + l·U +
        k`` (``L`` leaves of ``U`` uplinks), or, on an ideal crossbar,
        one private slot ``2n + src·n + dst`` for the flow.
        """
        n = self.n_nodes
        leaf = self.config.leaf_size
        lsrc, ldst = src // leaf, dst // leaf
        if lsrc == ldst:
            return (src, n + dst)
        if not self.contention:
            return (src, self._up0 + src * n + dst, n + dst)
        u = self.config.uplinks_per_leaf
        return (src, self._up0 + lsrc * u + _route_hash(src, dst, u),
                self._down0 + ldst * u + _route_hash(dst, src, u), n + dst)

    def hops(self, src: int, dst: int) -> int:
        """Switch hops traversed (2 within a leaf, 4 across the spine)."""
        return 2 if self.leaf_of(src) == self.leaf_of(dst) else 4

    # -- transfers -----------------------------------------------------------
    def _check(self, src: int, dst: int, nbytes: int) -> None:
        if not 0 <= src < self.n_nodes:
            raise ValueError(f"bad src {src}")
        if not 0 <= dst < self.n_nodes:
            raise ValueError(f"bad dst {dst}")
        if nbytes < 0:
            raise ValueError("negative size")

    def transfer(self, src: int, dst: int, nbytes: int, *,
                 kind: str = "data", payload: Any = None) -> Event:
        """Move ``nbytes`` from ``src`` to ``dst``.

        Returns an event firing on arrival at ``dst``; the destination's
        receiver callback (if attached) is invoked with
        ``(src, kind, payload, nbytes)`` at that time.
        """
        self._check(src, dst, nbytes)
        cfg = self.config
        now = self.engine.now
        slots = self._slots(src, dst)
        occupancy = max(nbytes / cfg.effective_bw, cfg.msg_gap_s)

        retry_lat = 0.0
        fs = self._faults
        if fs is not None:
            k = fs.ib_retries()
            if k:
                # each retry re-serialises the message on its channels
                # and waits out the HCA's retransmission timeout
                occupancy *= (k + 1)
                retry_lat = k * fs.plan.ib_retry_timeout_s

        free = self._free
        start = now
        for ch in slots:
            t = free[ch]
            if t > start:
                start = t
        self.stats.total_queue_wait_s += start - now
        busy_until = start + occupancy
        for ch in slots:
            free[ch] = busy_until

        # a cross-leaf route has more than two channels and four hops
        cross = len(slots) > 2
        arrival = (start + occupancy + retry_lat + cfg.wire_latency_s
                   + (4 if cross else 2) * cfg.hop_latency_s)

        self.stats.messages += 1
        self.stats.bytes += nbytes
        if cross:
            self.stats.cross_leaf_messages += 1
        if self._obs_on:
            self._m_messages.inc()
            self._m_bytes.inc(nbytes)
            self._m_wait.observe(start - now)
            if cross:
                self._m_cross.inc()

        done = CompletionEvent(self.engine, fabric="ib", op=kind,
                               src=src, dest=dst, nbytes=nbytes)
        self.engine.call_in(arrival - now, self._deliver,
                            src, dst, nbytes, kind, payload, done)
        return done

    def _deliver(self, src: int, dst: int, nbytes: int, kind: str,
                 payload: Any, done: Event) -> None:
        receiver = self._receivers[dst]
        if receiver is not None:
            receiver(src, kind, payload, nbytes)
        done._succeed_soon(payload)


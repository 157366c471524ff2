"""Deferred global pricing for the sharded flow engines.

Both fabrics have exactly one piece of *global* state that couples
shards at transmit time:

* Data Vortex — the busy-port census behind the deflection penalty
  (``FlowNetwork._load``);
* InfiniBand — the channel next-free-time accumulators behind static
  -routing contention (``IBFabric._free``, one slot per channel).

The sharded engines therefore never price a transfer inline.  Each
transmit logs one *ledger row* and the hub replays the merged rows on a
persistent replayer at every window barrier, in serial order: by the
merge key of the event that transmitted (:mod:`repro.sim.pdes.engine`),
then by ``lseq``, the shard's sequence number burned at the call.
Same-instant rows whose events tie on the key's times are ordered, as
the engines order ties, within a shard by the shard's own order and
across shards by :func:`~repro.sim.pdes.engine.ancestry_order`; a pair
that has no common ancestor in reach makes :func:`merge_rows` raise
:class:`~repro.sim.pdes.ShardingUnsupported`.  The replayers below
apply, per row, *exactly* the state updates and float operations of the
serial engines — same operations, same order, same rounding — so the
prices they return are bit-identical to serial.
"""

from __future__ import annotations

from functools import cmp_to_key
from heapq import heappop, heappush
from typing import List, Tuple

from repro.dv.config import DVConfig
from repro.ib.config import IBConfig
from repro.sim.pdes import ShardingUnsupported
from repro.sim.pdes.engine import ancestry_order, entry_id

#: DV ledger row: (t_tx, event key, lseq, src, mark_end, event lineage)
DVRow = Tuple[float, tuple, int, int, float, tuple]
#: IB ledger row: (t_tx, event key, lseq, src, dst, nbytes, event lineage)
IBRow = Tuple[float, tuple, int, int, int, int, tuple]


def _row_order(a: tuple, b: tuple) -> int:
    """Serial order of two same-instant rows whose events tie on the
    merge key's times; ``a``/``b`` are ``(times, shard, index, row)``."""
    if a[1] == b[1]:                       # same shard: its own order
        return -1 if a[2] < b[2] else 1
    key_a, lin_a = a[3][1], a[3][-1]
    key_b, lin_b = b[3][1], b[3][-1]
    order = ancestry_order(lin_a, entry_id(key_a[5], key_a[4], lin_a),
                           lin_b, entry_id(key_b[5], key_b[4], lin_b))
    if order == 0:
        raise ShardingUnsupported(
            f"same-instant transmits at t={key_a[0]!r} on shards "
            f"{a[1]} and {b[1]} with no common ancestor in reach",
            reason="tie-order")
    return order


def merge_rows(rows_by_shard: List[list]) -> List[tuple]:
    """Merge per-shard ledger rows into global replay order.

    Returns ``(shard_id, local_index, row)`` tuples in serial order;
    ``(shard_id, local_index)`` lets the hub route each row's price back
    to the shard that logged it.
    """
    merged = [(row[1][:3], sid, k, row)
              for sid, rows in enumerate(rows_by_shard)
              for k, row in enumerate(rows)]
    merged.sort(key=lambda e: e[:3])
    out = []
    lo = 0
    while lo < len(merged):
        hi = lo + 1
        while hi < len(merged) and merged[hi][0] == merged[lo][0]:
            hi += 1
        group = merged[lo:hi]
        if group[0][1] != group[-1][1]:    # the tie spans shards
            group.sort(key=cmp_to_key(_row_order))
        out.extend(e[1:] for e in group)
        lo = hi
    return out


def _price_all(price, rows_by_shard: List[list]) -> List[list]:
    """Price every row in merge order; prices come back per shard, in
    each shard's local row order."""
    prices: List[list] = [[None] * len(r) for r in rows_by_shard]
    for sid, k, row in merge_rows(rows_by_shard):
        prices[sid][k] = price(row)
    return prices


class DVReplayer:
    """Replays the serial busy-port state machine for priced rows.

    Mirrors ``FlowNetwork.transmit`` steps 1-2: record the source port's
    new ``inject_free`` mark, then evaluate ``_load(t_tx)`` with lazy
    mark retirement.  One instance persists across all windows of a run
    — its heap and flags are exactly the serial network's at every row.
    """

    def __init__(self, config: DVConfig, n_ports: int) -> None:
        cfg = config.scaled_to_ports(n_ports)
        self.n_ports = n_ports
        self._defl = cfg.deflection_hops_per_load
        self._inject_free = [0.0] * n_ports
        self._port_busy = [False] * n_ports
        self._busy_ports = 0
        self._busy_heap: list = []

    def price(self, t_tx: float, src: int, mark_end: float) -> float:
        """Deflection penalty the serial engine would compute for this
        transmit (``deflection_hops_per_load * _load(t_tx)``)."""
        self._inject_free[src] = mark_end
        if not self._port_busy[src]:
            self._port_busy[src] = True
            self._busy_ports += 1
        heappush(self._busy_heap, (mark_end, src))
        heap = self._busy_heap
        while heap and heap[0][0] <= t_tx:
            _, port = heappop(heap)
            if self._port_busy[port] and self._inject_free[port] <= t_tx:
                self._port_busy[port] = False
                self._busy_ports -= 1
        return self._defl * (self._busy_ports / self.n_ports)

    def price_merged(self, rows_by_shard: List[list]) -> List[list]:
        return _price_all(lambda r: self.price(r[0], r[3], r[4]),
                          rows_by_shard)


class _StoppedEngine:
    """Minimal stand-in so a fabric can be used as a pure route oracle."""

    now = 0.0


class IBReplayer:
    """Replays the serial channel-accumulator pricing for IB rows.

    Owns a throwaway :class:`~repro.ib.fabric.IBFabric` purely as a
    route oracle (``_slots`` / ``hops`` are pure functions of the pair)
    whose channel slots no transfer ever touches, so they serve as the
    replay's own, and accumulates ``total_queue_wait_s`` in serial row
    order — float addition is not associative, so the wait total must
    be summed here, not per shard.
    """

    def __init__(self, config: IBConfig, n_nodes: int,
                 contention: bool = True) -> None:
        from repro.ib.fabric import IBFabric
        self._oracle = IBFabric(_StoppedEngine(), config, n_nodes,
                                contention=contention)
        self._cfg = self._oracle.config
        self._free = self._oracle._free
        self.total_queue_wait_s = 0.0

    def price(self, t_tx: float, src: int, dst: int, nbytes: int) -> float:
        """Arrival time the serial engine would compute for this
        transfer (faults are never active on the sharded path)."""
        cfg = self._cfg
        slots = self._oracle._slots(src, dst)
        occupancy = max(nbytes / cfg.effective_bw, cfg.msg_gap_s)
        free = self._free
        start = t_tx
        for ch in slots:
            t = free[ch]
            if t > start:
                start = t
        self.total_queue_wait_s += start - t_tx
        busy_until = start + occupancy
        for ch in slots:
            free[ch] = busy_until
        return (start + occupancy + 0.0 + cfg.wire_latency_s
                + self._oracle.hops(src, dst) * cfg.hop_latency_s)

    def price_merged(self, rows_by_shard: List[list]) -> List[list]:
        return _price_all(lambda r: self.price(r[0], r[3], r[4], r[5]),
                          rows_by_shard)

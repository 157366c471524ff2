"""Conservative parallel discrete-event simulation (PDES).

Shards the flow-network cluster simulation across OS processes: the
partitioner (:func:`repro.core.scaling.partition_ports`) assigns nodes
to shards by DV cylinder height / fat-tree leaf, each shard runs its own
:class:`~repro.sim.pdes.engine.ShardEngine` event loop, and a hub
synchronises them with epoch windows whose width equals the minimum
cross-shard link latency (null-message-free conservative PDES).
Cross-shard traffic is merged under a deterministic key
``(timestamp, scheduled-at, origin rank, sequence id)`` so sharded runs
are **bit-identical** to serial — the property the golden harness's
fifth axis checks on every pinned figure.

Select with ``ClusterSpec(shards=N)`` or, scoped (the
golden-axis / test idiom, mirroring ``faults.session``)::

    with pdes.session(2):
        result = run_spmd(spec, program, fabric="dv")

Programs the sharded transports cannot split exactly (rendezvous MPI
sends, installed fault plans, tracing, same-instant ties whose serial
order the events' lineages cannot tell) raise
:class:`ShardingFallback` internally and are re-run serially —
correctness first, speed when safe.  Each fallback is counted as the
obs counter ``pdes.fallbacks`` labelled by its short ``reason``, and
each run that did shard as ``pdes.sharded_runs``.
"""

from __future__ import annotations

from contextlib import contextmanager


class ShardingFallback(RuntimeError):
    """Internal signal: this run must be (re-)executed serially.

    Never escapes :func:`repro.core.cluster.run_spmd` — the caller sees
    the serial result, which the sharded path is defined to match.
    ``reason`` is a short label for the ``pdes.fallbacks`` counter."""

    def __init__(self, message: str, reason: str = "other") -> None:
        super().__init__(message)
        self.reason = reason


class ShardingUnsupported(ShardingFallback):
    """Something the sharded engines cannot split exactly, met inside a
    shard (a rendezvous MPI send, whose handshake couples the two ranks
    mid-window; an ambiguous same-instant tie).  The shard reports it
    and the runner falls back to serial."""


# Scoped shard-count override, consulted by run_spmd when the spec says
# shards=1.  0 = no override.  Mirrors faults.injector.session.
_SESSION_SHARDS = 0

# Execution report of the most recent sharded run in this process,
# written by the runner at finish and cleared when an attempt starts.
# None until a sharded run completes, and after one falls back.
_LAST_REPORT = None


def last_report():
    """Execution report of the last sharded run: shard/hub CPU seconds,
    window and event counts, and ``critical_path_s`` (max shard CPU +
    hub CPU — the fork-mode wall-clock projection, valid even when the
    host timeshares shards over fewer cores than shards).  ``None``
    before any sharded run finishes, and after a sharded attempt that
    fell back to serial."""
    return _LAST_REPORT


def session_shards() -> int:
    """The scoped shard-count override (0 when none is active)."""
    return _SESSION_SHARDS


@contextmanager
def session(shards: int):
    """Scoped shard-count override restoring the previous value.

    Lets the golden harness and tests shard existing experiment entry
    points without threading a parameter through every call site."""
    global _SESSION_SHARDS
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if _SESSION_SHARDS:
        # The override is a single process-wide slot: a nested session
        # would silently reshard the outer scope's runs (the
        # shared-state hazard the tenancy layer exposed).  There is no
        # per-tenant variant — sharding partitions the whole engine —
        # so nesting is an error, not a composition.
        raise RuntimeError(
            f"nested pdes.session: a {_SESSION_SHARDS}-shard session "
            "is already active in this process")
    prev = _SESSION_SHARDS
    _SESSION_SHARDS = int(shards)
    try:
        yield _SESSION_SHARDS
    finally:
        _SESSION_SHARDS = prev


__all__ = [
    "ShardingUnsupported",
    "ShardingFallback",
    "last_report",
    "session",
    "session_shards",
]

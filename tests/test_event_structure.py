"""Event-structure pins: exact engine event counts of small runs.

A host-time optimisation of the engine, processes, MPI matching or the
fast fabrics must leave every heap entry and its ``(time, sequence)``
order alone.  Simulated results catch most slips, but an extra or a
missing heap entry can leave them intact; the engine's
``events_processed`` does not.  These pins were recorded before the
per-message hot path was trimmed (indexed MPI matching, call-in process
starts, pool-free fast IB fabric) and must never move unless a change
means to alter the simulated event sequence.
"""

import pytest

import repro.kernels.fft1d as fft1d
import repro.kernels.gups as gups
from repro.core.cluster import ClusterSpec


def _traced(module, monkeypatch, fn):
    """Run ``fn()`` and also return the RunResult of its one
    ``run_spmd`` call (which holds the engine)."""
    seen = []
    real = module.run_spmd

    def spy(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(module, "run_spmd", spy)
    out = fn()
    (res,) = seen
    return out, res


def _spec():
    return ClusterSpec(n_nodes=16, seed=7)


# name -> (module, run, result keys, events, results, fabric messages)
PINS = {
    # small-eager all-to-all traffic, two 1024-update windows
    "gups_mpi": (
        gups, lambda: gups.run_gups(_spec(), "mpi", table_words=1024,
                                    n_updates=2048, validate=True),
        ("elapsed_s", "mups_total"), 8534,
        (8.325384780074189e-05, 393.59141788168495), 608),
    "gups_dv": (
        gups, lambda: gups.run_gups(_spec(), "dv", table_words=1024,
                                    n_updates=2048, validate=True),
        ("elapsed_s", "mups_total"), 2766,
        (3.472581818181824e-05, 943.6206752115257), None),
    # 4 KiB all-to-all chunks: every exchange takes the rendezvous path
    "fft_rendezvous": (
        fft1d, lambda: fft1d.run_fft1d(
            ClusterSpec(n_nodes=4, seed=7), "mpi",
            log2_points=14, validate=True),
        ("elapsed_s", "gflops"), 484,
        (3.34373521992581e-05, 34.29936656364336), 52),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_event_sequence_is_pinned(name, monkeypatch):
    module, run, keys, events, results, messages = PINS[name]
    out, res = _traced(module, monkeypatch, run)
    assert out["valid"]
    assert res.engine.events_processed == events
    assert tuple(out[k] for k in keys) == results
    if messages is not None:
        assert res.net_stats.messages == messages

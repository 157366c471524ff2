"""Event-structure pins: exact engine event counts of small runs.

A host-time optimisation of the engine, processes, MPI matching or the
fast fabrics must leave the order of everything the simulation does
alone.  Simulated results catch most slips, but an extra or a missing
heap entry can leave them intact; the engine's ``events_processed``
does not.  The events column moves only with a change that takes
entries off the heap on purpose and proves the order unchanged.  The
MPI requests without processes did (gups_mpi 8534 -> 2720,
fft_rendezvous 484 -> 192; heat and barrier were 3264 and 1616
before): their zero-delay wakeups run from the engine's sequence-
ordered lane (``Engine.call_soon``), and
``tests/test_mpi_requests.py`` holds them to the process-per-request
layer record for record.  The DV fan-outs did too (gups_dv 2766 ->
2270): the per-group ``CompletionEvent`` entries, the ``AllOf``
re-deliveries at ``send_batch``'s join and the ``AllOf`` entries left
the heap (240, 240 and 16).  Fan-outs are now posted fire and forget;
the one completion per fan-out that stood in between ran from the
lane, so dropping it moved no pin.  ``tests/test_dv_fanout.py`` holds
them to a ``transmit`` per group record for record.  So did the GUPS
epochs' fire-and-forget FIFO fan-outs (gups_dv 2270 -> 1790): the 480
deliveries to the owners' FIFOs are held by the FIFO and land when it
is next observed, not as heap entries of their own;
``tests/test_fifo_deferral.py`` holds them to a heap entry per
delivery, every observation and resume.  The results and messages
columns never move.
"""

import pytest

import repro.apps.heat as heat
import repro.kernels.barrier_bench as barrier_bench
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
        ("elapsed_s", "mups_total"), 2720,
        (8.325384780074189e-05, 393.59141788168495), 608),
    "gups_dv": (
        gups, lambda: gups.run_gups(_spec(), "dv", table_words=1024,
                                    n_updates=2048, validate=True),
        ("elapsed_s", "mups_total"), 1790,
        (3.472581818181824e-05, 943.6206752115257), None),
    # 4 KiB all-to-all chunks: every exchange takes the rendezvous path
    "fft_rendezvous": (
        fft1d, lambda: fft1d.run_fft1d(
            ClusterSpec(n_nodes=4, seed=7), "mpi",
            log2_points=14, validate=True),
        ("elapsed_s", "gflops"), 192,
        (3.34373521992581e-05, 34.29936656364336), 52),
    # six isend/irecv halo faces per step, joined one request at a time
    "heat_mpi": (
        heat, lambda: heat.run_heat(ClusterSpec(n_nodes=8, seed=7), "mpi",
                                    n=16, steps=4, validate=True),
        ("elapsed_s", "cell_steps_per_s"), 1504,
        (9.073280000000012e-05, 180574169.42935717), 272),
    # Bruck dissemination: one sendrecv (a two-request waitall) a round
    "barrier_mpi": (
        barrier_bench, lambda: barrier_bench.run_barrier_bench(
            ClusterSpec(n_nodes=8, seed=7), "mpi", iters=4),
        ("latency_s",), 656, (6.627000000000004e-06,), 120),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_event_sequence_is_pinned(name, monkeypatch):
    module, run, keys, events, results, messages = PINS[name]
    out, res = _traced(module, monkeypatch, run)
    assert out.get("valid", True)
    assert res.engine.events_processed == events
    assert tuple(out[k] for k in keys) == results
    if messages is not None:
        assert res.net_stats.messages == messages

"""Simulator benchmark: host wall time end to end, layer time traced.

Run from the repository root::

    python3 perfbench/run.py --workload gups_mpi --seed 1 --seconds 20 \\
        --trace 0

One operation runs one workload's simulation once
(:mod:`workloads`).  With ``--trace 0`` the benchmark times operations
back to back (a closed loop with one client) for ``--seconds`` and
reports the median operation's host wall time, the set-up time and the
peak resident memory.  With ``--trace 1`` it times a few operations the
same way, then runs two operations under ``cProfile`` and
``repro.obs`` and reports the per-layer view (:mod:`layers`).

Every operation's output is checked: the kernels validate themselves,
simulated results must repeat exactly within a run, and ``paper_figs``
must match every golden.  Before the timed phase, every kernel run
also makes one untimed operation at the pinned seed, whatever
``--seed`` is, whose simulated results must equal ``pinned.json``.  An
operation that fails a check counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The benchmark
process re-executes itself once with a fixed ``PYTHONHASHSEED``.  To
time set-up in fresh interpreters it starts :data:`SETUP_PROBES` set-up
probes, one after another, half of them before the timed phase and the
rest after it; no probe runs while an operation is timed.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
HASH_SEED = "0"

#: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 7

#: Untimed-median operations a traced run makes before profiling.
TRACE_BASELINE_OPS = 3

UNITS = {"peak_rss_mb": "MB", "sim.us_per_event": "us",
         "trace.overhead_x": "x", "ib.mpi.probes_per_recv": "probes/recv",
         "ib.fabric.bytes": "B"}


def _parse(argv: List[str]) -> argparse.Namespace:
    from workloads import DEFAULT_SEED, WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="run the tiny size of the workload (smoke test)")
    p.add_argument("--probe", action="store_true",
                   help="internal: only set up, print the set-up timings")
    return p.parse_args(argv)


# ---------------------------------------------------------------- set-up ---

def _set_up(args) -> Dict[str, float]:
    """Imports, warm-up and input loading; the seconds each took."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import repro.golden.harness  # noqa: F401
    import repro.kernels  # noqa: F401
    from workloads import WORKLOADS
    t1 = time.perf_counter()
    wl = WORKLOADS[args.workload]
    wl.tiny(args.seed)  # warm-up: pyc, first calls, FFT plans, goldens
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "inputs_s": t2 - t1}


def _pinned(args) -> Optional[list]:
    """The workload's fingerprint at the default seed and the run's size,
    as pinned; ``None`` for ``paper_figs``, whose goldens are its pin."""
    with open(os.path.join(HERE, "pinned.json")) as f:
        pins = json.load(f).get(args.workload)
    return None if pins is None else pins["tiny" if args.tiny else "op"]


def _probe_setups(args, count: int) -> List[Dict[str, float]]:
    """Time ``count`` set-ups in fresh interpreters, one at a time: from
    process start until the probe reports it is set up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        if code != 0 or not line:
            raise RuntimeError(f"set-up probe failed ({code}): {rest}")
        probe = json.loads(line)
        probe["setup_s"] = wall
        out.append(probe)
    return out


# ------------------------------------------------------------ operations ---

class Checker:
    """Counts operations and the ones whose output is wrong."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.first: Optional[list] = None
        self.attempted = 0
        self.failed = 0

    def run(self, op, pinned: Optional[list] = None) -> float:
        """One operation; returns its host wall seconds.

        Without ``pinned`` the operation runs at the run's seed and must
        repeat the fingerprint of the run's first operation.  With it,
        the operation runs at the default seed and must give ``pinned``.

        The previous operation's cyclic garbage is collected first,
        untimed, so every operation starts from the same heap and gc
        state, as a user's run in a fresh process does.
        """
        from workloads import DEFAULT_SEED
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            valid, fingerprint = op(self.seed if pinned is None
                                    else DEFAULT_SEED)
        except Exception as err:  # a crashed operation is a failed one
            print(f"operation raised: {err!r}", file=sys.stderr)
            self.failed += 1
            return time.perf_counter() - t0
        wall = time.perf_counter() - t0
        reasons = []
        if not valid:
            reasons.append("self-validation failed")
        if pinned is not None:
            if fingerprint != pinned:
                reasons.append(f"{fingerprint} differs from pinned "
                               f"{pinned}")
        elif self.first is None:
            self.first = fingerprint
        elif fingerprint != self.first:
            reasons.append(f"{fingerprint} differs from the run's first "
                           f"operation {self.first}")
        if reasons:
            print("operation failed: " + "; ".join(reasons),
                  file=sys.stderr)
            self.failed += 1
        return wall


def _timed(checker: Checker, op, seconds: float,
           min_ops: int = 1) -> List[float]:
    """Operations back to back until ``seconds`` have passed."""
    walls: List[float] = []
    t_end = time.perf_counter() + seconds
    while len(walls) < min_ops or time.perf_counter() < t_end:
        walls.append(checker.run(op))
    return walls


def _traced(checker: Checker, op) -> Tuple[float, Dict[str, float]]:
    """One operation under cProfile and a fresh obs registry."""
    from layers import fold_profile, obs_counts
    from repro import obs
    prof = cProfile.Profile()
    with obs.session() as registry:
        prof.enable()
        try:
            wall = checker.run(op)
        finally:
            prof.disable()
    prof.create_stats()
    self_s, calls = fold_profile(prof.stats)
    metrics: Dict[str, float] = {f"{k}.self_s": v for k, v in self_s.items()}
    metrics.update(calls)
    metrics.update(obs_counts(registry))
    return wall, metrics


def _layer_metrics(checker: Checker, op, seconds: float
                   ) -> Dict[str, float]:
    from layers import COUNT_METRICS
    # untraced baseline for the overhead ratio, then two traced runs
    base = _timed(checker, op, seconds / 3, TRACE_BASELINE_OPS)
    (wall1, m1), (wall2, m2) = _traced(checker, op), _traced(checker, op)
    for name in COUNT_METRICS:
        if m1[name] != m2[name]:
            print(f"count {name} did not repeat: {m1[name]} vs "
                  f"{m2[name]}", file=sys.stderr)
            checker.failed += 1
    values: Dict[str, float] = {}
    for name in m1:
        if name.endswith(".self_s"):
            values[name] = (m1[name] + m2[name]) / 2
        else:
            values[name] = m1[name]
    recvs = values["ib.mpi.recvs"]
    values["ib.mpi.probes_per_recv"] = (
        values["ib.mpi.match_probes"] / recvs if recvs else 0.0)
    events = values["sim.events"]
    values["sim.us_per_event"] = (
        values["sim.self_s"] / events * 1e6 if events else 0.0)
    values["trace.overhead_x"] = (
        statistics.median([wall1, wall2]) / statistics.median(base))
    return values


def _unit(name: str) -> str:
    """Seconds for ``*_s``, else a count unless named otherwise."""
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


# ------------------------------------------------------------------ main ---

def main(argv: List[str]) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)] + argv, env)
    for needed in (os.path.join(SRC, "repro"),
                   os.path.join(ROOT, "goldens")):
        if not os.path.isdir(needed):
            print(f"run from a repository checkout: {needed} is missing",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [SRC, HERE]
    args = _parse(argv)
    if args.probe:
        print(json.dumps(_set_up(args)), flush=True)
        return 0

    from workloads import WORKLOADS
    probes = _probe_setups(args, (SETUP_PROBES + 1) // 2)
    _set_up(args)
    wl = WORKLOADS[args.workload]
    op = wl.tiny if args.tiny else wl.op
    checker = Checker(args.seed)
    pinned = _pinned(args)
    if pinned is not None:
        checker.run(op, pinned)
    if args.trace:
        values = _layer_metrics(checker, op, args.seconds)
    else:
        walls = _timed(checker, op, args.seconds)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {"wall_s": statistics.median(walls),
                  "peak_rss_mb": rss_kb / 1024}
        print(f"{args.workload}: {len(walls)} operations, wall_s "
              + " ".join(f"{w:.3f}" for w in sorted(walls)),
              file=sys.stderr)
    probes += _probe_setups(args, SETUP_PROBES // 2)
    if args.trace:
        for part in ("import_s", "inputs_s"):
            values[f"setup.{part}"] = statistics.median(
                p[part] for p in probes)
    else:
        values["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        print(f"{args.workload}: setup_s " + " ".join(
            f"{p['setup_s']:.3f}" for p in probes), file=sys.stderr)
    metrics = {name: {"value": v, "unit": _unit(name)}
               for name, v in sorted(values.items())}
    print(json.dumps({"correct": checker.failed == 0,
                      "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

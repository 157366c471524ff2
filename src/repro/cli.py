"""Command-line interface: regenerate any paper figure from a shell.

Usage::

    python -m repro.cli fig4 --nodes 2,4,8,16,32
    python -m repro.cli fig6 --nodes 4,8
    python -m repro.cli fig9
    python -m repro.cli chase --nodes 8 --hops 256
    python -m repro.cli obs --nodes 4        # unified metrics report (JSON)
    python -m repro.cli scaling --workers 4 --cache .repro-cache
    python -m repro.cli figures --figs fig4,fig6 --workers 2
    python -m repro.cli sweep --name gups --nodes 4,8,16
    python -m repro.cli scaleout --nodes 64,128,256,512,1024 --workers 4
    python -m repro.cli scaleout --nodes 4096 --shards 4  # sharded PDES
    python -m repro.cli bench                        # perf trajectory
    python -m repro.cli cache --cache .repro-cache   # stats / --clear
    python -m repro.cli faults --drops 0,0.02,0.05 --workloads gups
    python -m repro.cli skew --exponents 0,0.6,1.2,1.8 --nodes 4
    python -m repro.cli agg --nodes 8 --watermarks 64,1024,8192
    python -m repro.cli interference --pairs gups:fft,bfs:scan
    python -m repro.cli interference --tenants gups,fft,scan
    python -m repro.cli verify --compare             # golden gate (CI)
    python -m repro.cli verify --record              # refresh goldens
    python -m repro.cli submit --exp fig4 --golden-config  # service job
    python -m repro.cli submit --spec-file spec.json  # ExperimentSpec
    python -m repro.cli watch --job JOB              # replay progress
    python -m repro.cli collect --job JOB --verify-golden
    python -m repro.cli list

The service subcommands (``submit``, ``status``, ``watch``,
``collect``) work on the state dir named by ``--state-dir``:
``submit`` runs the job to completion in-process, the others read what
it stored — see docs/service.md.

Each subcommand prints the figure's data as an aligned table (the same
rendering the benchmark harness emits).  ``--workers N`` fans
independent points across a process pool and ``--cache DIR`` memoises
finished points on disk; both leave the printed tables bit-identical
to a serial, uncached run (see docs/execution.md).

The experiment-shaped subcommands (``figures``, ``sweep``,
``scaleout``, ``verify``) are thin shells over :mod:`repro.api` — the
stable keyword-only facade; scripts should import that rather than
shelling out (see docs/api.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.core.cluster import ClusterSpec
from repro.core.report import Table


def _nodes_list(text: str) -> List[int]:
    return [int(x) for x in text.split(",") if x]


def _options(args) -> "RunOptions":
    """The :class:`repro.api.RunOptions` this invocation describes."""
    import repro.api as api
    return api.RunOptions(workers=args.workers, cache_dir=args.cache)


def _executor(args):
    """The Executor the run's subcommand routes through."""
    return _options(args).executor()


def cmd_fig3(args) -> Table:
    from repro.kernels import PINGPONG_MODES, run_pingpong
    spec = ClusterSpec(n_nodes=2, seed=args.seed)
    sizes = [1 << k for k in range(0, args.max_log2_words + 1)]
    t = Table("Fig. 3a: ping-pong bandwidth (GB/s)",
              ["words", *PINGPONG_MODES])
    for n in sizes:
        t.add_row(n, *(run_pingpong(spec, m, n,
                                    iters=args.iters)["bandwidth_gbs"]
                       for m in PINGPONG_MODES))
    return t


def cmd_fig4(args) -> Table:
    from repro.kernels import run_barrier_bench
    t = Table("Fig. 4: barrier latency (us)",
              ["nodes", "dv", "dv_fast", "mpi"])
    for n in args.nodes:
        spec = ClusterSpec(n_nodes=n, seed=args.seed)
        t.add_row(n, *(run_barrier_bench(spec, impl,
                                         iters=args.iters)["latency_us"]
                       for impl in ("dv", "dv_fast", "mpi")))
    return t


def cmd_fig5(args) -> Table:
    from repro.kernels import run_gups
    spec = ClusterSpec(n_nodes=min(args.nodes), trace=True,
                       seed=args.seed)
    r = run_gups(spec, "mpi", table_words=1 << 12, n_updates=1 << 12)
    print(r["tracer"].render_timeline(width=96))
    runs = r["tracer"].destination_runs()
    t = Table("Fig. 5: destination regularity", ["metric", "value"])
    t.add_row("messages", len(r["tracer"].messages))
    t.add_row("single-destination runs",
              sum(1 for x in runs if x == 1) / max(len(runs), 1))
    return t


def cmd_fig6(args) -> Table:
    from repro.kernels import run_gups
    t = Table("Fig. 6: GUPS (MUPS)",
              ["nodes", "dv/PE", "mpi/PE", "dv total", "mpi total"])
    for n in args.nodes:
        spec = ClusterSpec(n_nodes=n, seed=args.seed)
        dv = run_gups(spec, "dv", table_words=1 << 14,
                      n_updates=1 << 13)
        ib = run_gups(spec, "mpi", table_words=1 << 14,
                      n_updates=1 << 13)
        t.add_row(n, dv["mups_per_pe"], ib["mups_per_pe"],
                  dv["mups_total"], ib["mups_total"])
    return t


def cmd_fig7(args) -> Table:
    from repro.kernels import run_fft1d
    t = Table(f"Fig. 7: FFT-1D aggregate GFLOPS (2^{args.log2_points})",
              ["nodes", "dv", "mpi"])
    for n in args.nodes:
        spec = ClusterSpec(n_nodes=n, seed=args.seed)
        t.add_row(n,
                  run_fft1d(spec, "dv",
                            log2_points=args.log2_points)["gflops"],
                  run_fft1d(spec, "mpi",
                            log2_points=args.log2_points)["gflops"])
    return t


def cmd_fig8(args) -> Table:
    import math
    from repro.kernels import run_bfs
    t = Table("Fig. 8: Graph500 harmonic-mean MTEPS",
              ["nodes", "scale", "dv", "mpi"])
    for n in args.nodes:
        scale = args.scale + int(math.log2(n))
        spec = ClusterSpec(n_nodes=n, seed=args.seed)
        t.add_row(n, scale,
                  run_bfs(spec, "dv", scale=scale,
                          n_roots=args.roots)["harmonic_teps"] / 1e6,
                  run_bfs(spec, "mpi", scale=scale,
                          n_roots=args.roots)["harmonic_teps"] / 1e6)
    return t


def cmd_fig9(args) -> Table:
    from repro.apps import run_heat, run_snap, run_vorticity
    spec = ClusterSpec(n_nodes=max(args.nodes), seed=args.seed)
    t = Table(f"Fig. 9: DV speedup over MPI ({spec.n_nodes} nodes)",
              ["application", "speedup"])
    for name, fn, kw in (
        ("SNAP", run_snap,
         dict(nx=16, ny_per_rank=4, nz=16, n_angles=32, chunk=4)),
        ("Vorticity", run_vorticity, dict(n=256, steps=2)),
        ("Heat", run_heat, dict(n=48, steps=10)),
    ):
        times = {f: fn(spec, f, **kw)["elapsed_s"]
                 for f in ("mpi", "dv")}
        t.add_row(name, times["mpi"] / times["dv"])
    return t


def cmd_chase(args) -> Table:
    from repro.dv.remote import pointer_chase
    spec = ClusterSpec(n_nodes=max(args.nodes), seed=args.seed)
    t = Table(f"Pointer chase ({spec.n_nodes} nodes, {args.hops} hops)",
              ["fabric", "us/hop"])
    for fabric in ("dv", "verbs", "mpi"):
        r = pointer_chase(spec, fabric, hops=args.hops)
        t.add_row(fabric, r["latency_per_hop_us"])
    return t


def cmd_spmv(args) -> Table:
    from repro.kernels import run_spmv
    t = Table("SpMV power iteration (GFLOP/s)",
              ["nodes", "dv", "mpi"])
    for n in args.nodes:
        spec = ClusterSpec(n_nodes=n, seed=args.seed)
        t.add_row(n,
                  run_spmv(spec, "dv", scale=args.scale,
                           iters=5)["gflops"],
                  run_spmv(spec, "mpi", scale=args.scale,
                           iters=5)["gflops"])
    return t


def cmd_obs(args) -> str:
    """Unified observability report: one GUPS run per fabric plus a
    cycle-accurate switch-traffic sample, every layer's counters and
    histograms in one JSON (or CSV with ``--csv``) document."""
    from repro.obs.report import gups_report
    return gups_report(n_nodes=min(args.nodes), seed=args.seed,
                       fmt="csv" if args.csv else "json")


def cmd_scaling(args) -> Table:
    from repro.core.scaling import switch_scaling
    points = switch_scaling(executor=_executor(args))
    t = Table("SS IX scale-up study (cycle-accurate switch)",
              ["ports", "cylinders", "mean hops", "pkts/cycle/port"])
    for p in points:
        t.add_row(p.ports, p.cylinders, p.mean_hops,
                  p.throughput_per_port)
    return t


def cmd_sweep(args) -> Table:
    import repro.api as api
    params = {"fixed": {"seed": args.seed}}
    if args.nodes:
        params["axes"] = {"nodes": args.nodes}
    try:
        return api.run(spec=api.ExperimentSpec(
            exp_id=f"sweep:{args.name}", params=params),
            options=_options(args))
    except KeyError as err:
        print(f"sweep: {err.args[0]}", file=sys.stderr)
        raise SystemExit(2)


def cmd_figures(args):
    import repro.api as api
    from repro.core.experiments import REGISTRY
    figs = args.figs or sorted(
        e for e, x in REGISTRY.items()
        if x.runner is not None and e != "fig_scaleout")
    tables = api.run_figures(exp_ids=figs, options=_options(args),
                             seed=args.seed)
    return list(tables.values())


def cmd_scaleout(args) -> Table:
    """The 64-1024-node cluster projection (fig_scaleout): GUPS, BFS
    and FFT on both fabrics over the flow engines.  The
    full five-doubling grid takes tens of minutes serial — pass
    ``--workers``/``--cache``, or trim ``--nodes``/``--workloads``."""
    import repro.api as api
    return api.run(spec=api.ExperimentSpec(
        exp_id="fig_scaleout",
        params=dict(workloads=tuple(args.workloads),
                    nodes=tuple(args.nodes),
                    fabrics=tuple(args.fabrics),
                    seed=args.seed),
        shards=args.shards), options=_options(args))


def cmd_bench(args):
    """The measured-performance trajectory from BENCH_exec.json: one row
    per recorded benchmark with its baseline and best wall-clock
    seconds and the speedup ratio.  The file is maintained by the perf
    PRs (see benchmarks/test_perf_regression.py, which guards these
    floors nightly)."""
    import json
    from pathlib import Path
    path = Path(args.bench_file)
    if not path.exists():
        print(f"bench: no {path} here (run from the repo root, or pass "
              f"--bench-file)", file=sys.stderr)
        return 2
    data = json.loads(path.read_text())
    base_keys = ("reference_seconds", "serial_seconds", "cold_seconds",
                 "pre_pr2_seconds")
    best_keys = ("fast_seconds", "sharded_seconds", "parallel_seconds",
                 "warm_seconds", "post_pr2_seconds")
    t = Table(f"Execution-performance trajectory ({path})",
              ["benchmark", "baseline_s", "best_s", "ratio", "date"])
    for name, entry in data.items():
        if name == "meta" or not isinstance(entry, dict):
            continue
        base = next((entry[k] for k in base_keys if k in entry), None)
        best = next((entry[k] for k in best_keys if k in entry), None)
        if base is None:
            base = next((v for k, v in entry.items()
                         if k.endswith("seconds")
                         and isinstance(v, (int, float))), None)
        ratio = entry.get("speedup")
        if ratio is None and base and best:
            ratio = round(base / best, 2)
        t.add_row(name,
                  "-" if base is None else base,
                  "-" if best is None else best,
                  "-" if ratio is None else ratio,
                  entry.get("date", "-"))
    return t


def cmd_faults(args) -> Table:
    """Degradation sweep: GUPS/BFS throughput vs. packet-drop rate on
    both fabrics (DV through the reliable transport, IB through the
    HCA's invisible retries).  See docs/faults.md."""
    from repro.faults.experiments import degradation_table
    return degradation_table(_executor(args),
                             workloads=args.workloads,
                             drops=args.drops,
                             nodes=min(args.nodes), seed=args.seed)


def cmd_skew(args) -> Table:
    """Skewed-traffic sweep (fig_skew): GUPS on both fabrics as the
    destination distribution tightens from uniform through Zipf
    exponents to a hot-set extreme.  See docs/traffic.md."""
    import repro.api as api
    params = dict(nodes=min(args.nodes), seed=args.seed)
    if args.exponents is not None:
        params["exponents"] = tuple(args.exponents)
    return api.run(spec=api.ExperimentSpec(exp_id="fig_skew",
                                           params=params),
                   options=_options(args))


def cmd_agg(args) -> Table:
    """Aggregation crossover sweep (fig_agg): GUPS with the repro.agg
    destination-coalescing runtime swept across watermarks on IB,
    un-aggregated DV/IB baselines per skew level.  See
    docs/aggregation.md."""
    import repro.api as api
    params = dict(nodes=min(args.nodes), seed=args.seed,
                  routing=args.routing)
    if args.exponents is not None:
        params["exponents"] = tuple(args.exponents)
    if args.watermarks is not None:
        params["watermarks"] = tuple(args.watermarks)
    return api.run(spec=api.ExperimentSpec(exp_id="fig_agg",
                                           params=params),
                   options=_options(args))


def _pairs_list(text: str):
    """``victim:aggressor,victim:aggressor`` → ordered pair tuples."""
    pairs = []
    for chunk in (c for c in text.split(",") if c):
        v, sep, a = chunk.partition(":")
        if not sep or not v or not a:
            raise argparse.ArgumentTypeError(
                f"pair {chunk!r} must be victim:aggressor")
        pairs.append((v, a))
    return pairs


def cmd_interference(args) -> Table:
    """Interference matrix (fig_interference): each (victim,
    aggressor) workload pair co-scheduled on one partitioned cluster,
    slowdown = co-scheduled elapsed over solo elapsed, per fabric.
    ``--tenants w1,w2,...`` expands to every ordered pair; ``--pairs``
    names them directly.  See docs/tenancy.md."""
    import repro.api as api
    params = dict(seed=args.seed, fabrics=tuple(args.fabrics),
                  nodes_per_tenant=args.tenant_nodes)
    if args.pairs is not None:
        params["pairs"] = tuple(args.pairs)
    spec = api.ExperimentSpec(exp_id="fig_interference", params=params,
                              tenants=tuple(args.tenants or ()))
    return api.run(spec=spec, options=_options(args))


def cmd_verify(args) -> int:
    """Golden-results gate: record or compare figure snapshots, run the
    six-axis determinism harness, and track flow-vs-cycle calibration
    drift.  See docs/ci.md for the workflow."""
    import repro.api as api
    from repro.golden import (AXES, GOLDEN_CONFIGS, append_record,
                              drift_record, load_series)
    if args.record and args.compare:
        print("verify: --record and --compare are mutually exclusive",
              file=sys.stderr)
        return 2
    figs = args.figs or sorted(GOLDEN_CONFIGS)
    unknown = [f for f in figs if f not in GOLDEN_CONFIGS]
    if unknown:
        print(f"verify: no golden config for {', '.join(unknown)}; "
              f"known: {', '.join(sorted(GOLDEN_CONFIGS))}",
              file=sys.stderr)
        return 2
    options = _options(args)

    if args.record:
        verdict = api.verify_goldens(mode="record", figs=figs,
                                     goldens_dir=args.goldens,
                                     options=options)
        for fig, path in sorted(verdict.recorded.items()):
            print(f"recorded {fig}: {path}")
        drift_path = append_record(args.goldens, drift_record())
        print(f"appended drift record: {drift_path} "
              f"({len(load_series(args.goldens))} entries)")
        return 0

    axes = [] if args.axes == ["none"] else \
        (list(AXES) if args.axes in (None, ["all"]) else args.axes)
    bad_axes = [a for a in axes if a not in AXES]
    if bad_axes:
        print(f"verify: unknown axes {', '.join(bad_axes)}; "
              f"known: {', '.join(AXES)} (or 'none')", file=sys.stderr)
        return 2
    verdict = api.verify_goldens(mode="compare", figs=figs,
                                 goldens_dir=args.goldens, axes=axes,
                                 options=options)
    failed = not verdict.ok
    print(f"== golden compare ({args.goldens}) ==")
    for report in verdict.reports:
        print(report.describe())
    if axes:
        print(f"== determinism harness (axes: {', '.join(axes)}) ==")
        for report in verdict.axis_reports:
            print(report.describe())

    series = load_series(args.goldens)
    if series:
        from repro.golden import measure_scenarios
        last = series[-1]["scenarios"]
        print("== calibration drift (flow vs cycle, rel_err) ==")
        for name, cur in measure_scenarios().items():
            prev = last.get(name, {}).get("rel_err")
            delta = ("" if prev is None else
                     f"  (recorded {prev:+.4f}, "
                     f"moved {cur['rel_err'] - prev:+.2e})")
            print(f"{name}: {cur['rel_err']:+.4f}{delta}")

    print("verify: FAILED" if failed else "verify: ok")
    return 1 if failed else 0


def _service(args):
    """The experiment service on --state-dir (docs/service.md)."""
    from repro.service import ExperimentService
    return ExperimentService(args.state_dir, goldens_dir=args.goldens)


def cmd_submit(args) -> int:
    """Submit one experiment; prints the job id (and nothing else, so
    shells can capture it).  --spec-file takes an ExperimentSpec JSON
    document (see docs/api.md); otherwise --exp names the experiment,
    --golden-config merges the figure's pinned golden params, and
    --params adds/overrides JSON keyword arguments for the experiment
    runner."""
    import json
    import repro.api as api
    from repro.service import ServiceError
    if args.spec_file:
        if args.exp or args.params or args.golden_config:
            print("submit: --spec-file already carries the experiment; "
                  "drop --exp/--params/--golden-config", file=sys.stderr)
            return 2
        with open(args.spec_file, encoding="utf-8") as fh:
            data = json.load(fh)
        try:
            spec = api.spec_from_dict(data=data)
        except (TypeError, ValueError) as err:
            print(f"submit: bad spec file: {err}", file=sys.stderr)
            return 2
    else:
        if not args.exp:
            print("submit: pass --exp EXPERIMENT_ID or --spec-file "
                  "SPEC.json", file=sys.stderr)
            return 2
        params = {}
        if args.golden_config:
            from repro.golden import GOLDEN_CONFIGS
            if args.exp not in GOLDEN_CONFIGS:
                print(f"submit: no golden config for {args.exp!r}; "
                      f"known: {', '.join(sorted(GOLDEN_CONFIGS))}",
                      file=sys.stderr)
                return 2
            params.update(GOLDEN_CONFIGS[args.exp])
        if args.params:
            params.update(json.loads(args.params))
        spec = api.ExperimentSpec(exp_id=args.exp, params=params)
    try:
        job = api.submit(spec=spec, state_dir=args.state_dir,
                         goldens_dir=args.goldens)
    except (ServiceError, ValueError, KeyError) as err:
        print(f"submit: {err}", file=sys.stderr)
        return 1
    print(job["job_id"])
    return 0


def cmd_status(args) -> int:
    """Print a submitted job's status mapping as JSON."""
    import json
    from repro.service import ServiceError
    if not args.job:
        print("status: pass --job JOB_ID", file=sys.stderr)
        return 2
    try:
        status = _service(args).status(args.job)
    except ServiceError as err:
        print(f"status: {err}", file=sys.stderr)
        return 1
    print(json.dumps(status, indent=2, sort_keys=True))
    return 0


def cmd_watch(args) -> int:
    """Print a job's progress events (one JSON line each), replaying
    from --from-seq."""
    import json
    from repro.service import ServiceError
    if not args.job:
        print("watch: pass --job JOB_ID", file=sys.stderr)
        return 2
    try:
        for event in _service(args).watch(args.job,
                                          from_seq=args.from_seq):
            print(json.dumps(event, sort_keys=True), flush=True)
    except ServiceError as err:
        print(f"watch: {err}", file=sys.stderr)
        return 1
    return 0


def cmd_collect(args) -> int:
    """Fetch a finished job's result from the store.  --out writes the
    full record JSON; --verify-golden additionally demands the result
    was golden-gated and published (exit 1 on divergence)."""
    import json
    from repro.service import ServiceError
    if not args.job:
        print("collect: pass --job JOB_ID", file=sys.stderr)
        return 2
    try:
        record = _service(args).collect(args.job)
    except ServiceError as err:
        print(f"collect: {err}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.verify_golden:
        golden = record.get("golden", {})
        if not (record.get("published") and golden.get("checked")
                and golden.get("ok")):
            print("collect: golden verification FAILED "
                  f"(checked={golden.get('checked')}, "
                  f"published={record.get('published')})",
                  file=sys.stderr)
            for diff in golden.get("diffs", []):
                print(f"  {diff}", file=sys.stderr)
            return 1
        print(f"collect: published, matches committed golden "
              f"({record['exp_id']})")
    table = Table.from_dict(record["table"])
    print(table.to_csv() if args.csv else table.render())
    return 0


def cmd_cache(args):
    from repro.exec import ResultCache
    if not args.cache:
        print("cache: pass --cache DIR", file=sys.stderr)
        raise SystemExit(2)
    cache = ResultCache(args.cache)
    if args.clear:
        removed = cache.invalidate()
        print(f"cleared {removed} cache entries from {cache.root}")
        return ""
    import json
    return json.dumps(cache.stats(), indent=2)


COMMANDS = {
    "fig3": cmd_fig3,
    "fig4": cmd_fig4,
    "fig5": cmd_fig5,
    "fig6": cmd_fig6,
    "fig7": cmd_fig7,
    "fig8": cmd_fig8,
    "fig9": cmd_fig9,
    "chase": cmd_chase,
    "spmv": cmd_spmv,
    "scaling": cmd_scaling,
    "scaleout": cmd_scaleout,
    "bench": cmd_bench,
    "sweep": cmd_sweep,
    "figures": cmd_figures,
    "cache": cmd_cache,
    "obs": cmd_obs,
    "faults": cmd_faults,
    "skew": cmd_skew,
    "agg": cmd_agg,
    "interference": cmd_interference,
    "verify": cmd_verify,
    "submit": cmd_submit,
    "status": cmd_status,
    "watch": cmd_watch,
    "collect": cmd_collect,
}


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__
    p = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures from 'Exploring DataVortex "
                    "Systems for Irregular Applications'")
    p.add_argument("--version", action="version",
                   version=f"repro {__version__}")
    p.add_argument("command", choices=[*COMMANDS, "list"],
                   help="figure to regenerate (or 'list')")
    p.add_argument("--nodes", type=_nodes_list, default=None,
                   help="comma-separated node counts (default 4,8,16,32; "
                        "scaleout: 64,128,256)")
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument("--iters", type=int, default=8,
                   help="iterations for micro-benchmarks")
    p.add_argument("--max-log2-words", type=int, default=18,
                   help="fig3: largest message (log2 words)")
    p.add_argument("--log2-points", type=int, default=18,
                   help="fig7: FFT size (log2 points)")
    p.add_argument("--scale", type=int, default=11,
                   help="fig8: base graph scale")
    p.add_argument("--roots", type=int, default=3,
                   help="fig8: BFS roots")
    p.add_argument("--hops", type=int, default=256,
                   help="chase: pointer-chase length")
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool width for independent points "
                        "(default 1 = serial; output is identical)")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="on-disk result cache directory (re-runs "
                        "recompute only missing points)")
    p.add_argument("--name", default="gups",
                   help="sweep: which named sweep to run")
    p.add_argument("--figs", type=lambda s: [x for x in s.split(",") if x],
                   default=None,
                   help="figures: comma-separated experiment ids "
                        "(default: all runnable)")
    p.add_argument("--drops",
                   type=lambda s: [float(x) for x in s.split(",") if x],
                   default=[0.0, 0.01, 0.02, 0.05, 0.1],
                   help="faults: comma-separated packet-drop "
                        "probabilities")
    p.add_argument("--workloads",
                   type=lambda s: [x for x in s.split(",") if x],
                   default=None,
                   help="comma-separated workloads (faults: gups,bfs; "
                        "scaleout: gups,bfs,fft)")
    p.add_argument("--fabrics",
                   type=lambda s: [x for x in s.split(",") if x],
                   default=["dv", "mpi"],
                   help="scaleout: comma-separated fabrics "
                        "(default dv,mpi)")
    p.add_argument("--shards", type=int, default=1,
                   help="scaleout: PDES shard count — partitions each "
                        "point's simulation across OS processes, "
                        "bit-identical to serial (default 1)")
    p.add_argument("--bench-file", default="BENCH_exec.json",
                   metavar="FILE",
                   help="bench: performance-trajectory JSON to print")
    p.add_argument("--exponents",
                   type=lambda s: [float(x) for x in s.split(",") if x],
                   default=None,
                   help="skew: comma-separated Zipf exponents "
                        "(default 0,0.6,1.2,1.8; 0 = uniform)")
    p.add_argument("--watermarks",
                   type=lambda s: [int(x) for x in s.split(",") if x],
                   default=None,
                   help="agg: comma-separated aggregation watermarks "
                        "(default 64,1024,8192)")
    p.add_argument("--pairs", type=_pairs_list, default=None,
                   help="interference: comma-separated victim:aggressor "
                        "workload pairs (default: every irregular x "
                        "regular combination)")
    p.add_argument("--tenants",
                   type=lambda s: [x for x in s.split(",") if x],
                   default=None,
                   help="interference: comma-separated workloads "
                        "expanded to every ordered pair "
                        "(overrides --pairs)")
    p.add_argument("--tenant-nodes", type=int, default=4,
                   dest="tenant_nodes",
                   help="interference: ranks per tenant (cluster is "
                        "2x this; default 4)")
    p.add_argument("--spec-file", default=None, metavar="SPEC.json",
                   dest="spec_file",
                   help="submit: ExperimentSpec JSON document "
                        "(replaces --exp/--params)")
    p.add_argument("--routing", choices=["direct", "tree"],
                   default="direct",
                   help="agg: software routing for coalesced frames "
                        "(tree = Traff two-phase forwarding)")
    p.add_argument("--clear", action="store_true",
                   help="cache: delete all entries instead of printing "
                        "stats")
    p.add_argument("--record", action="store_true",
                   help="verify: record golden snapshots (and append a "
                        "calibration-drift record) instead of comparing")
    p.add_argument("--compare", action="store_true",
                   help="verify: compare against recorded goldens "
                        "(the default mode)")
    p.add_argument("--goldens", default="goldens", metavar="DIR",
                   help="verify: golden-snapshot directory "
                        "(default ./goldens)")
    p.add_argument("--axes",
                   type=lambda s: [x for x in s.split(",") if x],
                   default=None,
                   help="verify: determinism axes to check "
                        "(comma list of workers,cache,obs,faults; "
                        "'all' = every axis, 'none' = skip)")
    p.add_argument("--state-dir", default=".repro-service",
                   metavar="DIR", dest="state_dir",
                   help="service: state root (result cache, store, "
                        "event logs)")
    p.add_argument("--exp", default=None, metavar="ID",
                   help="submit: experiment id (see 'repro list' and "
                        "the registry)")
    p.add_argument("--params", default=None, metavar="JSON",
                   help="submit: runner params as a JSON object")
    p.add_argument("--golden-config", action="store_true",
                   dest="golden_config",
                   help="submit: start from the figure's pinned "
                        "golden-config params")
    p.add_argument("--job", default=None, metavar="JOB_ID",
                   help="status/watch/collect: the job to query")
    p.add_argument("--from-seq", type=int, default=0, dest="from_seq",
                   help="watch: replay events after this sequence "
                        "number")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="collect: also write the full result record "
                        "JSON here")
    p.add_argument("--verify-golden", action="store_true",
                   dest="verify_golden",
                   help="collect: exit 1 unless the result was "
                        "golden-gated and published")
    p.add_argument("--csv", action="store_true",
                   help="emit CSV instead of an aligned table")
    p.add_argument("--plot", action="store_true",
                   help="also render an ASCII chart of the table")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.nodes is None:
        args.nodes = ([64, 128, 256] if args.command == "scaleout"
                      else [4, 8, 16, 32])
    if args.workloads is None:
        args.workloads = (["gups", "bfs", "fft"]
                          if args.command == "scaleout"
                          else ["gups", "bfs"])
    if args.command == "list":
        for name in COMMANDS:
            print(name)
        return 0
    result = COMMANDS[args.command](args)
    if isinstance(result, int):   # e.g. 'verify' returns an exit code
        return result
    if isinstance(result, str):   # e.g. 'obs' emits a report document
        if result:
            print(result)
        return 0
    tables = result if isinstance(result, list) else [result]
    for i, table in enumerate(tables):
        if i:
            print()
        print(table.to_csv() if args.csv else table.render())
        if args.plot:
            from repro.core.asciiplot import plot_table
            x_col = table.columns[0]
            try:
                print()
                print(plot_table(table, x_col,
                                 logx=x_col in ("words", "nodes")))
            except (TypeError, ValueError) as err:
                print(f"(not plottable: {err})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

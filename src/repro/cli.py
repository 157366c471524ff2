"""Command-line interface: run any registered experiment from a shell.

Usage::

    repro run fig4                                  # registry defaults
    repro run fig4 --params '{"nodes": [2, 4]}' --plot
    repro run fig4 --golden-config --csv            # the pinned golden
    repro run fig4 fig6a --workers 2                # several, pooled
    repro run fig_scaleout --params '{"nodes": [1024]}' --workers 2
    repro run --spec-file spec.json                 # ExperimentSpec JSON
    repro obs --nodes 4 --csv                       # metrics report
    repro bench                                     # perf trajectory
    repro cache --cache .repro-cache --clear
    repro verify --compare                          # golden gate (CI)
    repro list                                      # verbs and ids

``python -m repro.cli`` is the same program.

``run`` is the one way to run an experiment: its three spec flags
(``--params`` JSON, a figure's ``--golden-config``, or a whole
``--spec-file``) build an :class:`repro.api.ExperimentSpec`, which goes
to :func:`repro.api.run` (or :func:`repro.api.run_figures` for several
ids).  With no spec flag the runner's registry defaults apply, so
``repro run fig4`` prints exactly what ``api.run`` returns for
``ExperimentSpec("fig4")``.  ``--workers N`` fans independent points
across a process pool and ``--cache DIR`` memoises finished points on
disk; both leave the printed tables bit-identical to a serial, uncached
run (see docs/execution.md).  A ``--params`` key the runner (with
several ids: any of their runners) does not take is a usage error
(exit 2), raised before anything runs.

``verify`` is the one gate: it recomputes the pinned golden configs
and exits 1 on any divergence.  Each verb accepts only its own flags.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.report import Table


def _print_tables(tables, csv: bool = False, plot: bool = False) -> None:
    for i, table in enumerate(tables):
        if i:
            print()
        print(table.to_csv() if csv else table.render())
        if plot:
            from repro.core.asciiplot import plot_table
            x_col = table.columns[0]
            try:
                print()
                print(plot_table(table, x_col,
                                 logx=x_col in ("words", "nodes")))
            except (TypeError, ValueError) as err:
                print(f"(not plottable: {err})")


def _options(args) -> "RunOptions":
    import repro.api as api
    return api.RunOptions(workers=args.workers, cache_dir=args.cache)


def _spec(args, exp_id) -> "ExperimentSpec":
    """The :class:`repro.api.ExperimentSpec` the spec flags describe
    (usage errors exit 2 through the verb's parser)."""
    import repro.api as api
    if args.spec_file:
        if exp_id:
            args.parser.error("--spec-file already carries the "
                              "experiment; drop EXP_ID")
        try:
            with open(args.spec_file, encoding="utf-8") as fh:
                return api.spec_from_dict(data=json.load(fh))
        except (OSError, TypeError, ValueError) as err:
            args.parser.error(f"bad spec file: {err}")
    if not exp_id:
        args.parser.error("pass EXP_ID (positional; there is no --exp "
                          "flag) or --spec-file SPEC.json")
    params = args.params
    if args.golden_config:
        from repro.golden import GOLDEN_CONFIGS
        if exp_id not in GOLDEN_CONFIGS:
            args.parser.error(
                f"no golden config for {exp_id!r}; known: "
                f"{', '.join(sorted(GOLDEN_CONFIGS))}")
        params = GOLDEN_CONFIGS[exp_id]
    return api.ExperimentSpec(exp_id=exp_id, params=dict(params))


def cmd_run(args) -> int:
    """Run one experiment (``api.run``) or several (``api.run_figures``,
    each figure one pool point) and print the tables."""
    import repro.api as api
    try:
        if len(args.exp_ids) > 1:
            if args.golden_config or args.spec_file:
                args.parser.error("--golden-config and --spec-file take "
                                  "one EXP_ID")
            tables = list(api.run_figures(exp_ids=args.exp_ids,
                                          options=_options(args),
                                          **args.params).values())
        else:
            spec = _spec(args, args.exp_ids[0] if args.exp_ids else None)
            tables = [api.run(spec=spec, options=_options(args))]
    except (KeyError, ValueError) as err:
        print(f"run: {err.args[0]}", file=sys.stderr)
        return 2
    _print_tables(tables, args.csv, args.plot)
    return 0


def cmd_obs(args) -> int:
    """Unified observability report: one GUPS run per fabric plus a
    cycle-accurate switch-traffic sample, every layer's counters and
    histograms in one JSON (or CSV with ``--csv``) document."""
    from repro.obs.report import gups_report
    print(gups_report(n_nodes=args.nodes, seed=args.seed,
                      fmt="csv" if args.csv else "json"))
    return 0


def cmd_bench(args) -> int:
    """The measured-performance trajectory from BENCH_exec.json: one row
    per recorded benchmark with its baseline and best wall-clock
    seconds and the speedup ratio.  The file is maintained by the perf
    PRs (see benchmarks/test_perf_regression.py, which guards these
    floors nightly).  Sections in the shared schema carry
    ``wall_s.parent_median``/``change_median``; older sections name
    their seconds ad hoc."""
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
        wall = entry.get("wall_s")
        if isinstance(wall, dict):
            base = wall.get("parent_median")
            best = wall.get("change_median")
        else:
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
    _print_tables([t], args.csv)
    return 0


def cmd_cache(args) -> int:
    """Print the result cache's stats as JSON, or ``--clear`` it."""
    from repro.exec import ResultCache
    cache = ResultCache(args.cache)
    if args.clear:
        removed = cache.invalidate()
        print(f"cleared {removed} cache entries from {cache.root}")
    else:
        print(json.dumps(cache.stats(), indent=2))
    return 0


def cmd_list(args) -> int:
    """The verbs, then every id ``repro run`` accepts."""
    from repro.core.experiments import REGISTRY
    print("commands: " + " ".join(COMMANDS))
    print("experiments (repro run EXP_ID):")
    for exp_id, exp in sorted(REGISTRY.items()):
        note = "" if exp.runner else f" (no table runner; {exp.bench})"
        print(f"  {exp_id:<20}{exp.title}{note}")
    return 0


def cmd_verify(args) -> int:
    """Golden-results gate: record or compare figure snapshots, run the
    seven-axis determinism harness, and track flow-vs-cycle calibration
    drift.  See docs/ci.md for the workflow."""
    import repro.api as api
    from repro.golden import append_record, drift_record, load_series
    options = _options(args)
    if args.record:
        verdict = api.verify_goldens(mode="record", figs=args.figs,
                                     goldens_dir=args.goldens,
                                     options=options)
        for fig, path in sorted(verdict.recorded.items()):
            print(f"recorded {fig}: {path}")
        drift_path = append_record(args.goldens, drift_record())
        print(f"appended drift record: {drift_path} "
              f"({len(load_series(args.goldens))} entries)")
        return 0

    axes = args.axes
    verdict = api.verify_goldens(mode="compare", figs=args.figs,
                                 goldens_dir=args.goldens, axes=axes,
                                 options=options)
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

    print("verify: ok" if verdict.ok else "verify: FAILED")
    return 0 if verdict.ok else 1


COMMANDS = {
    "run": cmd_run,
    "obs": cmd_obs,
    "bench": cmd_bench,
    "cache": cmd_cache,
    "list": cmd_list,
    "verify": cmd_verify,
}


# --------------------------------------------------- argument types ---

def _json_object(text: str) -> dict:
    try:
        value = json.loads(text)
    except json.JSONDecodeError as err:
        raise argparse.ArgumentTypeError(f"not JSON: {err}")
    if not isinstance(value, dict):
        raise argparse.ArgumentTypeError("must be a JSON object")
    return value


def _golden_figs(text: str) -> list:
    from repro.golden import GOLDEN_CONFIGS
    figs = [x for x in text.split(",") if x]
    unknown = [f for f in figs if f not in GOLDEN_CONFIGS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"no golden config for {', '.join(unknown)}; known: "
            f"{', '.join(sorted(GOLDEN_CONFIGS))}")
    return figs


def _axes(text: str) -> list:
    from repro.golden import AXES
    names = [x for x in text.split(",") if x]
    if names == ["all"]:
        return list(AXES)
    if names == ["none"]:
        return []
    unknown = [a for a in names if a not in AXES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown axes {', '.join(unknown)}; known: "
            f"{', '.join(AXES)} (or 'all' / 'none')")
    return names


# ----------------------------------------------------------- parser ---

def _spec_flags(p) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--params", type=_json_object, default={},
                   metavar="JSON",
                   help="runner keyword arguments as a JSON object "
                        "(default: the registry runner's defaults)")
    g.add_argument("--golden-config", action="store_true",
                   help="the figure's pinned golden-config params")
    g.add_argument("--spec-file", metavar="SPEC.json",
                   help="a whole ExperimentSpec JSON document "
                        "(carries its own experiment id)")


def _exec_flags(p) -> None:
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool width for independent points "
                        "(default 1 = serial; output is identical)")
    p.add_argument("--cache", metavar="DIR",
                   help="on-disk result cache directory (re-runs "
                        "recompute only missing points)")


def _csv_flag(p) -> None:
    p.add_argument("--csv", action="store_true",
                   help="emit CSV instead of an aligned table")


def _goldens_flag(p) -> None:
    p.add_argument("--goldens", default="goldens", metavar="DIR",
                   help="golden-snapshot directory (default ./goldens)")


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__
    from repro.golden import AXES
    p = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures from 'Exploring DataVortex "
                    "Systems for Irregular Applications'")
    p.add_argument("--version", action="version",
                   version=f"repro {__version__}")
    verbs = p.add_subparsers(dest="command", required=True,
                             metavar="COMMAND")

    def verb(name, help, *flag_groups):
        sub = verbs.add_parser(name, help=help)
        sub.set_defaults(func=COMMANDS[name], parser=sub)
        for add in flag_groups:
            add(sub)
        return sub

    run = verb("run", "run registered experiments and print their "
               "tables", _spec_flags, _exec_flags, _csv_flag)
    run.add_argument("exp_ids", nargs="*", metavar="EXP_ID",
                     help="registry id (see 'repro list'); several "
                          "ids share --params")
    run.add_argument("--plot", action="store_true",
                     help="also render an ASCII chart of each table")

    obs = verb("obs", "whole-stack metrics report (JSON or CSV)",
               _csv_flag)
    obs.add_argument("--nodes", type=int, default=4,
                     help="cluster size (default 4)")
    obs.add_argument("--seed", type=int, default=2017)

    bench = verb("bench", "print the measured-performance trajectory",
                 _csv_flag)
    bench.add_argument("--bench-file", default="BENCH_exec.json",
                       metavar="FILE",
                       help="performance-trajectory JSON to print")

    cache = verb("cache", "result-cache stats, or --clear it")
    cache.add_argument("--cache", required=True, metavar="DIR",
                       help="the result cache directory")
    cache.add_argument("--clear", action="store_true",
                       help="delete all entries instead of printing "
                            "stats")

    verb("list", "list the verbs and every experiment id")

    verify = verb("verify", "golden gate: compare or --record snapshots",
                  _exec_flags, _goldens_flag)
    mode = verify.add_mutually_exclusive_group()
    mode.add_argument("--record", action="store_true",
                      help="record golden snapshots (and append a "
                           "calibration-drift record) instead of "
                           "comparing")
    mode.add_argument("--compare", action="store_true",
                      help="compare against recorded goldens (the "
                           "default mode)")
    verify.add_argument("--figs", type=_golden_figs,
                        help="comma-separated golden figures "
                             "(default: all)")
    verify.add_argument("--axes", type=_axes, default=list(AXES),
                        help=f"determinism axes to check (comma list "
                             f"of {','.join(AXES)}; 'all' = every "
                             f"axis, the default; 'none' = skip)")

    return p


def main(argv=None) -> int:
    """Run one command line and return its exit status; usage errors
    return 2 (``--help`` and ``--version`` still exit directly)."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        if not exc.code:
            raise
        return exc.code


if __name__ == "__main__":
    sys.exit(main())

"""Every CLI verb runs end-to-end with tiny params and exits 0.

The per-command tests elsewhere check *content*; this module is the
breadth gate: every id ``repro run`` accepts (each registry experiment
with a runner) must run at its smallest sensible
configuration and exit 0, and ``--golden-config`` must reproduce the
committed goldens.  Rides in tier-1 CI.
"""

import json
import os

import pytest

from repro import __version__, cli
from repro.core.experiments import REGISTRY
from repro.core.report import Table
from repro.golden import AXES, GOLDEN_CONFIGS, GoldenStore

REPO_GOLDENS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "goldens")

#: Every id ``repro run`` can execute.
RUNNABLE = sorted(e for e, x in REGISTRY.items() if x.runner is not None)

TINY = {
    "fig3a": {"sizes": [1, 8]},
    "fig3b": {"sizes": [1]},
    "fig4": {"nodes": [2]},
    "fig6a": {"nodes": [2]},
    "fig6b": {"nodes": [2]},
    "fig7": {"nodes": [2]},
    "fig8": {"nodes": [2]},
    "fig9": {"n_nodes": 2},
    "fig_scaleout": {"nodes": [64], "workloads": ["gups"]},
    "fig_skew": {"nodes": 2, "exponents": [0, 1.2]},
    "fig_agg": {"nodes": 2, "exponents": [0], "watermarks": [1, 64]},
    "fig_interference": {"pairs": [["gups", "fft"]],
                         "fabrics": ["mpi"]},
    "fig_faults": {"drops": [0, 0.02], "workloads": ["gups"],
                   "nodes": 2},
    "fig_switch_scaling": {"heights": [4, 8], "per_port": 8},
}


def test_smoke_table_covers_every_subcommand():
    """Every runnable registry id needs a tiny entry, so
    a new experiment cannot join the registry without a smoke run."""
    assert sorted(TINY) == RUNNABLE


@pytest.mark.parametrize("exp_id", RUNNABLE)
def test_subcommand_exits_zero(exp_id, capsys):
    assert cli.main(["run", exp_id,
                     "--params", json.dumps(TINY[exp_id])]) == 0
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("exp_id", RUNNABLE)
def test_run_without_params_uses_registry_defaults(exp_id, monkeypatch):
    """No spec flag means no params: the runner's own defaults apply,
    never a CLI-side default grid.  api.run is spied, so nothing
    simulates."""
    import repro.api as api

    specs = []

    def spy(*, spec, options=None):
        specs.append(spec)
        return Table("spy", ["x"])

    monkeypatch.setattr(api, "run", spy)
    assert cli.main(["run", exp_id]) == 0
    assert [(s.exp_id, dict(s.params)) for s in specs] == [(exp_id, {})]


@pytest.mark.parametrize("fig", sorted(GOLDEN_CONFIGS))
def test_run_golden_config_prints_committed_golden(fig, capsys):
    assert cli.main(["run", fig, "--golden-config", "--csv"]) == 0
    golden, _entry = GoldenStore(REPO_GOLDENS).load(fig,
                                                    GOLDEN_CONFIGS[fig])
    assert golden is not None
    assert capsys.readouterr().out.strip() == golden.to_csv()


def test_run_several_ids_share_params(capsys):
    assert cli.main(["run", "fig4", "fig6a",
                     "--params", '{"nodes": [2]}']) == 0
    out = capsys.readouterr().out
    assert "fig4: barrier latency" in out and "fig6: GUPS" in out


def test_run_trace_figure_has_no_runner(capsys):
    assert cli.main(["run", "fig5"]) == 2
    err = capsys.readouterr().err
    assert "no table runner (see benchmarks/test_fig5_trace.py)" in err


def test_run_unknown_id_exits_two(capsys):
    assert cli.main(["run", "fig99"]) == 2
    assert "unknown experiment 'fig99'" in capsys.readouterr().err


def test_run_fig_scaleout_rejects_removed_shards_param(capsys):
    """The shard count is gone: passing it still fails loudly (``repro
    run`` exits 2 naming the key), never silently."""
    argv = ["run", "fig_scaleout", "--params", '{"shards": 2}']
    assert cli.main(argv) == 2
    assert "'shards'" in capsys.readouterr().err


def test_run_fig_scaleout_rejects_unknown_param(capsys):
    """An unknown override exits 2 with one line naming the key and the
    workload, checked before any point runs: no traceback from inside
    the executor."""
    argv = ["run", "fig_scaleout", "--params", '{"bogus": 1}']
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("run: ") and err.count("\n") == 1
    assert "'bogus'" in err and "'gups'" in err


def test_run_rejects_bad_params_json(capsys):
    assert cli.main(["run", "fig4", "--params", "[2, 4]"]) == 2
    assert "JSON object" in capsys.readouterr().err


def test_run_spec_file(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"exp_id": "fig4", "version": 4,
                                     "params": {"nodes": [2]}}))
    assert cli.main(["run", "--spec-file", str(spec_file),
                     "--csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["nodes,dv,dv_fast,mpi", lines[1]]
    assert lines[1].startswith("2,")


def test_run_requires_exp_id(capsys):
    assert cli.main(["run"]) == 2
    assert "--spec-file" in capsys.readouterr().err


def test_run_spec_file_conflicts_with_exp(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"exp_id": "fig4", "version": 4}))
    assert cli.main(["run", "fig4", "--spec-file", str(spec_file)]) == 2
    assert "--spec-file" in capsys.readouterr().err


def test_run_spec_file_rejects_bad_document(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(
        json.dumps({"exp_id": "fig4", "version": 4, "bogus_field": 1})
    )
    assert cli.main(["run", "--spec-file", str(spec_file)]) == 2
    assert "bad spec file" in capsys.readouterr().err


def test_run_rejects_unknown_golden_config(capsys):
    assert cli.main(["run", "fig_faults", "--golden-config"]) == 2
    assert "no golden config" in capsys.readouterr().err


def test_run_rejects_unknown_param(capsys):
    """A key the runner does not take exits 2 with one line naming it
    and the accepted keys: no traceback."""
    argv = ["run", "fig4", "--params", '{"bogus_param": 1}']
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("run: ") and err.count("\n") == 1
    assert "'bogus_param'" in err and "seed, nodes" in err
    # RunOptions owns the executor, even for runners that take one
    argv = ["run", "fig_skew", "--params", '{"executor": 1}']
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("run: ") and err.count("\n") == 1
    assert "'fig_skew' takes no param(s) 'executor'" in err
    # a runner's **kwargs is not a key: it names the keys its kernels take
    argv = ["run", "fig_scaleout", "--params", '{"executor": 1}']
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("run: ") and err.count("\n") == 1
    assert "it takes seed, nodes, workloads, fabrics;" in err
    assert "other keys go to its kernels" in err
    assert "overrides" not in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (
            ["fig4", "fig7", "--params", '{"nodes": [2], "bogus": 1}'],
            ("'fig4'", "'bogus'"),
        ),
        (
            ["fig4", "fig9", "--params", '{"nodes": [2]}'],
            ("'fig9'", "'nodes'"),
        ),
    ],
)
def test_run_several_ids_checks_every_key_first(argv, named, capsys):
    """Several ids share --params; a key any of their runners does not
    take exits 2 with one line naming that figure and the key."""
    assert cli.main(["run", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("run: ")
    assert captured.err.count("\n") == 1
    assert all(name in captured.err for name in named)


def test_interference_tenants_expand_to_ordered_pairs(capsys):
    params = '{"tenants": ["gups", "fft"], "fabrics": ["mpi"]}'
    assert cli.main(["run", "fig_interference", "--params", params,
                     "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("victim,aggressor")
    assert "mpi_slowdown" in lines[0]
    # both ordered pairs of the two tenants, no self-pairs
    pairs = {tuple(line.split(",")[:2]) for line in lines[1:]}
    assert pairs == {("gups", "fft"), ("fft", "gups")}


@pytest.mark.parametrize("argv", [
    ["verify", "--watermarks", "1"],
    ["run", "fig4", "--job", "x"],
    ["list", "--csv"],
])
def test_foreign_flag_exits_two(argv, capsys):
    """Each verb accepts only its own flags (the old parser took all 39
    on every command and ignored the ones it did not use)."""
    assert cli.main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["submit", "status", "watch", "collect"])
def test_removed_service_verb_exits_two(verb, capsys):
    """The experiment-service verbs are gone: `run` is the one run
    path and `verify` the one gate."""
    assert cli.main([verb, "fig4"]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_verify_axes_help_names_every_axis(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    assert ",".join(AXES) in " ".join(capsys.readouterr().out.split())


def test_obs_exits_zero(capsys):
    assert cli.main(["obs", "--nodes", "2"]) == 0
    assert json.loads(capsys.readouterr().out)


def test_bench_prints_performance_trajectory(tmp_path, capsys):
    bench = tmp_path / "BENCH_exec.json"
    bench.write_text(json.dumps({
        "meta": {"python": "3.x"},
        "flow_engine_ab_gups256": {
            "nodes": 256, "reference_seconds": 12.0,
            "fast_seconds": 3.0, "speedup": 4.0, "date": "2026-07-01"},
        "pdes_ab_gups4096": {
            "nodes": 4096, "serial_seconds": 100.0,
            "sharded_seconds": 25.0, "speedup": 4.0},
    }))
    assert cli.main(["bench", "--bench-file", str(bench)]) == 0
    out = capsys.readouterr().out
    assert "flow_engine_ab_gups256" in out
    assert "pdes_ab_gups4096" in out
    assert "4.0" in out  # the speedup column


def test_bench_missing_file_exits_two(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli.main(["bench", "--bench-file", str(missing)]) == 2
    assert "bench" in capsys.readouterr().err


def test_bench_reads_repo_bench_file(capsys):
    """The committed BENCH_exec.json renders without crashing."""
    assert cli.main(["bench"]) == 0
    assert "benchmark" in capsys.readouterr().out


@pytest.mark.parametrize(
    "section",
    [
        "mpi_hotpath_gups128",
        "mpi_requests_gups128",
        "dv_fanout_gups128",
        "fft_memory_2p22",
        "dv_fifo_hold_gups128",
        "dv_memory_chunks_gups128",
    ],
)
def test_bench_reads_shared_schema_sections(section, capsys):
    """Sections in the shared schema print their wall_s medians and
    ratio as numbers, not dashes."""
    bench_file = os.path.join(os.path.dirname(REPO_GOLDENS), "BENCH_exec.json")
    assert cli.main(["bench", "--bench-file", bench_file, "--csv"]) == 0
    rows = {
        line.split(",")[0]: line.split(",")[1:4]
        for line in capsys.readouterr().out.splitlines()
    }
    base, best, ratio = (float(v) for v in rows[section])
    with open(bench_file) as f:
        entry = json.load(f)[section]["wall_s"]
    assert base == pytest.approx(entry["parent_median"], abs=1e-3)
    assert best == pytest.approx(entry["change_median"], abs=1e-3)
    assert ratio == pytest.approx(base / best, abs=0.01)


def test_list_exits_zero(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("commands: run obs bench cache list verify\n")


def test_cache_subcommand_exits_zero(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert cli.main(["run", "fig4", "--params", '{"nodes": [2]}',
                     "--cache", cache]) == 0
    capsys.readouterr()
    assert cli.main(["cache", "--cache", cache]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] >= 0


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


# ------------------------------------------------------------- verify ---

def test_verify_record_then_compare_round_trip(tmp_path, capsys):
    goldens = str(tmp_path / "goldens")
    assert cli.main(["verify", "--record", "--figs", "fig4",
                     "--goldens", goldens]) == 0
    out = capsys.readouterr().out
    assert "recorded fig4" in out and "drift" in out
    assert cli.main(["verify", "--compare", "--figs", "fig4",
                     "--goldens", goldens, "--axes", "none"]) == 0
    out = capsys.readouterr().out
    assert "fig4: ok" in out and "verify: ok" in out
    assert "calibration drift" in out


def test_verify_compare_fails_on_perturbed_cell(tmp_path, capsys):
    """The acceptance-criteria path: one flipped table cell must fail
    the gate with a diff naming the figure, cell, and tolerance."""
    goldens = tmp_path / "goldens"
    assert cli.main(["verify", "--record", "--figs", "fig4",
                     "--goldens", str(goldens)]) == 0
    capsys.readouterr()
    (path,) = [p for p in goldens.iterdir()
               if p.name.startswith("fig4-")]
    entry = json.loads(path.read_text())
    entry["table"]["rows"][0][1] += 0.25        # dv at nodes=2
    path.write_text(json.dumps(entry))

    assert cli.main(["verify", "--compare", "--figs", "fig4",
                     "--goldens", str(goldens),
                     "--axes", "none"]) == 1
    out = capsys.readouterr().out
    assert "verify: FAILED" in out
    assert "fig4[row 0 (2), col 'dv']" in out
    assert "rel<=1e-06" in out


def test_verify_harness_axes_subset(tmp_path, capsys):
    goldens = str(tmp_path / "goldens")
    assert cli.main(["verify", "--record", "--figs", "fig4",
                     "--goldens", goldens]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "--figs", "fig4", "--goldens", goldens,
                     "--axes", "obs,faults"]) == 0
    out = capsys.readouterr().out
    assert "axis 'obs'" in out and "axis 'faults'" in out
    assert "axis 'workers'" not in out


def test_verify_missing_golden_fails(tmp_path, capsys):
    assert cli.main(["verify", "--figs", "fig4", "--axes", "none",
                     "--goldens", str(tmp_path / "empty")]) == 1
    assert "NO GOLDEN" in capsys.readouterr().out


def test_verify_rejects_unknown_fig(tmp_path, capsys):
    assert cli.main(["verify", "--figs", "fig999",
                     "--goldens", str(tmp_path)]) == 2


def test_verify_rejects_unknown_axis(tmp_path, capsys):
    goldens = str(tmp_path / "goldens")
    assert cli.main(["verify", "--record", "--figs", "fig4",
                     "--goldens", goldens]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "--figs", "fig4", "--goldens", goldens,
                     "--axes", "moon-phase"]) == 2
    capsys.readouterr()
    # api 6.0 removed the agg axis: aggregation is a ClusterSpec field
    assert cli.main(["verify", "--figs", "fig4", "--goldens", goldens,
                     "--axes", "agg"]) == 2
    assert ("unknown axes agg; known: workers, cache, obs, faults, "
            "tenancy" in capsys.readouterr().err)


def test_verify_record_and_compare_mutually_exclusive(tmp_path):
    assert cli.main(["verify", "--record", "--compare",
                     "--goldens", str(tmp_path)]) == 2

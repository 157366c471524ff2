"""Every CLI subcommand runs end-to-end with tiny params and exits 0.

The per-command tests elsewhere check *content*; this module is the
breadth gate: no subcommand may crash, hang, or return nonzero at its
smallest sensible configuration.  Rides in tier-1 CI.
"""

import json
import os

import pytest

from repro import __version__, cli

TINY = {
    "fig3": ["--max-log2-words", "3", "--iters", "1"],
    "fig4": ["--nodes", "2", "--iters", "1"],
    "fig5": ["--nodes", "2"],
    "fig6": ["--nodes", "2"],
    "fig7": ["--nodes", "2", "--log2-points", "10"],
    "fig8": ["--nodes", "2", "--scale", "7", "--roots", "1"],
    "fig9": ["--nodes", "2"],
    "chase": ["--nodes", "2", "--hops", "8"],
    "spmv": ["--nodes", "2", "--scale", "6"],
    "scaling": ["--workers", "2"],
    "scaleout": ["--nodes", "64", "--workloads", "gups"],
    "skew": ["--nodes", "2", "--exponents", "0,1.2"],
    "agg": ["--nodes", "2", "--exponents", "0", "--watermarks",
            "1,64"],
    "interference": ["--pairs", "gups:fft", "--fabrics", "mpi",
                     "--tenant-nodes", "4"],
    "sweep": ["--name", "barrier", "--nodes", "2"],
    "figures": ["--figs", "fig4"],
    "obs": ["--nodes", "2"],
    "faults": ["--drops", "0,0.02", "--workloads", "gups",
               "--nodes", "2"],
}


def test_smoke_table_covers_every_subcommand():
    """If a new subcommand appears it must get a smoke entry (bench,
    cache, verify and the service family have dedicated tests below;
    list is trivial)."""
    assert sorted(cli.COMMANDS) == sorted(
        [*TINY, "bench", "cache", "verify",
         "submit", "status", "watch", "collect"])


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


@pytest.mark.parametrize("command", sorted(TINY))
def test_subcommand_exits_zero(command, capsys):
    assert cli.main([command, *TINY[command]]) == 0
    assert capsys.readouterr().out.strip()


def test_list_exits_zero(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "verify" in out


def test_cache_subcommand_exits_zero(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert cli.main(["fig4", "--nodes", "2", "--iters", "1",
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


def test_verify_record_and_compare_mutually_exclusive(tmp_path):
    assert cli.main(["verify", "--record", "--compare",
                     "--goldens", str(tmp_path)]) == 2


# ------------------------------------------------------------ service ---
# `submit --state-dir` runs the job in-process and later subcommands
# read the persisted state dir, which is exactly how the nightly
# workflow drives it.  docs/service.md.

def _submit_tiny(tmp_path, capsys):
    state = str(tmp_path / "svc")
    assert cli.main([
        "submit", "--exp", "fig4",
        "--params", '{"seed": 1, "nodes": [2]}',
        "--state-dir", state,
    ]) == 0
    job_id = capsys.readouterr().out.strip()
    assert job_id  # bare id on stdout so shells can capture it
    return state, job_id


def test_submit_then_status_inline(tmp_path, capsys):
    state, job_id = _submit_tiny(tmp_path, capsys)
    assert cli.main(["status", "--job", job_id,
                     "--state-dir", state]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["state"] == "done"
    assert status["published"] is True


def test_watch_streams_event_lines_inline(tmp_path, capsys):
    state, job_id = _submit_tiny(tmp_path, capsys)
    assert cli.main(["watch", "--job", job_id,
                     "--state-dir", state]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    events = [json.loads(line) for line in lines]
    assert len(events) >= 3
    assert events[0]["kind"] == "queued"
    assert events[-1]["kind"] == "finished"


def test_collect_renders_table_inline(tmp_path, capsys):
    state, job_id = _submit_tiny(tmp_path, capsys)
    out_path = tmp_path / "record.json"
    assert cli.main(["collect", "--job", job_id, "--state-dir", state,
                     "--out", str(out_path)]) == 0
    assert "nodes" in capsys.readouterr().out
    record = json.loads(out_path.read_text())
    assert record["published"] is True
    assert job_id in record["job_ids"]


def test_pinned_figure_submit_watch_collect_verifies_golden(
    tmp_path, capsys
):
    """The service's end-to-end contract: submit fig4 at its pinned
    golden config, replay >= 3 events ending in "finished", and collect
    with --verify-golden, which exits 1 unless the stored result is
    published and matches the committed golden snapshot."""
    goldens = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "goldens",
    )
    state = str(tmp_path / "svc")
    common = ["--state-dir", state, "--goldens", goldens]
    assert cli.main(["submit", "--exp", "fig4", "--golden-config",
                     *common]) == 0
    job_id = capsys.readouterr().out.strip()
    assert cli.main(["watch", "--job", job_id, *common]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= 3
    assert json.loads(lines[-1])["kind"] == "finished"
    assert cli.main(["collect", "--job", job_id, "--verify-golden",
                     *common]) == 0
    assert "matches committed golden" in capsys.readouterr().out


def test_submit_requires_exp(capsys):
    assert cli.main(["submit"]) == 2
    assert "--exp" in capsys.readouterr().err


def test_interference_tenants_expand_to_ordered_pairs(capsys):
    assert cli.main(["interference", "--tenants", "gups,fft", "--csv",
                     "--fabrics", "mpi"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("victim,aggressor")
    assert "mpi_slowdown" in lines[0]
    # both ordered pairs of the two tenants, no self-pairs
    pairs = {tuple(line.split(",")[:2]) for line in lines[1:]}
    assert pairs == {("gups", "fft"), ("fft", "gups")}


def test_submit_spec_file_inline(tmp_path, capsys):
    """The spec wire format: an ExperimentSpec JSON document through
    `repro submit --spec-file`."""
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({
        "exp_id": "fig4", "version": 2,
        "params": {"seed": 1, "nodes": [2]},
    }))
    state = str(tmp_path / "svc")
    assert cli.main(["submit", "--spec-file", str(spec_file),
                     "--state-dir", state]) == 0
    job_id = capsys.readouterr().out.strip()
    assert job_id
    assert cli.main(["status", "--job", job_id,
                     "--state-dir", state]) == 0
    assert json.loads(capsys.readouterr().out)["state"] == "done"


def test_submit_spec_file_conflicts_with_exp(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"exp_id": "fig4", "version": 2}))
    assert cli.main(["submit", "--spec-file", str(spec_file),
                     "--exp", "fig4"]) == 2
    assert "--spec-file" in capsys.readouterr().err


def test_submit_spec_file_rejects_bad_document(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"exp_id": "fig4", "version": 2,
                                     "bogus_field": 1}))
    assert cli.main(["submit", "--spec-file", str(spec_file),
                     "--state-dir", str(tmp_path / "svc")]) == 2
    assert "bad spec file" in capsys.readouterr().err


def test_status_unknown_job_exits_one(tmp_path, capsys):
    assert cli.main(["status", "--job", "nope",
                     "--state-dir", str(tmp_path / "svc")]) == 1
    assert "unknown job" in capsys.readouterr().err


def test_submit_rejects_unknown_golden_config(tmp_path, capsys):
    assert cli.main(["submit", "--exp", "chase", "--golden-config",
                     "--state-dir", str(tmp_path / "svc")]) == 2
    assert "no golden config" in capsys.readouterr().err

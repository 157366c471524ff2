"""Tests for the scaling study, the sweep helper, and the CLI."""

import pytest

from repro.core.report import Table
from repro.core.scaling import (SwitchScalePoint, cluster_scaling,
                                switch_scaling, verify_scaling_claim)
from repro.core.sweep import Sweep
from repro import cli


# -------------------------------------------------------------- scaling ---

def test_switch_scaling_adds_one_cylinder_per_doubling():
    points = switch_scaling(heights=(4, 8, 16), per_port=32)
    assert [p.cylinders for p in points] == [3, 4, 5]
    assert [p.ports for p in points] == [8, 16, 32]


def test_switch_scaling_latency_grows_mildly():
    points = switch_scaling(heights=(8, 16, 32), per_port=64)
    hops = [p.mean_hops for p in points]
    assert hops == sorted(hops)
    # roughly +2..4 hops per doubling (one cylinder + deflections)
    for a, b in zip(hops, hops[1:]):
        assert 0.5 < b - a < 5.0


def test_verify_scaling_claim_accepts_good_data():
    points = switch_scaling(heights=(8, 16, 32), per_port=128)
    summary = verify_scaling_claim(points, throughput_tolerance=0.5)
    assert "throughput_spread" in summary


def test_verify_scaling_claim_rejects_throughput_collapse():
    fake = [
        SwitchScalePoint(16, 4, 10, 8, 1, 0.30, 100),
        SwitchScalePoint(32, 5, 12, 10, 2, 0.05, 100),
    ]
    with pytest.raises(AssertionError, match="throughput"):
        verify_scaling_claim(fake, throughput_tolerance=0.3)


def test_verify_scaling_claim_rejects_latency_blowup():
    fake = [
        SwitchScalePoint(16, 4, 10, 8, 1, 0.30, 100),
        SwitchScalePoint(32, 5, 40, 30, 2, 0.30, 100),
    ]
    with pytest.raises(AssertionError, match="latency"):
        verify_scaling_claim(fake)


def test_cluster_scaling_returns_all_sizes():
    rows = cluster_scaling(node_counts=(2, 4))
    assert set(rows) == {2, 4}
    for v in rows.values():
        assert v["barrier_us"] > 0
        assert v["gups_mups_per_pe"] > 0


# ---------------------------------------------------------------- sweep ---

def test_sweep_cartesian_points():
    sw = Sweep(runner=lambda **kw: {}, axes={"a": [1, 2], "b": [3, 4]},
               fixed={"c": 9})
    pts = sw.points()
    assert len(pts) == 4
    assert {"a": 1, "b": 3, "c": 9} in pts


def test_sweep_run_merges_params_and_results():
    sw = Sweep(runner=lambda a, k: {"double": 2 * a},
               axes={"a": [1, 5]}, fixed={"k": 0})
    rows = sw.run()
    assert rows == [{"a": 1, "double": 2}, {"a": 5, "double": 10}]


def test_sweep_table():
    sw = Sweep(runner=lambda a: {"sq": a * a}, axes={"a": [2, 3]})
    t = sw.table("squares", ["a", "sq"])
    assert isinstance(t, Table)
    assert t.column("sq") == [4, 9]


# ------------------------------------------------------------------ CLI ---

def test_cli_list(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("run", "fig3a", "fig4", "fig9", "fig_faults",
                 "fig_switch_scaling", "sweep:gups"):
        assert name in out


def test_cli_fig4_small(capsys):
    assert cli.main(["run", "fig4", "--params", '{"nodes": [2, 4]}']) == 0
    out = capsys.readouterr().out
    assert "barrier latency" in out
    assert "mpi" in out


def test_cli_csv_mode(capsys):
    assert cli.main(["run", "fig4", "--params", '{"nodes": [2]}',
                     "--csv"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("nodes,")


def test_cli_rejects_unknown_command(capsys):
    assert cli.main(["fig99"]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_plot_flag(capsys):
    assert cli.main(["run", "fig4", "--params", '{"nodes": [2, 4]}',
                     "--plot"]) == 0
    out = capsys.readouterr().out
    assert "o=dv" in out            # chart legend rendered


def test_cli_sweep_command(capsys):
    assert cli.main(["run", "sweep:barrier",
                     "--params", '{"axes": {"nodes": [2, 4]}}']) == 0
    out = capsys.readouterr().out
    assert "barrier latency" in out and "latency_us" in out


def test_cli_sweep_unknown_name_rejected(capsys):
    assert cli.main(["run", "sweep:nope"]) == 2
    assert "unknown sweep 'nope'" in capsys.readouterr().err


def test_cli_figures_selected(capsys):
    assert cli.main(["run", "fig4", "fig6a",
                     "--params", '{"nodes": [2]}']) == 0
    out = capsys.readouterr().out
    assert "fig4" in out and "fig6" in out


def test_cli_scaling_with_workers_and_cache(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert cli.main(["run", "fig_switch_scaling", "--workers", "2",
                     "--cache", cache]) == 0
    first = capsys.readouterr().out
    assert cli.main(["run", "fig_switch_scaling", "--cache", cache]) == 0
    second = capsys.readouterr().out
    assert second == first          # warm cache, identical table
    assert cli.main(["run", "fig_switch_scaling"]) == 0
    assert capsys.readouterr().out == first     # and equal to uncached


def test_cli_cache_stats_and_clear(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert cli.main(["run", "sweep:barrier",
                     "--params", '{"axes": {"nodes": [2]}}',
                     "--cache", cache]) == 0
    capsys.readouterr()
    assert cli.main(["cache", "--cache", cache]) == 0
    out = capsys.readouterr().out
    assert '"entries": 1' in out
    assert cli.main(["cache", "--cache", cache, "--clear"]) == 0
    out = capsys.readouterr().out
    assert "cleared 1" in out


def test_cli_cache_requires_dir(capsys):
    assert cli.main(["cache"]) == 2
    assert "--cache" in capsys.readouterr().err


def test_cli_plot_non_numeric_x_graceful(capsys):
    # fig9's x column is the application name: not plottable, but the
    # CLI must not crash
    assert cli.main(["run", "fig9", "--params", '{"n_nodes": 2}',
                     "--plot"]) == 0
    out = capsys.readouterr().out
    assert "not plottable" in out or "o=" in out

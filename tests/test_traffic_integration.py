"""Traffic models wired through the stack: kernels, switch, transport,
experiment registry, golden harness, API and CLI.

The invariants: shaped traffic must leave every correctness check
green (GUPS table XOR-validation, Graph500 parent-tree validation) on
both fabrics; obs counters must reconcile with the injected message
counts; routing under skew still cannot beat the graph-connectivity
bound; and the ``fig_skew`` experiment must be bit-identical along all
four determinism axes (workers / cache / obs / faults).
"""

import numpy as np
import pytest

import repro.api as api
from repro.core.cluster import ClusterSpec
from repro.kernels.bfs import run_bfs
from repro.kernels.gups import run_gups
from repro.kernels.kronecker import degrees, kronecker_edges
from repro.obs import registry as obsreg
from repro.sim.rng import rng_for
from repro.traffic import (Hotset, MMPP, Poisson, TrafficModel, Uniform,
                           Zipf, rank_degree_share, skewed_relabel)

SEED = 2017


def _spec(n=2, dist=None, **kw):
    traffic = None if dist is None else TrafficModel(dist=dist)
    return ClusterSpec(n_nodes=n, seed=SEED, traffic=traffic, **kw)


# ------------------------------------------------------------- spec hook ---

def test_spec_accepts_and_validates_traffic():
    spec = _spec(dist=Zipf(exponent=1.2))
    assert spec.traffic.dist == Zipf(exponent=1.2)
    assert ClusterSpec(n_nodes=2).traffic is None
    with pytest.raises(TypeError):
        ClusterSpec(n_nodes=2, traffic="zipf")


# ------------------------------------------------------------------- gups ---

@pytest.mark.parametrize("fabric", ["dv", "mpi"])
@pytest.mark.parametrize("dist", [Zipf(exponent=1.2),
                                  Hotset(hot_fraction=0.25,
                                         hot_mass=0.75)],
                         ids=lambda d: d.name)
def test_gups_valid_under_skewed_traffic(fabric, dist):
    r = run_gups(_spec(4, dist), fabric, table_words=1 << 9,
                 n_updates=1 << 7, window=64, validate=True)
    assert r["valid"]
    assert r["mups_total"] > 0


def test_gups_skew_actually_concentrates_destinations():
    """The shaped index stream must aim where the pmf says: under a
    steep Zipf, rank 0's table slice absorbs the majority of updates."""
    from repro.kernels.gups import _make_updates
    model = TrafficModel(dist=Zipf(exponent=1.8))
    tw, P = 1 << 9, 8
    owners = []
    for r in range(P):
        idx, _ = _make_updates(SEED, r, 4096, tw, P, model)
        owners.append(idx // tw)
    share = np.bincount(np.concatenate(owners), minlength=P) / (4096 * P)
    pmf = Zipf(exponent=1.8).pmf(P)
    assert share[0] > 0.4
    assert np.argmax(share) == 0
    assert np.allclose(share, pmf, atol=0.02)


def test_gups_legacy_path_untouched_without_traffic():
    """traffic=None must reproduce the exact historical stream (the
    committed goldens depend on it)."""
    from repro.kernels.gups import _make_updates
    idx_a, val_a = _make_updates(SEED, 1, 256, 1 << 9, 4)
    idx_b, val_b = _make_updates(SEED, 1, 256, 1 << 9, 4, None)
    assert np.array_equal(idx_a, idx_b)
    assert np.array_equal(val_a, val_b)
    rng = rng_for(SEED, "gups", 1)
    expect = rng.integers(0, 4 * (1 << 9), 256, dtype=np.int64)
    assert np.array_equal(idx_a, expect)


def test_gups_degrades_under_destination_skew():
    """The physics the sweep measures: concentrating destinations on a
    hot node serialises its ingress, so aggregate throughput drops on
    *both* fabrics as the Zipf exponent grows."""
    kw = dict(table_words=1 << 10, n_updates=1 << 8, window=128)
    mups = {}
    for dist in (Zipf(exponent=0.0), Zipf(exponent=1.8)):
        mups[dist.exponent] = {
            f: run_gups(_spec(4, dist), f, **kw)["mups_total"]
            for f in ("dv", "mpi")}
    assert mups[1.8]["dv"] < mups[0.0]["dv"]
    assert mups[1.8]["mpi"] < mups[0.0]["mpi"]


def test_obs_counters_reconcile_with_injected_updates():
    """updates_local + updates_remote must equal the exact number of
    updates generated under the shaped stream."""
    n_nodes, n_updates = 4, 1 << 8
    with obsreg.session() as reg:
        run_gups(_spec(n_nodes, Zipf(exponent=1.2)), "dv",
                 table_words=1 << 9, n_updates=n_updates, window=64)
        local = reg.total("kernels.gups.updates_local")
        remote = reg.total("kernels.gups.updates_remote")
    assert local + remote == n_nodes * n_updates
    # skew check on the live counters: the hot rank keeps most traffic
    assert remote > 0 and local > 0


# -------------------------------------------------------------------- bfs ---

@pytest.mark.parametrize("fabric", ["dv", "mpi"])
def test_bfs_valid_under_skewed_placement(fabric):
    r = run_bfs(_spec(2, Zipf(exponent=1.2)), fabric, scale=8,
                n_roots=2, validate=True)
    assert r["valid"]
    assert r["harmonic_teps"] > 0


def test_skewed_relabel_is_permutation_tracking_pmf():
    rng = rng_for(SEED, "graph500", 9)
    edges = kronecker_edges(9, 16, rng)
    n, ranks = 1 << 9, 8
    deg = degrees(edges, n)
    dist = Zipf(exponent=1.5)
    relabel = skewed_relabel(deg, ranks, dist)
    # a permutation: every new id hit exactly once
    assert np.array_equal(np.sort(relabel), np.arange(n))
    share = rank_degree_share(deg, relabel, ranks)
    pmf = dist.pmf(ranks)
    # block capacity caps the hot rank, so demand ordering, not
    # equality: hot ranks hold more degree, and rank 0 dominates
    assert np.argmax(share) == 0
    assert share[0] > 2.0 / ranks
    assert abs(share - pmf).sum() < abs(1.0 / ranks - pmf).sum()
    # uniform / single-rank short-circuit to identity
    assert np.array_equal(skewed_relabel(deg, ranks, Uniform()),
                          np.arange(n))
    assert np.array_equal(skewed_relabel(deg, 1, dist), np.arange(n))


def test_skewed_relabel_consumes_no_rng():
    """Installing a traffic model must not perturb any seeded stream:
    the BFS graph under traffic differs only by the relabelling."""
    rng_a = rng_for(SEED, "graph500", 8)
    edges_a = kronecker_edges(8, 16, rng_a)
    rng_b = rng_for(SEED, "graph500", 8)
    edges_b = kronecker_edges(8, 16, rng_b)
    relabel = skewed_relabel(degrees(edges_b, 1 << 8), 4,
                             Zipf(exponent=1.2))
    assert np.array_equal(relabel[edges_a], relabel[edges_b])
    # roots draw after the graph: same candidate stream either way
    assert np.array_equal(rng_a.integers(0, 100, 8),
                          rng_b.integers(0, 100, 8))


# -------------------------------------------------- switch and transport ---

def test_switch_driver_under_bursty_skew():
    from repro.dv.topology import DataVortexTopology
    from repro.dv.traffic import run_traffic_model
    topo = DataVortexTopology(height=4, angles=4)
    model = TrafficModel(dist=Zipf(exponent=1.2),
                         arrivals=MMPP(rate_on=0.4, mean_on=8.0,
                                       mean_off=8.0))
    a = run_traffic_model(topo, model, cycles=400, seed=3)
    b = run_traffic_model(topo, model, cycles=400, seed=3)
    assert a.offered == b.offered and a.latencies == b.latencies
    assert a.bursty and 0 < a.delivered <= a.offered
    with pytest.raises(ValueError):
        run_traffic_model(topo, TrafficModel(), cycles=100, seed=0)


def test_routing_cannot_beat_graph_bound_under_skew():
    """The reliability invariant survives destination skew: oblivious
    deflection routing delivers at most (up to MC noise) what graph
    connectivity toward the *hot* destinations allows."""
    import random
    from repro.dv.reliability import (routed_delivery_rate,
                                      terminal_reliability)
    from repro.dv.topology import DataVortexTopology
    topo = DataVortexTopology(height=4, angles=4)
    model = TrafficModel(dist=Zipf(exponent=1.5))
    p = 0.05
    prng = random.Random(11)
    pairs = [(prng.randrange(topo.ports), int(d)) for d in
             model.destinations(11, 8, topo.ports)]
    graph = terminal_reliability(topo, p, trials=150, pairs=pairs,
                                 seed=11)
    routed = routed_delivery_rate(topo, p, trials=40, seed=11,
                                  traffic=model)
    assert routed <= graph + 0.08


def test_routed_delivery_legacy_path_unchanged():
    from repro.dv.reliability import routed_delivery_rate
    from repro.dv.topology import DataVortexTopology
    topo = DataVortexTopology(height=4, angles=4)
    a = routed_delivery_rate(topo, 0.02, trials=10, seed=7)
    b = routed_delivery_rate(topo, 0.02, trials=10, seed=7,
                             traffic=None)
    assert a == b


# ------------------------------------------------- experiment and golden ---

def test_fig_skew_table_shape_and_trend():
    t = api.run(spec=api.ExperimentSpec(
        exp_id="fig_skew",
        params={"nodes": 2, "exponents": (0.0, 1.2),
                "table_words": 1 << 10, "n_updates": 1 << 8}))
    assert t.columns == ["traffic", "max_share", "dv_mups", "mpi_mups",
                         "dv_over_mpi"]
    assert len(t.rows) == 3          # two exponents + the hot set
    shares = [r[1] for r in t.rows]
    assert shares == sorted(shares)  # skew coordinate increases
    ratios = {r[0]: r[4] for r in t.rows}
    assert ratios["zipf(exponent=1.2)"] > ratios["zipf(exponent=0.0)"]


def test_fig_skew_registered_and_golden_configured():
    from repro.core.experiments import REGISTRY
    from repro.golden import GOLDEN_CONFIGS
    from repro.golden.policy import policy_for
    assert "fig_skew" in REGISTRY and REGISTRY["fig_skew"].runner
    assert "fig_skew" in GOLDEN_CONFIGS
    pol = policy_for("fig_skew")
    assert pol.for_column("traffic").exact
    assert not pol.for_column("dv_mups").exact


@pytest.mark.parametrize("axis", ["workers", "cache", "obs", "faults"])
def test_fig_skew_deterministic_along_axis(axis):
    """fig_skew must be bit-identical along all four determinism axes
    (the hard gate every golden figure passes)."""
    from repro.golden import check_axis
    report = check_axis("fig_skew", axis)
    assert report.ok, report.describe()


# ------------------------------------------------------------ api and cli ---

def test_api_surface():
    assert api.__api_version__ == "6.0.0"
    assert "build_traffic" in api.__all__
    model = api.build_traffic(dist="zipf",
                              dist_params={"exponent": 1.2},
                              arrivals="poisson",
                              arrival_params={"rate": 0.5})
    assert model.dist == Zipf(exponent=1.2)
    assert model.arrivals == Poisson(rate=0.5)
    spec = api.build_cluster(n_nodes=2, traffic=model)
    assert spec.traffic is model


def test_cli_skew_smoke(capsys):
    from repro.cli import main
    rc = main(["run", "fig_skew",
               "--params", '{"nodes": 2, "exponents": [0, 1.2]}'])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fig_skew" in out and "dv_over_mpi" in out

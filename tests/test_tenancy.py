"""Multi-tenant co-scheduling: specs, partitions, isolation, identity.

The contract under test (docs/tenancy.md):

* a solo full-width tenant is **byte-identical** to the legacy
  untenanted entry point for every workload on both fabrics;
* ``tenancy.shadow_session()`` routes ``run_spmd`` through the
  co-scheduler and must change nothing (the sixth golden axis);
* per-tenant ``tenant.net.*`` obs series reconcile exactly against the
  cluster-wide FlowStats / FabricStats totals;
* partition enforcement is real: rank, counter, and DV-memory
  references outside a tenant's window raise
  :class:`TenantIsolationError`;
* the scoped ``agg`` session globals are tenant-safe (the
  shared-state hazard this layer exposed).
"""

import numpy as np
import pytest

from repro import agg, tenancy
from repro.agg import AggSpec
from repro.core.cluster import ClusterSpec
from repro.dv.config import DVConfig
from repro.faults.plan import FaultPlan
from repro.tenancy import (TenancyError, TenantIsolationError,
                           TenantPartition, TenantSpec,
                           merge_fault_plans, resolve_partitions,
                           run_cotenants)
from repro.tenancy.spec import tenant_seed

SEED = 2017


# ----------------------------------------------------------- spec layer ---

def test_spec_requires_exactly_one_of_n_ranks_or_share():
    with pytest.raises(TenancyError, match="exactly one"):
        TenantSpec(tenant_id="a", workload="gups")
    with pytest.raises(TenancyError, match="exactly one"):
        TenantSpec(tenant_id="a", workload="gups", n_ranks=2, share=0.5)


def test_spec_rejects_unknown_workload():
    with pytest.raises(TenancyError, match="unknown workload"):
        TenantSpec(tenant_id="a", workload="lulesh", n_ranks=2)


@pytest.mark.parametrize("kw", [
    {"share": 0.0}, {"share": 1.5}, {"n_ranks": 0},
    {"n_ranks": 2, "counters": (5, 5)},
    {"n_ranks": 2, "dv_slots": (-1, 4)},
    {"n_ranks": 2, "ib_credits": 0},
])
def test_spec_rejects_bad_slices(kw):
    with pytest.raises(TenancyError):
        TenantSpec(tenant_id="a", workload="gups", **kw)


def test_partitions_are_contiguous_in_tenant_order():
    parts = resolve_partitions(
        [TenantSpec(tenant_id="a", workload="gups", n_ranks=3),
         TenantSpec(tenant_id="b", workload="fft", share=0.5)],
        8, DVConfig())
    assert [(p.base, p.n_ranks) for p in parts] == [(0, 3), (3, 4)]
    assert parts[0].owns_rank(2) and not parts[0].owns_rank(3)
    assert parts[1].owns_rank(3) and not parts[1].owns_rank(7 + 1)


def test_partitions_reject_duplicate_ids_and_overcommit():
    dup = [TenantSpec(tenant_id="a", workload="gups", n_ranks=2)] * 2
    with pytest.raises(TenancyError, match="duplicate"):
        resolve_partitions(dup, 8, DVConfig())
    big = [TenantSpec(tenant_id="a", workload="gups", n_ranks=5),
           TenantSpec(tenant_id="b", workload="fft", n_ranks=4)]
    with pytest.raises(TenancyError, match="9 ranks"):
        resolve_partitions(big, 8, DVConfig())


def test_partitions_reject_windows_beyond_hardware():
    cfg = DVConfig()
    t = TenantSpec(tenant_id="a", workload="gups", n_ranks=2,
                   counters=(0, cfg.group_counters + 1))
    with pytest.raises(TenancyError, match="counter window"):
        resolve_partitions([t], 8, cfg)
    t = TenantSpec(tenant_id="a", workload="gups", n_ranks=2,
                   dv_slots=(0, cfg.dv_memory_words + 1))
    with pytest.raises(TenancyError, match="memory window"):
        resolve_partitions([t], 8, cfg)


def test_infra_counters_always_allowed():
    """Scratch + barrier counters stay usable even under a tight
    counter window — every tenant owns a private barrier instance."""
    cfg = DVConfig()
    (part,) = resolve_partitions(
        [TenantSpec(tenant_id="a", workload="gups", n_ranks=2,
                    counters=(0, 1))], 8, cfg)
    assert cfg.scratch_counter in part.allowed_counters
    for c in cfg.barrier_counters:
        assert c in part.allowed_counters
    assert 0 in part.allowed_counters


def test_tenant_seed_inherits_cluster_seed():
    t = TenantSpec(tenant_id="a", workload="gups", n_ranks=2)
    assert tenant_seed(t, SEED) == SEED
    t = TenantSpec(tenant_id="a", workload="gups", n_ranks=2, seed=7)
    assert tenant_seed(t, SEED) == 7


# ----------------------------------------------------------- fault merge ---

def test_fault_merge_translates_tenant_local_outage_ports():
    tenants = [
        TenantSpec(tenant_id="a", workload="gups", n_ranks=4,
                   plan=FaultPlan(seed=1,
                                  link_outages=((1, 0.0, 1e-6),))),
        TenantSpec(tenant_id="b", workload="fft", n_ranks=4,
                   plan=FaultPlan(seed=2,
                                  link_outages=((2, 0.0, 2e-6),))),
    ]
    parts = resolve_partitions(tenants, 8, DVConfig())
    plan = merge_fault_plans(tenants, parts, SEED)
    assert plan.seed == SEED
    assert set(plan.link_outages) == {(1, 0.0, 1e-6), (6, 0.0, 2e-6)}


def test_fault_merge_rejects_out_of_window_port():
    tenants = [TenantSpec(tenant_id="a", workload="gups", n_ranks=2,
                          plan=FaultPlan(link_outages=((5, 0.0, 1e-6),)))]
    parts = resolve_partitions(tenants, 8, DVConfig())
    with pytest.raises(TenancyError, match="outside its 2-rank"):
        merge_fault_plans(tenants, parts, SEED)


def test_fault_merge_rejects_conflicting_probabilistic_knobs():
    tenants = [
        TenantSpec(tenant_id="a", workload="gups", n_ranks=2,
                   plan=FaultPlan(drop_prob=0.01)),
        TenantSpec(tenant_id="b", workload="fft", n_ranks=2,
                   plan=FaultPlan(drop_prob=0.05)),
    ]
    parts = resolve_partitions(tenants, 8, DVConfig())
    with pytest.raises(TenancyError, match="drop_prob"):
        merge_fault_plans(tenants, parts, SEED)


def test_fault_merge_none_when_no_tenant_has_a_plan():
    tenants = [TenantSpec(tenant_id="a", workload="gups", n_ranks=2)]
    parts = resolve_partitions(tenants, 8, DVConfig())
    assert merge_fault_plans(tenants, parts, SEED) is None


# ------------------------------------------------------- solo identity ---

_SOLO = {
    "gups": (dict(table_words=1 << 9, n_updates=1 << 8, window=32),
             ("elapsed_s", "mups_total", "mups_per_pe")),
    # gteps differs in the last ulp (x/1e9 vs x*1e-9 derivation), so
    # pin the raw TEPS figure the derived one comes from
    "bfs": (dict(scale=8, edgefactor=8, window=64),
            ("harmonic_teps",)),
    "fft": (dict(log2_points=10), ("elapsed_s", "gflops")),
    "scan": (dict(nx=8, ny_per_rank=2, nz=8, n_angles=8, chunk=4),
             ("elapsed_s", "cell_angle_sweeps_per_s")),
}


def _legacy(workload, spec, fabric, params):
    if workload == "gups":
        from repro.kernels.gups import run_gups
        return run_gups(spec, fabric, **params)
    if workload == "bfs":
        from repro.kernels.bfs import run_bfs
        return run_bfs(spec, fabric, n_roots=1, **params)
    if workload == "fft":
        from repro.kernels.fft1d import run_fft1d
        return run_fft1d(spec, fabric, **params)
    from repro.apps.snap import run_snap
    return run_snap(spec, fabric, **params)


@pytest.mark.parametrize("fabric", ["dv", "mpi"])
@pytest.mark.parametrize("workload", sorted(_SOLO))
def test_solo_tenant_is_byte_identical_to_legacy_path(workload, fabric):
    """One full-width tenant == the untenanted entry point, to the
    last float bit (same engine construction order, same RNG streams,
    same event schedule)."""
    params, keys = _SOLO[workload]
    spec = ClusterSpec(n_nodes=4, seed=SEED)
    legacy = _legacy(workload, spec, fabric, params)
    res = run_cotenants(
        spec, [TenantSpec(tenant_id="solo", workload=workload,
                          params=params, n_ranks=4)], fabric=fabric)
    got = res.tenants["solo"]
    for key in keys:
        assert got[key] == legacy[key], (key, got[key], legacy[key])


@pytest.mark.parametrize("fabric", ["dv", "mpi"])
def test_shadow_session_is_byte_identical(fabric):
    """The tenancy golden axis: run_spmd inside shadow_session() routes
    through the co-scheduler as one identity tenant, bit-for-bit."""
    from repro.kernels.gups import run_gups
    spec = ClusterSpec(n_nodes=4, seed=SEED)
    plain = run_gups(spec, fabric, table_words=1 << 9,
                     n_updates=1 << 8, window=32, validate=True)
    with tenancy.shadow_session():
        shadowed = run_gups(spec, fabric, table_words=1 << 9,
                            n_updates=1 << 8, window=32, validate=True)
    assert shadowed["elapsed_s"] == plain["elapsed_s"]
    assert shadowed["mups_total"] == plain["mups_total"]
    assert shadowed["valid"] and plain["valid"]


# -------------------------------------------------------- co-scheduling ---

def _two_tenants(**kw):
    gups = dict(table_words=1 << 9, n_updates=1 << 8, window=32)
    fft = dict(log2_points=10)
    return [
        TenantSpec(tenant_id="a", workload="gups", params=gups,
                   n_ranks=4, **kw),
        TenantSpec(tenant_id="b", workload="fft", params=fft,
                   n_ranks=4),
    ]


@pytest.mark.parametrize("fabric", ["dv", "mpi"])
def test_cotenants_run_and_validate_under_contention(fabric):
    gups = dict(table_words=1 << 9, n_updates=1 << 8, window=32,
                validate=True)
    spec = ClusterSpec(n_nodes=8, seed=SEED)
    res = run_cotenants(
        spec,
        [TenantSpec(tenant_id="a", workload="gups", params=gups,
                    n_ranks=4),
         TenantSpec(tenant_id="b", workload="scan",
                    params=dict(nx=8, ny_per_rank=2, nz=8, n_angles=8,
                                chunk=4, validate=True), n_ranks=4)],
        fabric=fabric)
    assert res.tenants["a"]["valid"]
    assert res.tenants["b"]["valid"]
    assert res.tenants["a"]["elapsed_s"] <= res.elapsed
    assert res.tenants["b"]["elapsed_s"] <= res.elapsed


@pytest.mark.parametrize("fabric", ["dv", "mpi"])
def test_tenant_obs_series_reconcile_with_cluster_totals(fabric):
    """Sum of per-tenant tenant.net.* == the shared fabric's stats
    (every transfer is attributed to exactly one tenant)."""
    from repro.obs import registry as obsreg
    spec = ClusterSpec(n_nodes=8, seed=SEED)
    with obsreg.session(True) as reg:
        res = run_cotenants(spec, _two_tenants(), fabric=fabric)
        if fabric == "dv":
            assert reg.total("tenant.net.transfers") == \
                res.net_stats.transfers
            assert reg.total("tenant.net.packets") == \
                res.net_stats.packets_sent
            assert reg.value("tenant.net.transfers", tenant="a") > 0
            assert reg.value("tenant.net.transfers", tenant="b") > 0
        else:
            assert reg.total("tenant.net.messages") == \
                res.net_stats.messages
            assert reg.total("tenant.net.bytes") == res.net_stats.bytes
            assert reg.value("tenant.net.messages", tenant="a") > 0
            assert reg.value("tenant.net.messages", tenant="b") > 0
        for tid in ("a", "b"):
            assert reg.value("tenant.elapsed_s", tenant=tid) == \
                res.tenants[tid]["elapsed_s"]


def test_solo_obs_series_match_legacy_totals():
    """Even a solo tenant's tenant.net.* equals the cluster stats —
    the view sees every transfer the workload makes."""
    from repro.obs import registry as obsreg
    spec = ClusterSpec(n_nodes=4, seed=SEED)
    with obsreg.session(True) as reg:
        res = run_cotenants(
            spec, [TenantSpec(tenant_id="solo", workload="gups",
                              params=dict(table_words=1 << 9,
                                          n_updates=1 << 8, window=32),
                              n_ranks=4)], fabric="dv")
        assert reg.total("tenant.net.transfers") == \
            res.net_stats.transfers


# ----------------------------------------------------------- isolation ---

def _raw_views(n_nodes=8, window=4):
    """A TenantNetworkView over ranks [0, window) of an n_nodes DV net,
    with a tight counter/memory slice, for direct enforcement tests."""
    from repro.dv.flow import FlowNetwork
    from repro.dv.vic import VIC
    from repro.sim.engine import Engine
    from repro.tenancy.views import TenantNetworkView, TenantVICView
    engine = Engine()
    cfg = DVConfig()
    net = FlowNetwork(engine, cfg, n_nodes)
    vics = [VIC(engine, cfg, i, net) for i in range(n_nodes)]
    (part,) = resolve_partitions(
        [TenantSpec(tenant_id="t", workload="gups", n_ranks=window,
                    counters=(0, 2), dv_slots=(0, 64))],
        n_nodes, cfg)
    return engine, net, vics, part, TenantNetworkView(net, part)


def test_network_view_rejects_out_of_window_destination():
    engine, net, vics, part, view = _raw_views()
    with pytest.raises(TenantIsolationError, match="rank 6"):
        view.transmit(0, 6, 1)


def test_network_view_rejects_out_of_window_memory_write():
    from repro.dv.vic import MemWrite
    engine, net, vics, part, view = _raw_views()
    bad = MemWrite(addrs=np.array([100]), values=np.array([1]),
                   counter=None)
    with pytest.raises(TenantIsolationError, match="memory|addr"):
        view.transmit(0, 1, 1, payload=bad)


def test_network_view_rejects_out_of_window_counter():
    from repro.dv.vic import CounterDec
    engine, net, vics, part, view = _raw_views()
    cfg = DVConfig()
    # a plain user counter outside (0, 2) and outside the infra set
    infra = part.allowed_counters
    bad_idx = next(i for i in range(cfg.group_counters)
                   if i not in infra)
    with pytest.raises(TenantIsolationError, match="counter"):
        view.transmit(0, 1, 1, payload=CounterDec(index=bad_idx))


def test_network_view_post_guards_ranks_and_payloads():
    from repro.dv.vic import MemWrite
    engine, net, vics, part, view = _raw_views()

    def write(addr):
        return MemWrite(addrs=np.array([addr]), values=np.array([7]))

    with pytest.raises(TenantIsolationError, match="rank 6"):
        view.post(0, [1, 6], [1, 1], [write(3), write(3)])
    with pytest.raises(TenantIsolationError, match="memory"):
        view.post(0, [1, 2], [1, 1], [write(3), write(100)])
    view.post(0, [1, 2], [1, 1], [write(3), write(4)])
    engine.run()
    assert vics[1].memory.read_word(3) == 7
    assert vics[2].memory.read_word(4) == 7


def test_vic_view_guards_counters_and_memory():
    from repro.tenancy.views import TenantVICView
    engine, net, vics, part, view = _raw_views()
    vic_view = TenantVICView(vics[0], part, 0)
    infra = part.allowed_counters
    bad_idx = next(i for i in range(DVConfig().group_counters)
                   if i not in infra)
    with pytest.raises(TenantIsolationError):
        vic_view.counters.set(bad_idx, 1)
    with pytest.raises(TenantIsolationError):
        vic_view.memory.write_word(4096, 1.0)
    # in-window operations pass through to the real device
    vic_view.counters.set(0, 3)
    assert vics[0].counters.value(0) == 3
    vic_view.memory.write_word(5, 7)
    assert vics[0].memory.read_word(5) == 7


def test_fabric_view_translates_and_guards_ranks():
    from repro.ib.config import IBConfig
    from repro.ib.fabric import IBFabric
    from repro.sim.engine import Engine
    from repro.tenancy.views import TenantFabricView
    engine = Engine()
    fab = IBFabric(engine, IBConfig(), 8)
    (part,) = resolve_partitions(
        [TenantSpec(tenant_id="t", workload="gups", n_ranks=4)],
        8, DVConfig())
    view = TenantFabricView(fab, part)
    with pytest.raises(TenantIsolationError):
        view.transfer(0, 7, 64)


# ------------------------------------------------- session shared state ---

def test_agg_session_is_tenant_keyed():
    outer = AggSpec(watermark=8)
    inner = AggSpec(watermark=64)
    with agg.session(outer, tenant="a"):
        with agg.session(inner, tenant="b"):
            assert agg.resolve_spec(None, tenant="a") is outer
            assert agg.resolve_spec(None, tenant="b") is inner
            assert agg.resolve_spec(None) is None
    assert agg.resolve_spec(None, tenant="a") is None


def test_nested_anonymous_agg_session_raises():
    with agg.session(AggSpec(watermark=8)):
        with pytest.raises(RuntimeError, match="nested anonymous"):
            with agg.session(AggSpec(watermark=64)):
                pass  # pragma: no cover
        # aggregation-free inner scopes still compose (legacy idiom)
        with agg.session(None):
            assert agg.resolve_spec(None) is None


def test_ambient_agg_session_stays_invisible_to_regular_tenants():
    """The agg golden axis wraps whole figures in an anonymous
    agg.session; FFT/scan tenants must ignore it exactly as the legacy
    run_fft1d / run_snap paths do."""
    spec = ClusterSpec(n_nodes=8, seed=SEED)
    with agg.session(AggSpec(watermark=64)):
        res = run_cotenants(spec, _two_tenants(), fabric="mpi")
    assert res.tenants["b"]["workload"] == "fft"


# -------------------------------------------------------- interference ---

def test_interference_point_solo_and_co():
    from repro.tenancy.experiments import interference_point
    solo = interference_point(victim="gups", aggressor=None,
                              fabric="mpi", nodes_per_tenant=4)
    co = interference_point(victim="gups", aggressor="fft",
                            fabric="mpi", nodes_per_tenant=4)
    assert solo["aggressor"] == "" and co["aggressor"] == "fft"
    assert co["elapsed_victim_s"] >= solo["elapsed_victim_s"]


def test_interference_table_shape_and_slowdown_floor():
    from repro.tenancy.experiments import interference_table
    t = interference_table(pairs=[("gups", "fft"), ("fft", "gups")],
                           fabrics=("dv", "mpi"))
    assert t.columns == ["victim", "aggressor", "dv_solo_s", "dv_co_s",
                        "dv_slowdown", "mpi_solo_s", "mpi_co_s",
                        "mpi_slowdown"]
    assert len(t.rows) == 2
    by_victim = {r[0]: r for r in t.rows}
    # slowdown is elapsed_co / elapsed_solo >= 1 on both fabrics
    for r in t.rows:
        assert r[4] >= 1.0 and r[7] >= 1.0
    # the paper-shaped finding at this geometry: DV isolates
    # (deflection prices into latency only), the oversubscribed fat
    # tree does not — GUPS feels the FFT through shared leaf uplinks
    assert by_victim["gups"][4] == pytest.approx(1.0, abs=5e-3)
    assert by_victim["gups"][7] > by_victim["gups"][4]


def test_default_pairs_expand_tenant_names():
    from repro.tenancy.experiments import default_pairs
    assert default_pairs(("gups", "fft")) == (("gups", "fft"),
                                              ("fft", "gups"))
    with pytest.raises(ValueError, match="at least two"):
        default_pairs(("gups",))


def test_fig_interference_registry_runner_tenants_override():
    from repro.core.experiments import run_experiment
    t = run_experiment("fig_interference", tenants=["gups", "scan"],
                       fabrics=("mpi",))
    assert len(t.rows) == 2
    assert {(r[0], r[1]) for r in t.rows} == {("gups", "scan"),
                                              ("scan", "gups")}

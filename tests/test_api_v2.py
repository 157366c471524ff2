"""The api contract: one spec, one run verb.

Everything the 2.0 redesign promised (docs/api.md), as kept by 5.0:
:class:`ExperimentSpec` carries the whole request; :func:`api.run`
resolves only registry ids, threads each field to the runner's keyword
or a scoped session and refuses keys the runner does not take; and the
spec has an exact JSON round-trip (the ``repro run --spec-file``
format).
"""

import json

import pytest

import repro.api as api
from repro.agg import AggSpec
from repro.faults import FaultPlan
from repro.tenancy import TenantSpec


def _rows(table):
    return [list(r) for r in table.rows]


# ---------------------------------------------------------------- run ---

def test_run_executes_registry_experiment():
    t = api.run(spec=api.ExperimentSpec(
        exp_id="fig4", params={"seed": 1, "nodes": (2,)}))
    assert t.columns[0] == "nodes"
    assert len(t.rows) == 1


def test_run_rejects_unknown_exp_id_naming_the_registry():
    with pytest.raises(KeyError, match=r"unknown experiment 'fig999'; "
                       r"known: \['fig3a'"):
        api.run(spec=api.ExperimentSpec(exp_id="fig999"))


def test_run_rejects_unknown_params_before_running(monkeypatch):
    """A key the runner's signature does not take fails as a spec
    error naming it and the accepted keys, before any simulation, not
    as a TypeError from inside the executor."""
    import repro.core.experiments as experiments

    def never(*args, **kwargs):
        raise AssertionError("the runner must not start")

    monkeypatch.setattr(experiments, "run_experiment", never)
    spec = api.ExperimentSpec(exp_id="fig4",
                              params={"nodes": [2], "bogus_param": 1})
    with pytest.raises(ValueError, match=r"'fig4' takes no param\(s\) "
                       r"'bogus_param'; it takes seed, nodes"):
        api.run(spec=spec)
    with pytest.raises(ValueError, match="'n_nodes'"):
        api.run(spec=api.ExperimentSpec(exp_id="fig4",
                                        cluster={"n_nodes": 4}))
    # RunOptions owns the executor, so it is no params key even for a
    # runner whose signature names it
    with pytest.raises(ValueError, match=r"'fig_skew' takes no "
                       r"param\(s\) 'executor'; it takes seed, nodes"):
        api.run(spec=api.ExperimentSpec(exp_id="fig_skew",
                                        params={"executor": 1}))


def test_run_figures_checks_every_id_before_running(monkeypatch):
    """Several ids share one params mapping; a key any of their runners
    does not take fails naming that figure, before any figure runs."""
    from repro.exec import Executor

    def never(*args, **kwargs):
        raise AssertionError("no figure may start")

    monkeypatch.setattr(Executor, "map", never)
    with pytest.raises(ValueError, match=r"'fig4' takes no "
                       r"param\(s\) 'bogus'"):
        api.run_figures(exp_ids=["fig4", "fig7"],
                        nodes=[2], bogus=1)
    with pytest.raises(ValueError, match=r"'fig9' takes no "
                       r"param\(s\) 'nodes'"):
        api.run_figures(exp_ids=["fig4", "fig9"], nodes=[2])
    with pytest.raises(KeyError, match="unknown experiment 'fig999'"):
        api.run_figures(exp_ids=["fig4", "fig999"], nodes=[2])


def test_run_rejects_params_cluster_clash():
    spec = api.ExperimentSpec(exp_id="fig4", params={"seed": 1},
                              cluster={"seed": 2})
    with pytest.raises(ValueError, match="both params and cluster"):
        api.run(spec=spec)


def test_cluster_mapping_merges_into_params():
    base = api.run(spec=api.ExperimentSpec(
        exp_id="fig4", params={"seed": 1, "nodes": (2,)}))
    via_cluster = api.run(spec=api.ExperimentSpec(
        exp_id="fig4", params={"nodes": (2,)}, cluster={"seed": 1}))
    assert _rows(base) == _rows(via_cluster)


def test_run_threads_tenants_keyword():
    t = api.run(spec=api.ExperimentSpec(
        exp_id="fig_interference",
        params={"fabrics": ("mpi",), "nodes_per_tenant": 4},
        tenants=("gups", "fft")))
    assert {(r[0], r[1]) for r in t.rows} == {("gups", "fft"),
                                             ("fft", "gups")}


def test_run_rejects_tenants_without_runner_keyword():
    spec = api.ExperimentSpec(exp_id="fig4", tenants=("gups", "fft"))
    with pytest.raises(ValueError, match="does not take tenants"):
        api.run(spec=spec)


def test_run_faults_session_fallback_matches_explicit_session():
    """fig6a has no plan= keyword, so spec.faults must arrive via the
    scoped faults.session — identically to wrapping the call by hand."""
    from repro import faults
    plan = FaultPlan(seed=3, pcie_delay_prob=0.2)
    via_spec = api.run(spec=api.ExperimentSpec(
        exp_id="fig6a", params={"seed": 1, "nodes": (4,)}, faults=plan))
    with faults.session(plan):
        via_session = api.run(spec=api.ExperimentSpec(
            exp_id="fig6a", params={"seed": 1, "nodes": (4,)}))
    assert _rows(via_spec) == _rows(via_session)


def test_run_session_fallback_refuses_pool_workers():
    spec = api.ExperimentSpec(exp_id="fig6a",
                              params={"seed": 1, "nodes": (4,)},
                              faults=FaultPlan(seed=3, pcie_delay_prob=0.2))
    with pytest.raises(ValueError, match="process-global sessions"):
        api.run(spec=spec, options=api.RunOptions(workers=2))


# --------------------------------------------------------------- spec ---

def test_spec_rejects_wrong_version():
    with pytest.raises(ValueError, match="version 1 is not supported"):
        api.ExperimentSpec(exp_id="fig4", version=1)
    # version 2 still had the shard count
    with pytest.raises(ValueError, match="version 2 is not supported"):
        api.ExperimentSpec(exp_id="fig4", version=2)
    with pytest.raises(ValueError, match="version 2 is not supported"):
        api.spec_from_dict(data={"exp_id": "fig4", "version": 2})


def test_spec_rejects_wrong_field_types():
    with pytest.raises(TypeError, match="FaultPlan"):
        api.ExperimentSpec(exp_id="fig4", faults={"seed": 3})
    with pytest.raises(TypeError, match="AggSpec"):
        api.ExperimentSpec(exp_id="fig4", aggregation={"watermark": 8})
    with pytest.raises(TypeError, match="workload names"):
        api.ExperimentSpec(exp_id="fig4", tenants=(42,))


def test_spec_json_round_trip_is_exact():
    spec = api.ExperimentSpec(
        exp_id="fig_interference",
        params={"fabrics": ["mpi"]},
        cluster={"seed": 5},
        faults=FaultPlan(seed=3, drop_prob=0.01,
                         link_outages=((1, 0.0, 1e-6),)),
        aggregation=AggSpec(watermark=32),
        tenants=("gups", "fft"))
    wire = json.loads(json.dumps(api.spec_to_dict(spec=spec)))
    assert api.spec_from_dict(data=wire) == spec


def test_spec_tenants_are_workload_names_only():
    """A TenantSpec never reached a runner (fig_interference takes
    workload names), so the spec refuses one up front, in either
    form."""
    with pytest.raises(TypeError, match="workload names.*run_cotenants"):
        api.ExperimentSpec(exp_id="fig_interference", tenants=(
            TenantSpec(tenant_id="t", workload="fft", n_ranks=4),))
    with pytest.raises(TypeError, match="workload names"):
        api.spec_from_dict(data={
            "exp_id": "fig_interference",
            "tenants": [{"tenant_id": "t", "workload": "fft"}]})


def test_spec_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="bogus"):
        api.spec_from_dict(data={"exp_id": "fig4", "bogus": 1})
    # the removed shard count is an unknown field like any other
    with pytest.raises(ValueError,
                       match=r"unknown ExperimentSpec field\(s\).*shards"):
        api.spec_from_dict(data={"exp_id": "fig4", "shards": 2})


def test_cluster_spec_has_no_shards_field():
    from repro.core.cluster import ClusterSpec
    with pytest.raises(TypeError, match="shards"):
        ClusterSpec(shards=2)


# ------------------------------------------------------------ version ---

def test_api_version_is_five():
    assert api.__api_version__.split(".")[0] == "5"
    # 4.0 removed the synchronous experiment service (docs/api.md)
    for gone in ("submit", "poll", "collect"):
        assert gone not in api.__all__ and not hasattr(api, gone)
    # 5.0 narrowed the spec to the fields a runner takes (docs/api.md)
    import dataclasses
    assert [f.name for f in dataclasses.fields(api.ExperimentSpec)] == [
        "exp_id", "params", "version", "cluster", "faults",
        "aggregation", "tenants"]
    # spec version 3 dropped the shard count (docs/api.md)
    assert api.SPEC_VERSION == 3

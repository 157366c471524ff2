"""The api 2.0 contract: one spec, two verbs, warning 1.x shims.

Everything the redesign promises (docs/api.md): :class:`ExperimentSpec`
carries the whole request; :func:`api.run` threads each field to the
runner's keyword or a scoped session; :func:`api.submit` takes the same
spec over the service wire; the six 1.x entry points keep working but
emit ``DeprecationWarning``; and the spec has an exact JSON round-trip
(the ``repro submit --spec-file`` format).
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


def test_run_routes_bare_sweep_name_and_sweep_prefix():
    spec = api.ExperimentSpec(exp_id="sweep:barrier",
                              params={"axes": {"nodes": [2]}})
    prefixed = api.run(spec=spec)
    bare = api.run(spec=api.ExperimentSpec(
        exp_id="barrier", params={"axes": {"nodes": [2]}}))
    assert prefixed.columns == ["nodes", "latency_us"]
    assert _rows(prefixed) == _rows(bare)


def test_run_rejects_unknown_exp_id_naming_both_registries():
    with pytest.raises(KeyError, match="known experiments.*known sweeps"):
        api.run(spec=api.ExperimentSpec(exp_id="fig999"))


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


def test_run_rejects_traffic_without_runner_keyword():
    spec = api.ExperimentSpec(exp_id="fig4",
                              traffic=api.build_traffic())
    with pytest.raises(ValueError, match="does not take a traffic"):
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


def test_sweep_spec_rejects_session_fields_and_odd_params():
    with pytest.raises(ValueError, match="do not apply"):
        api.run(spec=api.ExperimentSpec(exp_id="sweep:barrier",
                                        shards=2))
    with pytest.raises(ValueError, match="unknown sweep param"):
        api.run(spec=api.ExperimentSpec(exp_id="sweep:barrier",
                                        params={"nodes": [2]}))


# --------------------------------------------------------------- spec ---

def test_spec_rejects_wrong_version():
    with pytest.raises(ValueError, match="version 1 is not supported"):
        api.ExperimentSpec(exp_id="fig4", version=1)


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
        shards=2,
        tenants=("gups",
                 TenantSpec(tenant_id="t", workload="fft", n_ranks=4)))
    wire = json.loads(json.dumps(api.spec_to_dict(spec=spec)))
    assert api.spec_from_dict(data=wire) == spec


def test_spec_to_dict_refuses_live_traffic_models():
    spec = api.ExperimentSpec(exp_id="fig4",
                              traffic=api.build_traffic())
    with pytest.raises(ValueError, match="not serialisable"):
        api.spec_to_dict(spec=spec)


def test_spec_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="bogus"):
        api.spec_from_dict(data={"exp_id": "fig4", "bogus": 1})


# ------------------------------------------------------------- submit ---

def test_submit_inline_end_to_end(tmp_path):
    state = str(tmp_path / "svc")
    status = api.submit(spec=api.ExperimentSpec(
        exp_id="fig4", params={"seed": 1, "nodes": [2]}),
        state_dir=state)
    assert status["state"] == "done"
    table = api.collect(job_id=status["job_id"], state_dir=state)
    assert table.columns[0] == "nodes"


def test_submit_rejects_session_scoped_fields(tmp_path):
    spec = api.ExperimentSpec(exp_id="fig4",
                              faults=FaultPlan(seed=3, drop_prob=0.1))
    with pytest.raises(ValueError, match="cannot ride a service job"):
        api.submit(spec=spec, state_dir=str(tmp_path))
    spec = api.ExperimentSpec(exp_id="fig4", shards=4)
    with pytest.raises(ValueError, match="shards"):
        api.submit(spec=spec, state_dir=str(tmp_path))


def test_submit_rejects_tenant_spec_objects(tmp_path):
    spec = api.ExperimentSpec(
        exp_id="fig_interference",
        tenants=(TenantSpec(tenant_id="t", workload="gups",
                            n_ranks=4),))
    with pytest.raises(ValueError, match="workload names only"):
        api.submit(spec=spec, state_dir=str(tmp_path))


def test_submit_rejects_tenants_on_non_tenant_experiment(tmp_path):
    spec = api.ExperimentSpec(exp_id="fig4", tenants=("gups", "fft"))
    with pytest.raises(ValueError, match="does not take tenants"):
        api.submit(spec=spec, state_dir=str(tmp_path))


# ---------------------------------------------------------- 1.x shims ---

def test_run_figure_shim_warns_and_matches_run():
    spec = api.ExperimentSpec(exp_id="fig4",
                              params={"seed": 1, "nodes": (2,)})
    new = api.run(spec=spec)
    with pytest.warns(DeprecationWarning, match="run_figure"):
        old = api.run_figure(exp_id="fig4", seed=1, nodes=(2,))
    assert _rows(old) == _rows(new)
    with pytest.warns(DeprecationWarning):
        via_spec = api.run_figure(spec=spec)
    assert _rows(via_spec) == _rows(new)


def test_run_sweep_shim_warns_and_matches_run():
    with pytest.warns(DeprecationWarning, match="run_sweep"):
        old = api.run_sweep(name="barrier", axes={"nodes": [2]})
    new = api.run(spec=api.ExperimentSpec(
        exp_id="sweep:barrier", params={"axes": {"nodes": [2]}}))
    assert _rows(old) == _rows(new)


def test_run_scaleout_shim_warns_and_matches_run():
    with pytest.warns(DeprecationWarning, match="run_scaleout"):
        old = api.run_scaleout(workloads=("gups",), nodes=(64,))
    new = api.run(spec=api.ExperimentSpec(
        exp_id="fig_scaleout",
        params={"seed": 2017,
                "workloads": ("gups",), "nodes": (64,)}))
    assert _rows(old) == _rows(new)


def test_run_skew_shim_warns():
    with pytest.warns(DeprecationWarning, match="run_skew"):
        t = api.run_skew(nodes=2, exponents=(0.0,))
    assert len(t.rows) >= 1


def test_run_agg_shim_warns():
    with pytest.warns(DeprecationWarning, match="run_agg"):
        t = api.run_agg(nodes=2, exponents=(0.0,), watermarks=(1, 64))
    assert len(t.rows) >= 1


def test_submit_experiment_shim_warns_and_delegates(tmp_path):
    with pytest.warns(DeprecationWarning, match="submit_experiment"):
        status = api.submit_experiment(
            exp_id="fig4", params={"seed": 1, "nodes": [2]},
            state_dir=str(tmp_path / "svc"))
    assert status["state"] == "done"


def test_shims_reject_ambiguous_arguments():
    with pytest.warns(DeprecationWarning):
        with pytest.raises(ValueError, match="exactly one"):
            api.run_figure()
    with pytest.warns(DeprecationWarning):
        with pytest.raises(ValueError, match="exactly one"):
            api.submit_experiment(
                exp_id="fig4",
                spec=api.ExperimentSpec(exp_id="fig4"))


def test_api_version_is_two():
    assert api.__api_version__.split(".")[0] == "2"
    assert api.SPEC_VERSION == 2

"""The experiment service: run, stream, gate and store jobs.

Everything here drives :class:`repro.service.ExperimentService`, which
runs each submission to completion in-process under a state dir.  The
acceptance-critical properties:

* strictly monotone event sequences (``queued`` → ``started`` →
  ``progress`` → ``finished``/``failed``) with obs-sampled progress;
* a re-submission warm-hits the shared result cache;
* the golden gate refuses publication when the computed table diverges
  from the committed snapshot;
* ``status``/``watch``/``collect`` need nothing but the state dir.
"""

import json
import os

import pytest

import repro.api as api
from repro.golden import GOLDEN_CONFIGS, GoldenStore
from repro.obs import registry as obsreg
from repro.service import (
    ExperimentService,
    ServiceError,
    job_key,
    load_events,
)

TINY = {"seed": 1, "nodes": [2]}
REPO_GOLDENS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "goldens",
)


@pytest.fixture
def service(tmp_path):
    return ExperimentService(str(tmp_path / "state"))


def _kinds(events):
    return [e["kind"] for e in events]


# ----------------------------------------------------------- lifecycle ---


def test_submit_run_collect_round_trip(service):
    job = service.submit("fig4", params=TINY)
    assert job["state"] == "done"
    status = service.status(job["job_id"])
    assert status["state"] == "done"
    assert status["published"] is True
    record = service.collect(job["job_id"])
    assert record["table"]["columns"][0] == "nodes"
    assert job["job_id"] in record["job_ids"]


def test_unknown_job_raises(service):
    with pytest.raises(ServiceError, match="unknown job"):
        service.status("nope")
    with pytest.raises(ServiceError, match="unknown job"):
        service.collect("nope")
    with pytest.raises(ServiceError, match="unknown job"):
        service.watch("nope")


def test_failed_job_reports_error(service):
    job = service.submit("fig4", params={"bogus_kwarg": 1})
    assert service.status(job["job_id"])["state"] == "failed"
    assert "bogus_kwarg" in job["error"]
    with pytest.raises(ServiceError, match="failed"):
        service.collect(job["job_id"])
    kinds = _kinds(service.watch(job["job_id"]))
    assert kinds == ["queued", "started", "failed"]


def test_different_specs_do_not_coalesce(service):
    a = service.submit("fig4", params={"seed": 1, "nodes": [2]})
    b = service.submit("fig4", params={"seed": 2, "nodes": [2]})
    assert a["job_id"] != b["job_id"]
    assert a["key"] != b["key"]
    assert service.store.stats()["records"] == 2


# ------------------------------------------------------------ progress ---


def test_progress_events_monotone(service):
    job = service.submit("fig4", params=TINY)
    events = list(service.watch(job["job_id"]))
    kinds = _kinds(events)
    assert kinds == ["queued", "started", "progress", "finished"]
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)
    progress = [e for e in events if e["kind"] == "progress"]
    done = [e["points_done"] for e in progress]
    assert done == sorted(done)
    assert all(e["cache_hits"] >= 0 for e in progress)
    assert events == load_events(service.state_dir, job["job_id"])


def test_progress_samples_obs_series(service):
    with obsreg.session():
        job = service.submit("fig4", params=TINY)
    (progress,) = [
        e
        for e in service.watch(job["job_id"])
        if e["kind"] == "progress"
    ]
    assert progress["points_done"] >= 1
    assert progress["sim_clock"] > 0.0


def test_watch_from_seq_replays_suffix(service):
    job = service.submit("fig4", params=TINY)
    tail = list(service.watch(job["job_id"], from_seq=2))
    assert all(e["seq"] > 2 for e in tail)
    assert tail[-1]["kind"] == "finished"


def test_resubmit_after_completion_warm_hits_cache(tmp_path):
    with obsreg.session() as reg:
        service = ExperimentService(str(tmp_path / "state"))
        first = service.submit("fig4", params=TINY)
        second = service.submit("fig4", params=TINY)
        assert second["job_id"] != first["job_id"]
        assert reg.value("service.jobs.executed") == 2
        assert reg.total("exec.cache.hits") == 1
    # both jobs share the content hash, so one store record
    assert job_key("fig4", TINY) == first["key"] == second["key"]
    record = service.collect(second["job_id"])
    assert record["job_ids"] == [first["job_id"], second["job_id"]]


# --------------------------------------------------------- golden gate ---


def _mutated_goldens(tmp_path, params):
    """A goldens dir whose fig4 snapshot for ``params`` is perturbed."""
    gdir = tmp_path / "goldens"
    store = GoldenStore(str(gdir))
    table = api.run(spec=api.ExperimentSpec(exp_id="fig4", params=params))
    store.record("fig4", params, table)
    (path,) = [p for p in gdir.iterdir() if p.name.startswith("fig4-")]
    entry = json.loads(path.read_text())
    entry["table"]["rows"][0][1] += 0.5
    path.write_text(json.dumps(entry))
    return str(gdir)


def test_golden_gate_refuses_mutated_result(tmp_path):
    params = {"seed": 2017, "nodes": (2,)}
    gdir = _mutated_goldens(tmp_path, params)
    service = ExperimentService(str(tmp_path / "state"), goldens_dir=gdir)
    job = service.submit("fig4", params={"seed": 2017, "nodes": [2]})
    record = service.collect(job["job_id"])
    assert record["published"] is False
    assert record["golden"]["checked"]
    assert record["golden"]["diffs"]
    assert service.status(job["job_id"])["published"] is False
    with pytest.raises(ServiceError, match="not published"):
        api.collect(
            job_id=job["job_id"],
            state_dir=str(tmp_path / "state"),
            goldens_dir=gdir,
        )


def test_golden_gate_publishes_matching_result(tmp_path):
    """Submitting a figure's pinned golden config against the repo's
    committed snapshots publishes (what the nightly workflow does)."""
    service = ExperimentService(
        str(tmp_path / "state"), goldens_dir=REPO_GOLDENS
    )
    job = service.submit("fig4", params=dict(GOLDEN_CONFIGS["fig4"]))
    record = service.collect(job["job_id"])
    assert record["golden"] == {
        "checked": True,
        "ok": True,
        "published": True,
        "diffs": [],
    }


def test_ungated_spec_publishes_without_golden(service):
    job = service.submit("fig4", params=TINY)
    record = service.collect(job["job_id"])
    assert record["published"] is True
    assert record["golden"]["checked"] is False


# ------------------------------------------------------ the api face ---


def test_api_submit_poll_collect_inline(tmp_path):
    state = str(tmp_path / "state")
    job = api.submit(spec=api.ExperimentSpec("fig4", TINY), state_dir=state)
    assert job["state"] == "done"
    status = api.poll(job_id=job["job_id"], state_dir=state)
    assert status["published"] is True
    table = api.collect(job_id=job["job_id"], state_dir=state)
    assert table.columns[0] == "nodes"


def test_inline_client_matches_service_results(tmp_path):
    """The facade and the service class, each on its own state dir,
    store the same record for the same spec."""
    job = api.submit(
        spec=api.ExperimentSpec("fig4", TINY), state_dir=str(tmp_path / "a")
    )
    record = ExperimentService(str(tmp_path / "a")).collect(job["job_id"])

    service = ExperimentService(str(tmp_path / "b"))
    direct = service.submit("fig4", params=TINY)
    expected = service.collect(direct["job_id"])

    assert record["table"] == expected["table"]
    assert record["key"] == expected["key"]

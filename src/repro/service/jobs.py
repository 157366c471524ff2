"""The experiment service: synchronous jobs over one state dir.

:class:`ExperimentService` runs each submitted
:class:`repro.api.ExperimentSpec` to completion in the calling process
through :func:`repro.api.run`, with the result cache under
``<state_dir>/cache``.  It then gates the table against the committed
goldens (:func:`~repro.service.store.gate_result`) and lands the
record in the :class:`~repro.service.store.ResultStore`.

Every job writes an append-only event log to
``<state_dir>/events/<job_id>.jsonl``: ``queued`` → ``started`` →
``progress`` → ``finished`` or ``failed``, with strictly increasing
sequence numbers.  The ``progress`` event samples the live
:mod:`repro.obs` series: simulation clock (``sim.engine.clock``),
points done (``exec.points``) and cache traffic
(``exec.cache.hits``/``misses``).  ``status``, ``watch`` and
``collect`` only read the state dir, so any later process — the
``repro status/watch/collect --state-dir`` CLI, or a CI step that
downloads the directory — sees the same job.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
import uuid
from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro.obs import registry as obsreg
from repro.service.store import ResultStore, gate_result

__all__ = [
    "ExperimentService",
    "ServiceError",
    "job_key",
    "load_events",
    "load_status",
]


class ServiceError(RuntimeError):
    """A request the service refused (unknown job, failed job,
    unpublished result)."""


def job_key(exp_id: str, params: Mapping[str, Any]) -> Optional[str]:
    """The exec cache's key for this submission's figure table, or
    ``None`` for params with no canonical form (mirroring the
    executor's uncacheable-point rule)."""
    from repro.exec.cache import cache_key, run_context

    try:
        return cache_key(f"experiment.{exp_id}", params, context=run_context())
    except TypeError:
        return None


def _read_jsonl(path: str) -> List[Dict[str, Any]]:
    out: List[Dict[str, Any]] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue
                if isinstance(entry, dict):
                    out.append(entry)
    except OSError:
        pass
    return out


def load_events(state_dir: str, job_id: str) -> List[Dict[str, Any]]:
    """A job's persisted events, in order."""
    return _read_jsonl(os.path.join(state_dir, "events", f"{job_id}.jsonl"))


def load_status(state_dir: str, job_id: str) -> Optional[Dict[str, Any]]:
    """A job's status, reconstructed from its event log and the result
    store, or ``None`` for an unknown job."""
    events = load_events(state_dir, job_id)
    if not events:
        return None
    last = events[-1]
    status = {
        "job_id": job_id,
        "exp_id": last.get("exp_id") or events[0].get("exp_id"),
        "state": last.get("state", "unknown"),
        "published": last.get("published"),
        "error": last.get("error", ""),
        "events": len(events),
    }
    record = ResultStore(os.path.join(state_dir, "store")).get_by_job(job_id)
    if record is not None:
        status["published"] = record.get("published")
        status["key"] = record.get("key")
    return status


def _progress_fields() -> Dict[str, Any]:
    reg = obsreg.active()
    clock = reg.get("sim.engine.clock")
    return {
        "sim_clock": 0.0 if clock is None else clock.max,
        "points_done": reg.total("exec.points"),
        "cache_hits": reg.total("exec.cache.hits"),
        "cache_misses": reg.total("exec.cache.misses"),
    }


class ExperimentService:
    """Run, gate and store experiment jobs under ``state_dir``.

    ``state_dir`` holds the result cache (``cache/``), the published
    store (``store/``) and the per-job event logs (``events/``);
    ``goldens_dir`` is where the publication gate looks for committed
    snapshots.
    """

    def __init__(self, state_dir: str, goldens_dir: str = "goldens") -> None:
        self.state_dir = str(state_dir)
        self.goldens_dir = str(goldens_dir)
        self.cache_dir = os.path.join(self.state_dir, "cache")
        self.store = ResultStore(os.path.join(self.state_dir, "store"))

    def submit(
        self, exp_id: str, params: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        """Run one job to completion and return its status; a job that
        raises ends ``failed`` with the error recorded, not raised."""
        import repro.api as api

        if not exp_id:
            raise ValueError("exp_id must be non-empty")
        params = dict(params or {})
        job_id = uuid.uuid4().hex[:12]
        path = os.path.join(self.state_dir, "events", f"{job_id}.jsonl")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        seq = 0

        def log(kind: str, state: str, **fields: Any) -> None:
            nonlocal seq
            seq += 1
            event = {
                "seq": seq,
                "ts": time.time(),
                "job_id": job_id,
                "kind": kind,
                "state": state,
                **fields,
            }
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(event, sort_keys=True) + "\n")

        log("queued", "queued", exp_id=exp_id)
        key = job_key(exp_id, params)
        # progress samples need a live registry: borrow the caller's,
        # else collect into one scoped to this job
        own_obs = obsreg.active() is None
        with obsreg.session() if own_obs else contextlib.nullcontext():
            obsreg.counter("service.jobs.executed").inc()
            log("started", "running", exp_id=exp_id)
            try:
                table = api.run(
                    spec=api.ExperimentSpec(exp_id, params),
                    options=api.RunOptions(cache_dir=self.cache_dir),
                )
            except Exception as err:  # noqa: BLE001 - recorded, not raised
                obsreg.counter("service.jobs.failed").inc()
                error = f"{type(err).__name__}: {err}"
                log("failed", "failed", error=error)
                return self.status(job_id)
            log("progress", "running", **_progress_fields())
            obsreg.counter("service.jobs.completed").inc()
        golden = gate_result(
            exp_id, params, table, goldens_dir=self.goldens_dir
        )
        record = self.store.put(
            key or job_id, exp_id, params, table, job_id, golden
        )
        log(
            "finished",
            "done",
            published=record["published"],
            gated=golden["checked"],
            key=record["key"],
        )
        return self.status(job_id)

    def status(self, job_id: str) -> Dict[str, Any]:
        status = load_status(self.state_dir, job_id)
        if status is None:
            raise ServiceError(f"unknown job {job_id!r}")
        return status

    def watch(
        self, job_id: str, from_seq: int = 0
    ) -> Iterator[Dict[str, Any]]:
        """Replay a job's events after ``from_seq``."""
        events = load_events(self.state_dir, job_id)
        if not events:
            raise ServiceError(f"unknown job {job_id!r}")
        return (e for e in events if e.get("seq", 0) > from_seq)

    def collect(self, job_id: str) -> Dict[str, Any]:
        """The job's store record; a failed job or an unknown id
        raises, a gate-refused result comes back with ``published:
        false`` and the diffs."""
        record = self.store.get_by_job(job_id)
        if record is not None:
            return record
        status = self.status(job_id)
        if status["state"] == "failed":
            raise ServiceError(f"job {job_id!r} failed: {status['error']}")
        raise ServiceError(
            f"job {job_id!r} has no stored result "
            f"(state: {status['state']})"
        )

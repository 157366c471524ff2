"""repro.service — the experiment service (docs/service.md).

A synchronous, in-process service over a state dir, shaped like
quest-ssim's configure / progress / results surface:

* :mod:`repro.service.jobs` — :class:`ExperimentService`: ``submit``
  runs a spec now through :func:`repro.api.run` (result cache under
  ``<state_dir>/cache``), gates and stores the table, and writes the
  job's event log; ``status``, ``watch`` and ``collect`` read the state
  dir back;
* :mod:`repro.service.store` — the golden-gated :class:`ResultStore`
  layered on the content-addressed cache.

Quick use::

    from repro.service import ExperimentService

    svc = ExperimentService(".repro-service")
    job = svc.submit("fig4", params={"seed": 2017, "nodes": [2]})
    record = svc.collect(job["job_id"])

``repro submit/status/watch/collect --state-dir`` and
``repro.api.submit/poll/collect`` are the CLI and facade faces of the
same calls.
"""

from repro.service.jobs import (
    ExperimentService,
    ServiceError,
    job_key,
    load_events,
    load_status,
)
from repro.service.store import ResultStore, gate_result

__all__ = [
    "ExperimentService",
    "ResultStore",
    "ServiceError",
    "gate_result",
    "job_key",
    "load_events",
    "load_status",
]

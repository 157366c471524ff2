"""The stable programmatic facade over the repro stack (api 2.0).

One spec, two verbs.  Everything a driver needs — regenerating paper
figures, named parameter sweeps, 64-1024-node projections, skew /
aggregation / interference matrices, golden gating, the experiment
service — is expressed as a versioned :class:`ExperimentSpec` and
handed to :func:`run` (in-process) or :func:`submit` (service):

>>> import repro.api as api
>>> t = api.run(spec=api.ExperimentSpec(
...     exp_id="fig4", params={"nodes": (2, 4)}))
>>> t.columns
['nodes', 'dv', 'dv_fast', 'mpi']

The spec carries the *whole* request: registry id (or named sweep),
runner params, cluster overrides, a traffic model, a fault plan, an
aggregation spec, a PDES shard count, and co-scheduled tenants.
:func:`run` threads each field to the experiment runner when its
signature accepts the matching keyword (``plan=``, ``shards=``,
``tenants=``) and falls back to the scoped session overrides
(:func:`repro.faults.session`, :func:`repro.sim.pdes.session`,
:func:`repro.agg.session`) otherwise — sessions are process-global, so
combining them with ``RunOptions(workers>1)`` is an error rather than
a silent no-op in the pool workers.

The 1.x entry points (``run_figure`` / ``run_sweep`` / ``run_scaleout``
/ ``run_skew`` / ``run_agg`` / ``submit_experiment``) survive as thin
shims that emit :class:`DeprecationWarning` and delegate here; they
will be removed in 3.0.  ``run_figures``, :func:`verify_goldens`,
:func:`poll`, :func:`collect` and the builders are unchanged and
undeprecated.

The facade is versioned independently of the package
(:data:`__api_version__`, semver); 2.0.0 is the spec-surface redesign.
Only names in :data:`__all__` are covered by the contract.  Every
public callable takes keyword-only arguments (enforced by
``tools/check_api_signatures.py`` in ``make lint``).  Heavy imports
happen inside the functions: ``import repro.api`` is cheap, and the
lazy imports also break the cycle with the golden harness, which
routes its figure runs back through :func:`run`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__api_version__ = "2.0.0"

__all__ = [
    "__api_version__",
    "ExperimentSpec",
    "RunOptions",
    "GoldenVerdict",
    "spec_to_dict",
    "spec_from_dict",
    "build_cluster",
    "build_traffic",
    "run",
    "submit",
    "run_figure",
    "run_figures",
    "run_sweep",
    "run_scaleout",
    "run_skew",
    "run_agg",
    "verify_goldens",
    "submit_experiment",
    "poll",
    "collect",
]

#: Spec schema version :func:`run` understands (bumped with the major).
SPEC_VERSION = 2


# ----------------------------------------------------------- datatypes ---

@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment request, complete (api 2.0).

    ``exp_id`` names a registry experiment
    (:data:`repro.core.experiments.REGISTRY`) or a named sweep
    (:data:`repro.core.sweep.NAMED_SWEEPS`; prefix with ``sweep:`` to
    force the sweep namespace).  ``params`` go to the runner verbatim;
    ``cluster`` is a convenience mapping merged into them (a key in
    both is an error, not a silent override).

    The remaining fields carry what 1.x spread across six entry
    points: a :class:`~repro.traffic.TrafficModel`, a
    :class:`~repro.faults.FaultPlan`, an :class:`~repro.agg.AggSpec`,
    a PDES ``shards`` count, and ``tenants`` — workload names (the
    ``fig_interference`` idiom) or full
    :class:`~repro.tenancy.TenantSpec` objects for runners that
    co-schedule.  :func:`run` threads each to the runner's matching
    keyword or a scoped session; see its docstring for the rules.
    """

    exp_id: str
    params: Mapping[str, Any] = field(default_factory=dict)
    version: int = SPEC_VERSION
    cluster: Mapping[str, Any] = field(default_factory=dict)
    traffic: Optional["TrafficModel"] = None
    faults: Optional["FaultPlan"] = None
    aggregation: Optional["AggSpec"] = None
    shards: int = 1
    tenants: Tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        if not self.exp_id:
            raise ValueError("exp_id must be non-empty")
        if self.version != SPEC_VERSION:
            raise ValueError(
                f"ExperimentSpec version {self.version} is not "
                f"supported by api {__api_version__} "
                f"(expected {SPEC_VERSION})")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.traffic is not None:
            from repro.traffic.model import TrafficModel
            if not isinstance(self.traffic, TrafficModel):
                raise TypeError(
                    "traffic must be a repro.traffic.TrafficModel "
                    f"(got {type(self.traffic).__name__})")
        if self.faults is not None:
            from repro.faults import FaultPlan
            if not isinstance(self.faults, FaultPlan):
                raise TypeError(
                    "faults must be a repro.faults.FaultPlan "
                    f"(got {type(self.faults).__name__})")
        if self.aggregation is not None:
            from repro.agg import AggSpec
            if not isinstance(self.aggregation, AggSpec):
                raise TypeError(
                    "aggregation must be a repro.agg.AggSpec "
                    f"(got {type(self.aggregation).__name__})")
        object.__setattr__(self, "tenants", tuple(self.tenants))
        if self.tenants:
            from repro.tenancy import TenantSpec
            for t in self.tenants:
                if not isinstance(t, (str, TenantSpec)):
                    raise TypeError(
                        "tenants entries must be workload names or "
                        "repro.tenancy.TenantSpec objects "
                        f"(got {type(t).__name__})")


@dataclass(frozen=True)
class RunOptions:
    """Execution options shared by every facade entry point.

    ``workers`` > 1 fans independent points across a process pool;
    ``cache_dir`` memoises finished points on disk.  Both leave results
    bit-identical to a serial, uncached run (the golden harness checks
    exactly that).
    """

    workers: int = 1
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def executor(self) -> "Executor":
        """The :class:`~repro.exec.Executor` these options describe."""
        from repro.exec import Executor
        return Executor(workers=self.workers, cache_dir=self.cache_dir)


@dataclass(frozen=True)
class GoldenVerdict:
    """Outcome of :func:`verify_goldens`."""

    ok: bool
    #: per-figure compare reports (empty in record mode)
    reports: Tuple["FigReport", ...] = ()
    #: per-(figure, axis) determinism reports (when axes were requested)
    axis_reports: Tuple["AxisReport", ...] = ()
    #: ``{fig: path}`` of snapshots written (record mode only)
    recorded: Mapping[str, str] = field(default_factory=dict)

    def describe(self) -> str:
        lines = [r.describe() for r in self.reports]
        lines += [r.describe() for r in self.axis_reports]
        lines += [f"recorded {fig}: {path}"
                  for fig, path in sorted(self.recorded.items())]
        lines.append("verify: ok" if self.ok else "verify: FAILED")
        return "\n".join(lines)


def _executor(options: Optional[RunOptions]) -> "Executor":
    return (options or RunOptions()).executor()


# ------------------------------------------------- spec serialisation ---

def spec_to_dict(*, spec: ExperimentSpec) -> Dict[str, Any]:
    """The spec as a JSON-able mapping (the ``repro submit
    --spec-file`` wire format).  ``traffic`` models are live objects
    with no stable wire form and raise."""
    import dataclasses
    if not isinstance(spec, ExperimentSpec):
        raise TypeError(f"spec must be an ExperimentSpec, "
                        f"got {type(spec).__name__}")
    if spec.traffic is not None:
        raise ValueError(
            "ExperimentSpec.traffic is not serialisable; rebuild it "
            "at the receiving end with api.build_traffic")
    out: Dict[str, Any] = {"exp_id": spec.exp_id,
                           "version": spec.version,
                           "params": dict(spec.params)}
    if spec.cluster:
        out["cluster"] = dict(spec.cluster)
    if spec.faults is not None:
        out["faults"] = dataclasses.asdict(spec.faults)
    if spec.aggregation is not None:
        out["aggregation"] = dataclasses.asdict(spec.aggregation)
    if spec.shards != 1:
        out["shards"] = spec.shards
    if spec.tenants:
        from repro.tenancy import spec_to_dict as _tenant_to_dict
        out["tenants"] = [t if isinstance(t, str)
                          else _tenant_to_dict(t)
                          for t in spec.tenants]
    return out


def spec_from_dict(*, data: Mapping[str, Any]) -> ExperimentSpec:
    """An :class:`ExperimentSpec` from :func:`spec_to_dict` output."""
    data = dict(data)
    kwargs: Dict[str, Any] = {
        "exp_id": data.pop("exp_id", ""),
        "version": int(data.pop("version", SPEC_VERSION)),
        "params": dict(data.pop("params", {}) or {}),
        "cluster": dict(data.pop("cluster", {}) or {}),
        "shards": int(data.pop("shards", 1)),
    }
    faults = data.pop("faults", None)
    if faults is not None:
        from repro.faults import FaultPlan
        faults = dict(faults)
        if "outages" in faults:
            faults["outages"] = tuple(
                tuple(o) for o in faults["outages"])
        kwargs["faults"] = FaultPlan(**faults)
    aggregation = data.pop("aggregation", None)
    if aggregation is not None:
        from repro.agg import AggSpec
        kwargs["aggregation"] = AggSpec(**dict(aggregation))
    tenants = data.pop("tenants", None)
    if tenants:
        from repro.tenancy import spec_from_dict as _tenant_from_dict
        kwargs["tenants"] = tuple(
            t if isinstance(t, str) else _tenant_from_dict(t)
            for t in tenants)
    if data:
        raise ValueError(
            f"unknown ExperimentSpec field(s): {sorted(data)}")
    return ExperimentSpec(**kwargs)


# ------------------------------------------------------------- builders ---

def build_cluster(*, n_nodes: int = 32, seed: int = 2017,
                  ib_contention: bool = True,
                  trace: bool = False, **overrides: Any) -> "ClusterSpec":
    """A :class:`~repro.core.cluster.ClusterSpec` by keyword.

    Extra keywords pass through to the spec (``dv``, ``ib``, ``node``
    configs).
    """
    from repro.core.cluster import ClusterSpec
    return ClusterSpec(n_nodes=n_nodes, seed=seed,
                       ib_contention=ib_contention, trace=trace,
                       **overrides)


def build_traffic(*, dist: str = "uniform",
                  dist_params: Optional[Mapping[str, Any]] = None,
                  arrivals: str = "closed",
                  arrival_params: Optional[Mapping[str, Any]] = None
                  ) -> "TrafficModel":
    """A :class:`~repro.traffic.TrafficModel` by registry names.

    ``dist`` picks the destination distribution (``uniform`` /
    ``hotset`` / ``zipf`` / ``trace``), ``arrivals`` the arrival
    process (``closed`` / ``poisson`` / ``mmpp`` / ``trace``); the
    params mappings pass through to the constructors.  Hand the result
    to :func:`build_cluster` via ``traffic=`` — the traffic-aware
    kernels (GUPS, BFS) honour it, and ``None`` keeps every legacy
    path byte-for-byte (see docs/traffic.md).
    """
    from repro.traffic.model import model_from_names
    return model_from_names(
        dist=dist,
        dist_params=dict(dist_params) if dist_params else None,
        arrivals=arrivals,
        arrival_params=dict(arrival_params) if arrival_params else None)


# ------------------------------------------------------------ the verbs ---

def _merged_params(spec: ExperimentSpec) -> Dict[str, Any]:
    """``params`` with the ``cluster`` convenience mapping folded in
    (duplicate keys are a spec error, never a silent override)."""
    merged = dict(spec.params)
    clash = sorted(set(merged) & set(spec.cluster))
    if clash:
        raise ValueError(
            f"key(s) {', '.join(clash)} appear in both params and "
            f"cluster; pick one")
    merged.update(spec.cluster)
    return merged


def _run_sweep_spec(spec: ExperimentSpec, name: str,
                    options: Optional[RunOptions]) -> "Table":
    """The named-sweep arm of :func:`run`: params are ``axes`` /
    ``fixed`` mappings, the session-scoped spec fields stay empty."""
    from repro.core.sweep import NAMED_SWEEPS, named_sweep
    if (spec.traffic is not None or spec.faults is not None
            or spec.aggregation is not None or spec.shards != 1
            or spec.tenants):
        raise ValueError(
            "named sweeps take only params={'axes': ..., 'fixed': ...}; "
            "traffic/faults/aggregation/shards/tenants do not apply")
    params = _merged_params(spec)
    axes = params.pop("axes", None)
    fixed = params.pop("fixed", None)
    if params:
        raise ValueError(
            f"unknown sweep param(s) {sorted(params)}; named sweeps "
            f"take 'axes' and 'fixed'")
    sw_spec = NAMED_SWEEPS[name]
    sw = named_sweep(name, axes=dict(axes) if axes else None,
                     fixed=dict(fixed) if fixed else None)
    return sw.run_table(sw_spec["title"], sw_spec["columns"],
                        executor=_executor(options))


def run(*, spec: ExperimentSpec,
        options: Optional[RunOptions] = None) -> "Table":
    """Run one :class:`ExperimentSpec` in-process and return its table.

    Resolution: ``exp_id`` is looked up in the experiment registry,
    then in the named sweeps (``sweep:<name>`` forces the latter).

    Field threading — for each non-default spec field, in order:

    * ``faults`` → the runner's ``plan=`` keyword when its signature
      accepts one, else a scoped :func:`repro.faults.session`;
    * ``shards`` → the runner's ``shards=`` keyword, else
      :func:`repro.sim.pdes.session`;
    * ``tenants`` → the runner's ``tenants=`` keyword; there is no
      tenancy session, so a runner without one rejects the field;
    * ``aggregation`` → a scoped :func:`repro.agg.session` (no runner
      takes it directly);
    * ``traffic`` → the runner's ``traffic=`` keyword; models are
      process-local objects, so there is no session fallback.

    Scoped sessions are process-global and invisible to pool workers,
    so any session fallback combined with ``RunOptions(workers > 1)``
    raises instead of silently dropping the field.
    """
    import contextlib
    import inspect

    if not isinstance(spec, ExperimentSpec):
        raise TypeError(f"spec must be an ExperimentSpec, "
                        f"got {type(spec).__name__}")
    from repro.core.experiments import REGISTRY, run_experiment
    from repro.core.sweep import NAMED_SWEEPS

    exp_id = spec.exp_id
    if exp_id.startswith("sweep:"):
        name = exp_id[len("sweep:"):]
        if name not in NAMED_SWEEPS:
            raise KeyError(f"unknown sweep {name!r}; known: "
                           f"{', '.join(sorted(NAMED_SWEEPS))}")
        return _run_sweep_spec(spec, name, options)
    if exp_id not in REGISTRY:
        if exp_id in NAMED_SWEEPS:
            return _run_sweep_spec(spec, exp_id, options)
        raise KeyError(
            f"unknown experiment {exp_id!r}; known experiments: "
            f"{sorted(REGISTRY)}; known sweeps: "
            f"{sorted(NAMED_SWEEPS)}")

    runner = REGISTRY[exp_id].runner
    if runner is None:
        raise ValueError(f"{exp_id} has no table runner "
                         f"(see {REGISTRY[exp_id].bench})")
    sig = inspect.signature(runner)
    has_kwargs = any(p.kind is inspect.Parameter.VAR_KEYWORD
                     for p in sig.parameters.values())

    def accepts(kw: str) -> bool:
        return kw in sig.parameters or has_kwargs

    params = _merged_params(spec)

    def thread(kw: str, value: Any, label: str) -> bool:
        """Put ``value`` in ``params[kw]`` when the runner takes it;
        returns False when the caller must fall back to a session."""
        if not accepts(kw):
            return False
        if kw in params:
            raise ValueError(
                f"spec.{label} conflicts with params[{kw!r}]; "
                f"pick one")
        params[kw] = value
        return True

    stack = contextlib.ExitStack()
    sessions: List[str] = []
    with stack:
        if spec.faults is not None and not thread("plan", spec.faults,
                                                  "faults"):
            from repro import faults as faults_mod
            stack.enter_context(faults_mod.session(spec.faults))
            sessions.append("faults")
        if spec.shards != 1 and not thread("shards", spec.shards,
                                           "shards"):
            from repro.sim import pdes
            stack.enter_context(pdes.session(spec.shards))
            sessions.append("shards")
        if spec.tenants and not thread("tenants", list(spec.tenants),
                                       "tenants"):
            raise ValueError(
                f"experiment {exp_id!r} does not take tenants "
                f"(no tenants= keyword); see fig_interference")
        if spec.aggregation is not None and not thread(
                "aggregation", spec.aggregation, "aggregation"):
            from repro import agg
            stack.enter_context(agg.session(spec.aggregation))
            sessions.append("aggregation")
        if spec.traffic is not None and not thread("traffic",
                                                   spec.traffic,
                                                   "traffic"):
            raise ValueError(
                f"experiment {exp_id!r} does not take a traffic "
                f"model (no traffic= keyword); build the ClusterSpec "
                f"yourself via api.build_cluster(traffic=...)")
        if sessions and options is not None and options.workers > 1:
            raise ValueError(
                f"spec field(s) {', '.join(sessions)} fall back to "
                f"process-global sessions for {exp_id!r}, which pool "
                f"workers cannot see; use RunOptions(workers=1)")
        return run_experiment(exp_id, executor=_executor(options),
                              **params)


def run_figures(*, exp_ids: Sequence[str],
                options: Optional[RunOptions] = None,
                **params: Any) -> Dict[str, "Table"]:
    """Several figures at once, fanned across the options' worker pool
    (each figure is one point)."""
    from repro.core.experiments import run_experiments
    return run_experiments(exp_ids, executor=_executor(options),
                           **params)


def verify_goldens(*, mode: str = "compare",
                   figs: Optional[Sequence[str]] = None,
                   goldens_dir: str = "goldens",
                   axes: Sequence[str] = (),
                   options: Optional[RunOptions] = None) -> GoldenVerdict:
    """The golden-results gate, as a library call.

    ``mode="compare"`` recomputes the pinned figure configs and diffs
    them cell-by-cell against the committed snapshots (plus the
    determinism harness for any requested ``axes``);
    ``mode="record"`` refreshes the snapshots instead.
    """
    from repro.golden import (GOLDEN_CONFIGS, GoldenStore,
                              compare_goldens, record_goldens,
                              run_harness)
    if mode not in ("compare", "record"):
        raise ValueError(f'mode must be "compare" or "record", '
                         f'got {mode!r}')
    figs = list(figs) if figs else sorted(GOLDEN_CONFIGS)
    unknown = [f for f in figs if f not in GOLDEN_CONFIGS]
    if unknown:
        raise KeyError(f"no golden config for {', '.join(unknown)}; "
                       f"known: {', '.join(sorted(GOLDEN_CONFIGS))}")
    store = GoldenStore(goldens_dir)
    executor = _executor(options)
    if mode == "record":
        paths = record_goldens(store, figs, executor)
        return GoldenVerdict(ok=True, recorded=paths)
    reports = tuple(compare_goldens(store, figs, executor))
    axis_reports = tuple(run_harness(figs, list(axes))) if axes else ()
    ok = all(r.ok for r in reports) and all(r.ok for r in axis_reports)
    return GoldenVerdict(ok=ok, reports=reports,
                         axis_reports=axis_reports)


# -------------------------------------------------- experiment service ---

def _service_client(endpoint: Optional[str], state_dir: str,
                    goldens_dir: str):
    """A ServiceClient for ``endpoint`` ("host:port"), else the
    socket-free InlineClient on ``state_dir`` (docs/service.md)."""
    if endpoint:
        from repro.service import ServiceClient, parse_endpoint
        return ServiceClient(*parse_endpoint(endpoint))
    from repro.service import InlineClient
    return InlineClient(state_dir, goldens_dir=goldens_dir)


def submit(*, spec: ExperimentSpec, priority: int = 0,
           endpoint: Optional[str] = None,
           state_dir: str = ".repro-service",
           goldens_dir: str = "goldens") -> Dict[str, Any]:
    """Submit one :class:`ExperimentSpec` to the experiment service.

    With ``endpoint="host:port"`` the spec goes to a running ``repro
    serve`` daemon and this returns as soon as the job is queued (or
    attached to an identical in-flight job — see the ``attached``
    flag); without one, the socket-free inline mode runs the job to
    completion in-process under ``state_dir``.  Returns the job status
    mapping (``job_id``, ``state``, ``attached``, ...).

    Service jobs serialise to (exp_id, params), so the session-scoped
    spec fields must be expressible as runner keywords: ``tenants``
    threads to runners with a ``tenants=`` keyword (workload names
    only), and ``traffic`` / ``faults`` / ``aggregation`` / ``shards``
    are rejected — run those through :func:`run`.
    """
    import inspect
    if not isinstance(spec, ExperimentSpec):
        raise TypeError(f"spec must be an ExperimentSpec, "
                        f"got {type(spec).__name__}")
    blocked = [n for n, v in (("traffic", spec.traffic),
                              ("faults", spec.faults),
                              ("aggregation", spec.aggregation))
               if v is not None]
    if spec.shards != 1:
        blocked.append("shards")
    if blocked:
        raise ValueError(
            f"spec field(s) {', '.join(blocked)} cannot ride a "
            f"service job (jobs serialise to exp_id + params); "
            f"use api.run for those")
    params = _merged_params(spec)
    if spec.tenants:
        if not all(isinstance(t, str) for t in spec.tenants):
            raise ValueError(
                "service jobs take tenants as workload names only "
                "(TenantSpec objects do not serialise into a job)")
        from repro.core.experiments import REGISTRY
        exp = REGISTRY.get(spec.exp_id)
        if exp is None or exp.runner is None or "tenants" not in \
                inspect.signature(exp.runner).parameters:
            raise ValueError(
                f"experiment {spec.exp_id!r} does not take tenants")
        if "tenants" in params:
            raise ValueError(
                "spec.tenants conflicts with params['tenants']; "
                "pick one")
        params["tenants"] = list(spec.tenants)
    client = _service_client(endpoint, state_dir, goldens_dir)
    return client.submit(spec.exp_id, params=params, priority=priority)


def poll(*, job_id: str, endpoint: Optional[str] = None,
         state_dir: str = ".repro-service",
         goldens_dir: str = "goldens") -> Dict[str, Any]:
    """The current status mapping of a submitted job."""
    client = _service_client(endpoint, state_dir, goldens_dir)
    return client.status(job_id)


def collect(*, job_id: str, endpoint: Optional[str] = None,
            state_dir: str = ".repro-service",
            goldens_dir: str = "goldens",
            timeout: Optional[float] = None,
            require_published: bool = True) -> "Table":
    """The finished job's result table.

    Blocks (daemon mode) until the job is terminal.  A result the
    golden gate refused to publish raises ``ServiceError`` with the
    cell diffs unless ``require_published=False``.
    """
    from repro.core.report import Table
    from repro.service import ServiceError
    client = _service_client(endpoint, state_dir, goldens_dir)
    record = client.collect(job_id, timeout=timeout)
    if require_published and not record.get("published"):
        diffs = record.get("golden", {}).get("diffs", [])
        raise ServiceError(
            f"job {job_id!r} result was not published "
            f"(golden gate refused): " + "; ".join(diffs))
    return Table.from_dict(record["table"])


# ------------------------------------------------------ 1.x shims (2.0) ---

def _deprecated(old: str, new: str) -> None:
    warnings.warn(
        f"repro.api.{old} is deprecated since api 2.0.0 and will be "
        f"removed in 3.0; use {new} with an ExperimentSpec instead",
        DeprecationWarning, stacklevel=3)


def run_figure(*, exp_id: Optional[str] = None,
               spec: Optional[ExperimentSpec] = None,
               options: Optional[RunOptions] = None,
               **params: Any) -> "Table":
    """Deprecated 1.x entry point: use :func:`run`."""
    _deprecated("run_figure", "api.run")
    if (exp_id is None) == (spec is None):
        raise ValueError("pass exactly one of exp_id= or spec=")
    if spec is not None:
        if params:
            raise ValueError("params go inside ExperimentSpec when "
                             "spec= is used")
    else:
        spec = ExperimentSpec(exp_id=exp_id, params=params)
    return run(spec=spec, options=options)


def run_sweep(*, name: str,
              axes: Optional[Mapping[str, Sequence[Any]]] = None,
              fixed: Optional[Mapping[str, Any]] = None,
              options: Optional[RunOptions] = None) -> "Table":
    """Deprecated 1.x entry point: use :func:`run` with
    ``exp_id="sweep:<name>"``."""
    _deprecated("run_sweep", "api.run")
    params: Dict[str, Any] = {}
    if axes is not None:
        params["axes"] = dict(axes)
    if fixed is not None:
        params["fixed"] = dict(fixed)
    return run(spec=ExperimentSpec(exp_id=f"sweep:{name}",
                                   params=params), options=options)


def run_scaleout(*, workloads: Optional[Sequence[str]] = None,
                 nodes: Optional[Sequence[int]] = None,
                 fabrics: Optional[Sequence[str]] = None,
                 seed: int = 2017,
                 plan: Optional["FaultPlan"] = None,
                 shards: int = 1,
                 options: Optional[RunOptions] = None,
                 **overrides: Any) -> "Table":
    """Deprecated 1.x entry point: use :func:`run` with
    ``exp_id="fig_scaleout"``."""
    _deprecated("run_scaleout", "api.run")
    params: Dict[str, Any] = dict(seed=seed, **overrides)
    if workloads is not None:
        params["workloads"] = tuple(workloads)
    if nodes is not None:
        params["nodes"] = tuple(nodes)
    if fabrics is not None:
        params["fabrics"] = tuple(fabrics)
    return run(spec=ExperimentSpec(exp_id="fig_scaleout",
                                   params=params, faults=plan,
                                   shards=shards), options=options)


def run_skew(*, nodes: int = 4, seed: int = 2017,
             exponents: Optional[Sequence[float]] = None,
             include_hotset: bool = True,
             table_words: int = 1 << 12, n_updates: int = 1 << 9,
             window: int = 256,
             options: Optional[RunOptions] = None) -> "Table":
    """Deprecated 1.x entry point: use :func:`run` with
    ``exp_id="fig_skew"``."""
    _deprecated("run_skew", "api.run")
    params: Dict[str, Any] = dict(
        nodes=nodes, seed=seed, include_hotset=include_hotset,
        table_words=table_words, n_updates=n_updates, window=window)
    if exponents is not None:
        params["exponents"] = tuple(exponents)
    return run(spec=ExperimentSpec(exp_id="fig_skew", params=params),
               options=options)


def run_agg(*, nodes: int = 8, seed: int = 2017,
            exponents: Optional[Sequence[float]] = None,
            include_hotset: bool = True,
            watermarks: Optional[Sequence[int]] = None,
            routing: str = "direct",
            table_words: int = 1 << 10, n_updates: int = 1 << 12,
            window: int = 64,
            options: Optional[RunOptions] = None) -> "Table":
    """Deprecated 1.x entry point: use :func:`run` with
    ``exp_id="fig_agg"``."""
    _deprecated("run_agg", "api.run")
    params: Dict[str, Any] = dict(
        nodes=nodes, seed=seed, include_hotset=include_hotset,
        routing=routing, table_words=table_words, n_updates=n_updates,
        window=window)
    if exponents is not None:
        params["exponents"] = tuple(exponents)
    if watermarks is not None:
        params["watermarks"] = tuple(watermarks)
    return run(spec=ExperimentSpec(exp_id="fig_agg", params=params),
               options=options)


def submit_experiment(*, exp_id: Optional[str] = None,
                      params: Optional[Mapping[str, Any]] = None,
                      spec: Optional[ExperimentSpec] = None,
                      priority: int = 0,
                      endpoint: Optional[str] = None,
                      state_dir: str = ".repro-service",
                      goldens_dir: str = "goldens") -> Dict[str, Any]:
    """Deprecated 1.x entry point: use :func:`submit`."""
    _deprecated("submit_experiment", "api.submit")
    if (exp_id is None) == (spec is None):
        raise ValueError("pass exactly one of exp_id= or spec=")
    if spec is not None:
        if params:
            raise ValueError("params go inside ExperimentSpec when "
                             "spec= is used")
    else:
        spec = ExperimentSpec(exp_id=exp_id, params=dict(params or {}))
    return submit(spec=spec, priority=priority, endpoint=endpoint,
                  state_dir=state_dir, goldens_dir=goldens_dir)

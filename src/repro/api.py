"""The stable programmatic facade over the repro stack (api 6.0).

One spec, one run verb.  Everything a driver needs — regenerating
paper figures, 64-1024-node projections, skew / aggregation /
interference matrices — is a registry experiment
(:data:`repro.core.experiments.REGISTRY`), expressed as a versioned
:class:`ExperimentSpec` and handed to :func:`run`;
:func:`verify_goldens` is the golden gate:

>>> import repro.api as api
>>> t = api.run(spec=api.ExperimentSpec(
...     exp_id="fig4", params={"nodes": (2, 4)}))
>>> t.columns
['nodes', 'dv', 'dv_fast', 'mpi']

The spec carries the *whole* request: registry id, runner params,
cluster overrides, a fault plan, and co-scheduled tenant workloads.
:func:`run` threads each field to the experiment runner when its
signature accepts the matching keyword (``plan=``, ``tenants=``); a
fault plan falls back to the scoped :func:`repro.faults.session`
otherwise — sessions are process-global, so combining one with
``RunOptions(workers>1)`` is an error rather than a silent no-op in
the pool workers.  Aggregation is not a spec field: it is a
cluster input (``ClusterSpec.aggregation``), swept by ``fig_agg``.

The facade is versioned independently of the package
(:data:`__api_version__`, semver).  2.0.0 was the spec-surface
redesign; 3.0.0 removed the six 1.x entry points it had kept as shims;
4.0.0 removed the synchronous experiment service (``submit``,
``poll``, ``collect``), whose jobs were plain :func:`run` calls;
5.0.0 removed the named sweeps, which recomputed registry figures,
and the spec inputs no runner could take (``traffic``,
:class:`~repro.tenancy.TenantSpec` tenants); 6.0.0 removed
``aggregation``, which no runner took either and whose session
fallback aggregated some figures and silently ignored others.
docs/api.md has the migration tables.  Only names in
:data:`__all__` are covered by the contract.  Every public callable
takes keyword-only arguments
(enforced by ``tools/check_api_signatures.py`` in ``make lint``).
Heavy imports happen inside the functions: ``import repro.api`` is
cheap, and the lazy imports also break the cycle with the golden
harness, which runs its figures through :func:`_figure_point`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Mapping, Optional,
                    Sequence, Tuple)

__api_version__ = "6.0.0"

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
    "run_figures",
    "verify_goldens",
]

#: Spec schema version :func:`run` understands (bumped whenever the
#: spec's fields change; docs/api.md lists each bump).
SPEC_VERSION = 4


# ----------------------------------------------------------- datatypes ---

@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment request, complete.

    ``exp_id`` names a registry experiment
    (:data:`repro.core.experiments.REGISTRY`).  ``params`` go to the
    runner verbatim; ``cluster`` is a convenience mapping merged into
    them (a key in both is an error, not a silent override).

    The remaining fields are optional: a
    :class:`~repro.faults.FaultPlan` and ``tenants`` — workload names
    for runners that co-schedule (the ``fig_interference`` idiom).
    :func:`run` threads each to the runner's matching keyword or a
    scoped session; see its docstring for the rules.
    """

    exp_id: str
    params: Mapping[str, Any] = field(default_factory=dict)
    version: int = SPEC_VERSION
    cluster: Mapping[str, Any] = field(default_factory=dict)
    faults: Optional["FaultPlan"] = None
    tenants: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.exp_id:
            raise ValueError("exp_id must be non-empty")
        if self.version != SPEC_VERSION:
            raise ValueError(
                f"ExperimentSpec version {self.version} is not "
                f"supported by api {__api_version__} "
                f"(expected {SPEC_VERSION})")
        if self.faults is not None:
            from repro.faults import FaultPlan
            if not isinstance(self.faults, FaultPlan):
                raise TypeError(
                    "faults must be a repro.faults.FaultPlan "
                    f"(got {type(self.faults).__name__})")
        object.__setattr__(self, "tenants", tuple(self.tenants))
        for t in self.tenants:
            if not isinstance(t, str):
                raise TypeError(
                    "tenants entries must be workload names "
                    f"(got {type(t).__name__}; co-schedule TenantSpec "
                    f"objects with repro.tenancy.run_cotenants)")


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
    """The spec as a JSON-able mapping (the ``repro run --spec-file``
    wire format)."""
    import dataclasses
    if not isinstance(spec, ExperimentSpec):
        raise TypeError(f"spec must be an ExperimentSpec, "
                        f"got {type(spec).__name__}")
    out: Dict[str, Any] = {"exp_id": spec.exp_id,
                           "version": spec.version,
                           "params": dict(spec.params)}
    if spec.cluster:
        out["cluster"] = dict(spec.cluster)
    if spec.faults is not None:
        out["faults"] = dataclasses.asdict(spec.faults)
    if spec.tenants:
        out["tenants"] = list(spec.tenants)
    return out


def spec_from_dict(*, data: Mapping[str, Any]) -> ExperimentSpec:
    """An :class:`ExperimentSpec` from :func:`spec_to_dict` output."""
    data = dict(data)
    kwargs: Dict[str, Any] = {
        "exp_id": data.pop("exp_id", ""),
        "version": int(data.pop("version", SPEC_VERSION)),
        "params": dict(data.pop("params", {}) or {}),
        "cluster": dict(data.pop("cluster", {}) or {}),
        "tenants": tuple(data.pop("tenants", None) or ()),
    }
    faults = data.pop("faults", None)
    if faults is not None:
        from repro.faults import FaultPlan
        faults = dict(faults)
        if "outages" in faults:
            faults["outages"] = tuple(
                tuple(o) for o in faults["outages"])
        kwargs["faults"] = FaultPlan(**faults)
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


def _checked_params(spec: ExperimentSpec
                    ) -> Tuple[Dict[str, Any], Callable[[str], bool]]:
    """``spec``'s merged params, checked against its registry runner's
    signature, and the runner's keyword test.

    Raises before anything runs: ``KeyError`` for an unknown id,
    ``ValueError`` for a runner-less id or a key the runner does not
    take.  ``executor`` is never a params key (:class:`RunOptions`
    owns it); runners with ``**kwargs`` check their own other keys.
    """
    import inspect
    from repro.core.experiments import REGISTRY

    exp = REGISTRY.get(spec.exp_id)
    if exp is None:
        raise KeyError(f"unknown experiment {spec.exp_id!r}; "
                       f"known: {sorted(REGISTRY)}")
    if exp.runner is None:
        raise ValueError(f"{spec.exp_id} has no table runner "
                         f"(see {exp.bench})")
    sig = inspect.signature(exp.runner)
    has_kwargs = any(p.kind is inspect.Parameter.VAR_KEYWORD
                     for p in sig.parameters.values())

    def accepts(kw: str) -> bool:
        return kw != "executor" and (kw in sig.parameters or has_kwargs)

    params = _merged_params(spec)
    unknown = sorted(k for k in params if not accepts(k))
    if unknown:
        named = [p.name for p in sig.parameters.values()
                 if p.name != "executor"
                 and p.kind is not inspect.Parameter.VAR_KEYWORD]
        raise ValueError(
            f"experiment {spec.exp_id!r} takes no param(s) "
            f"{', '.join(map(repr, unknown))}; it takes "
            f"{', '.join(named)}"
            + ("; other keys go to its kernels" if has_kwargs else ""))
    return params, accepts


def run(*, spec: ExperimentSpec,
        options: Optional[RunOptions] = None) -> "Table":
    """Run one :class:`ExperimentSpec` in-process and return its table.

    ``exp_id`` is looked up in the experiment registry.  A ``params``
    (or ``cluster``) key the runner's signature does not take raises
    ``ValueError`` before anything runs.

    Field threading — for each non-default spec field, in order:

    * ``faults`` → the runner's ``plan=`` keyword when its signature
      accepts one, else a scoped :func:`repro.faults.session`;
    * ``tenants`` → the runner's ``tenants=`` keyword; there is no
      tenancy session, so a runner without one rejects the field.

    Scoped sessions are process-global and invisible to pool workers,
    so the fault-session fallback combined with
    ``RunOptions(workers > 1)`` raises instead of silently dropping
    the field.
    """
    import contextlib

    if not isinstance(spec, ExperimentSpec):
        raise TypeError(f"spec must be an ExperimentSpec, "
                        f"got {type(spec).__name__}")
    from repro.core.experiments import run_experiment

    exp_id = spec.exp_id
    params, accepts = _checked_params(spec)

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

    session = contextlib.nullcontext()
    if spec.faults is not None and not thread("plan", spec.faults,
                                              "faults"):
        if options is not None and options.workers > 1:
            raise ValueError(
                f"spec.faults falls back to process-global sessions "
                f"for {exp_id!r}, which pool workers cannot see; use "
                f"RunOptions(workers=1)")
        from repro import faults as faults_mod
        session = faults_mod.session(spec.faults)
    if spec.tenants and not thread("tenants", list(spec.tenants),
                                   "tenants"):
        raise ValueError(
            f"experiment {exp_id!r} does not take tenants "
            f"(no tenants= keyword); see fig_interference")
    with session:
        return run_experiment(exp_id, executor=_executor(options),
                              **params)


def _figure_point(fig: str, **params: Any) -> "Table":
    """One whole figure as an executor point: :func:`run` on
    ``ExperimentSpec(fig, params)``.

    Module-level so figure grids pickle into pool workers; it is the
    one point :func:`run_figures` and the golden harness both map, so
    the goldens pin exactly what the public surface computes.
    """
    return run(spec=ExperimentSpec(exp_id=fig, params=params))


def run_figures(*, exp_ids: Sequence[str],
                options: Optional[RunOptions] = None,
                **params: Any) -> Dict[str, "Table"]:
    """Several figures at once, fanned across the options' worker pool
    (each figure is one point, all sharing ``params``).  Every id's
    params pass :func:`run`'s key check before any figure runs."""
    for exp_id in exp_ids:
        _checked_params(ExperimentSpec(exp_id=exp_id, params=params))
    tables = _executor(options).map(
        _figure_point, [{"fig": e, **params} for e in exp_ids],
        name="experiment.batch")
    return dict(zip(exp_ids, tables))


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

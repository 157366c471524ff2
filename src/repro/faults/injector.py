"""Injection sites and the process-wide fault switchboard.

Mirror image of :mod:`repro.obs.registry`: **handles are resolved at
construction time, injection is guarded at run time**.  A component asks
for its site when it is built (``faults.site("dv.pcie")``); while no
:class:`~repro.faults.plan.FaultPlan` is installed that returns ``None``
and the component's hot path pays a single ``is not None`` test — no
RNG draws, no dictionary lookups, no timing perturbation (the
faults-disabled differential tests and the perf-regression guard pin
both properties).

Determinism: every site draws from
``numpy.random.default_rng(derive_seed(plan.seed, "faults", name))``.
Sites are created fresh per :func:`install` and the discrete-event
engine replays the same call sequence for the same simulation seed, so
one plan + one simulation seed reproduces the exact same drops,
corruptions, stalls and retry counts — run to run and regardless of how
many worker processes an executor spreads the points over (each point
installs its own plan inside its own process).

Fault activity is exported through :mod:`repro.obs` when a metrics
session is active: ``faults.packets_dropped``, ``faults.packets_corrupted``,
``faults.link_outage_drops``, ``faults.node_outage_drops``,
``faults.dma_stalls``, ``faults.pcie_delay_s`` and ``faults.ib_retries``,
labelled by site.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.faults.plan import FaultPlan, IB_MAX_RETRIES
from repro.obs import registry as obsreg
from repro.sim.rng import derive_seed

__all__ = [
    "FaultSite", "install", "clear", "active", "enabled", "site", "session",
]


class FaultSite:
    """One named injection point bound to the installed plan.

    All components that resolve the same site name share one instance
    (and therefore one RNG stream), which keeps the draw sequence a pure
    function of the plan seed and the engine's deterministic call order.
    """

    __slots__ = ("name", "plan", "_rng", "_link_windows", "_node_windows",
                 "_c_dropped", "_c_corrupted", "_c_link", "_c_node",
                 "_c_dma", "_h_pcie", "_c_ib")

    def __init__(self, plan: FaultPlan, name: str) -> None:
        self.name = name
        self.plan = plan
        self._rng = np.random.default_rng(
            derive_seed(plan.seed, "faults", name))
        self._link_windows = _bucket(plan.link_outages)
        self._node_windows = _bucket(plan.node_outages)
        self._c_dropped = obsreg.counter("faults.packets_dropped", site=name)
        self._c_corrupted = obsreg.counter("faults.packets_corrupted",
                                           site=name)
        self._c_link = obsreg.counter("faults.link_outage_drops", site=name)
        self._c_node = obsreg.counter("faults.node_outage_drops", site=name)
        self._c_dma = obsreg.counter("faults.dma_stalls", site=name)
        self._h_pcie = obsreg.histogram("faults.pcie_delay_s", site=name)
        self._c_ib = obsreg.counter("faults.ib_retries", site=name)

    # -- packet loss / corruption -----------------------------------------
    def keep_mask(self, n: int) -> Optional[np.ndarray]:
        """Survivor mask for an ``n``-packet batch under ``drop_prob``.

        ``None`` means "keep everything" (the zero-probability fast path
        draws no randomness at all, preserving bit-identical runs under
        an all-zero plan).
        """
        p = self.plan.drop_prob
        if p <= 0.0:
            return None
        mask = self._rng.random(n) >= p
        lost = n - int(mask.sum())
        if lost == 0:
            return None
        self._c_dropped.inc(lost)
        return mask

    def corrupt_values(self, values: np.ndarray) -> Optional[np.ndarray]:
        """Copy of ``values`` with random single-bit flips, or ``None``
        when no word is corrupted this time."""
        p = self.plan.corrupt_prob
        if p <= 0.0:
            return None
        hit = self._rng.random(values.size) < p
        n_hit = int(hit.sum())
        if n_hit == 0:
            return None
        flips = np.left_shift(
            np.uint64(1),
            self._rng.integers(0, 64, n_hit).astype(np.uint64))
        out = values.copy()
        out[hit] ^= flips
        self._c_corrupted.inc(n_hit)
        return out

    # -- outage windows ----------------------------------------------------
    def link_down(self, port: int, t: float) -> bool:
        """Is ``port``'s switch link inside an outage window at ``t``?"""
        ws = self._link_windows.get(port)
        if ws is None:
            return False
        for t0, t1 in ws:
            if t0 <= t < t1:
                self._c_link.inc()
                return True
        return False

    def node_down(self, port: int, t: float) -> bool:
        """Is the VIC at ``port`` inside a node-outage window at ``t``?"""
        ws = self._node_windows.get(port)
        if ws is None:
            return False
        for t0, t1 in ws:
            if t0 <= t < t1:
                self._c_node.inc()
                return True
        return False

    @property
    def has_outages(self) -> bool:
        return bool(self._link_windows or self._node_windows)

    # -- host-side faults ----------------------------------------------------
    def dma_stall_s(self) -> float:
        """Extra seconds this DMA transaction stalls (usually 0)."""
        p = self.plan.dma_stall_prob
        if p <= 0.0 or self._rng.random() >= p:
            return 0.0
        self._c_dma.inc()
        return self.plan.dma_stall_s

    def pcie_delay_s(self) -> float:
        """Extra seconds this PIO access is delayed (usually 0)."""
        p = self.plan.pcie_delay_prob
        if p <= 0.0 or self._rng.random() >= p:
            return 0.0
        self._h_pcie.observe(self.plan.pcie_delay_s)
        return self.plan.pcie_delay_s

    # -- per-packet drop (cycle-switch link loss) ---------------------------
    def drop(self) -> bool:
        """One Bernoulli loss draw (link-level, per injected packet)."""
        p = self.plan.drop_prob
        if p <= 0.0 or self._rng.random() >= p:
            return False
        self._c_dropped.inc()
        return True

    # -- InfiniBand ---------------------------------------------------------
    def ib_retries(self) -> int:
        """Link-level CRC retries for one IB message (geometric, capped)."""
        p = self.plan.ib_drop_prob
        if p <= 0.0:
            return 0
        k = 0
        while k < IB_MAX_RETRIES and self._rng.random() < p:
            k += 1
        if k:
            self._c_ib.inc(k)
        return k


def _bucket(windows) -> Dict[int, List[Tuple[float, float]]]:
    out: Dict[int, List[Tuple[float, float]]] = {}
    for port, t0, t1 in windows:
        out.setdefault(int(port), []).append((float(t0), float(t1)))
    return out


# --------------------------------------------------------- global switch ---

_PLAN: Optional[FaultPlan] = None
_SITES: Dict[str, FaultSite] = {}


def enabled() -> bool:
    """Is a fault plan currently installed?"""
    return _PLAN is not None


def active() -> Optional[FaultPlan]:
    """The installed plan, or None while fault-free."""
    return _PLAN


def install(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` process-wide; sites are created fresh, so the
    plan's random streams restart from their seeds (install, build, run,
    snapshot — the same lifecycle as :func:`repro.obs.registry.enable`)."""
    global _PLAN, _SITES
    if not isinstance(plan, FaultPlan):
        raise TypeError(f"install() wants a FaultPlan, got {plan!r}")
    _PLAN = plan
    _SITES = {}
    return plan


def clear() -> None:
    """Remove the installed plan; components built afterwards get
    ``site() is None`` and inject nothing."""
    global _PLAN, _SITES
    _PLAN = None
    _SITES = {}


def site(name: str) -> Optional[FaultSite]:
    """Construction-time resolver: the named site while a plan is
    installed, ``None`` otherwise (the zero-cost disabled path)."""
    if _PLAN is None:
        return None
    s = _SITES.get(name)
    if s is None:
        s = FaultSite(_PLAN, name)
        _SITES[name] = s
    return s


@contextmanager
def session(plan: Optional[FaultPlan]):
    """Scoped install/clear restoring the previous plan.

    ``plan=None`` yields a fault-free scope (useful for differential
    tests that toggle faults around otherwise identical runs).
    """
    global _PLAN, _SITES
    prev_plan, prev_sites = _PLAN, _SITES
    if plan is None:
        _PLAN, _SITES = None, {}
    else:
        install(plan)
    try:
        yield _PLAN
    finally:
        _PLAN, _SITES = prev_plan, prev_sites

"""Aggregation parameters (:class:`AggSpec`).

The spec is a frozen dataclass of primitives so it hashes, pickles into
pool workers, and canonicalises into the exec result cache exactly like
:class:`~repro.core.cluster.ClusterSpec`'s other knobs.  ``None`` on the
cluster spec (the default) keeps every legacy kernel path byte-for-byte
— the goldens pin exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["AggSpec", "ROUTINGS"]

#: Valid software-routing modes: ``"direct"`` sends each coalesced
#: frame straight to its destination; ``"tree"`` forwards through one
#: intermediate rank per Träff's two-phase scheme, trading an extra hop
#: for fatter frames (each rank talks to ~2*sqrt(P) peers, not P-1).
ROUTINGS = ("direct", "tree")

#: Frame segments carry a 24-bit word count, so one flush can never
#: exceed this many words per destination.
MAX_WATERMARK = (1 << 20)


@dataclass(frozen=True)
class AggSpec:
    """Destination-coalescing parameters for the :mod:`repro.agg`
    runtime.

    ``watermark``
        Buffered words per next-hop that trigger a flush.  ``1``
        degenerates to send-per-update (useful for the off-vs-on
        result-identity tests); large values trade latency for fat
        messages.
    ``timeout_s``
        Optional age bound (simulated seconds): at every ``put`` any
        buffer whose oldest word has waited longer than this is flushed
        too, so a cold destination cannot hold its words hostage.
        ``None`` disables the timer.
    ``routing``
        ``"direct"`` or ``"tree"`` (see :data:`ROUTINGS`).
    """

    watermark: int = 64
    timeout_s: Optional[float] = None
    routing: str = "direct"

    def __post_init__(self) -> None:
        if not 1 <= self.watermark <= MAX_WATERMARK:
            raise ValueError(
                f"watermark must be in [1, {MAX_WATERMARK}], "
                f"got {self.watermark}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(
                f"timeout_s must be positive or None, "
                f"got {self.timeout_s}")
        if self.routing not in ROUTINGS:
            raise ValueError(
                f"routing must be one of {ROUTINGS}, "
                f"got {self.routing!r}")

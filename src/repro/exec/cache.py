"""Content-addressed on-disk cache for experiment results.

Every finished point (or whole figure table) is stored as one JSON file
named by the SHA-256 of its canonicalised identity::

    {"runner": "<module.qualname>", "params": {...}, "version": "1.0.0",
     "context": {"source": "<digest>", "faults": ...}}

so a cache entry is invalidated automatically when the runner, any
parameter, the repro package version, or the package's source code
changes, and a run under a fault session never reads the entry of a
run outside one (:func:`run_context`).  Values must be
JSON-serialisable; callers skip caching for points whose results are
not (e.g. a result carrying a live tracer object).

Parameter canonicalisation is strict: numpy scalars hash identically
to the Python numbers they equal (``np.int64(8)`` and ``8`` name the
same point — sweeps built from ``np.arange`` must warm-hit the cache
on re-run), arrays and dataclasses get a stable structural form, and
anything without a canonical form raises ``TypeError`` so the caller
runs the point uncached instead of silently keying on a ``repr`` that
can differ between processes.

A corrupted or truncated entry behaves like a miss — the point is
recomputed and the entry rewritten — never a crash.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro import __version__

__all__ = ["ResultCache", "cache_key", "run_context", "source_digest"]

_MISS = object()


def _json_default(obj: Any) -> Any:
    """Canonical JSON form for the non-JSON parameter types sweeps use.

    numpy scalars reduce to their Python equivalents (bool before
    integer: ``np.bool_`` subclasses ``np.generic`` only), arrays to
    nested lists, dataclasses to a type-tagged field dict.  Everything
    else raises ``TypeError``: an open file or tracer object has no
    stable identity, and hashing its ``repr`` (the old fallback) made
    the key depend on memory addresses — a guaranteed cold cache.
    """
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"__dataclass__": f"{type(obj).__module__}."
                                 f"{type(obj).__qualname__}",
                "fields": dataclasses.asdict(obj)}
    raise TypeError(
        f"cannot canonicalise {type(obj).__name__} for a cache key")


def _canonical(obj: Any) -> str:
    """Stable JSON text for hashing (sorted keys, strict defaults).

    Raises ``TypeError`` for parameters with no canonical form; callers
    treat that point as uncacheable rather than mis-keying it.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=_json_default)


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """SHA-256 over the ``repro`` package's Python sources.

    ``__version__`` is not bumped for every change that moves a
    result, so a warm cache keyed on it alone would serve tables
    computed by older code.  Computed once per process, on first use.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode("utf-8"))
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def run_context() -> Dict[str, Any]:
    """What decides a result besides (runner, params, version): the
    package sources and the one result-changing scoped session,
    :func:`repro.faults.session`.  Aggregation is a
    ``ClusterSpec`` field, so it is already in the params."""
    from repro import faults
    return {"source": source_digest(), "faults": faults.active()}


def cache_key(runner_name: str, params: Mapping[str, Any],
              version: str = __version__,
              context: Optional[Mapping[str, Any]] = None) -> str:
    """SHA-256 identity of one (runner, params, version) point, plus
    the :func:`run_context` when one is given."""
    ident: Dict[str, Any] = {"runner": runner_name,
                             "params": dict(params), "version": version}
    if context is not None:
        ident["context"] = dict(context)
    return hashlib.sha256(_canonical(ident).encode("utf-8")).hexdigest()


class ResultCache:
    """Directory of ``<key>.json`` result files plus hit/miss counters."""

    def __init__(self, root: str) -> None:
        self.root = str(root)
        self.hits = 0
        self.misses = 0
        os.makedirs(self.root, exist_ok=True)

    # -- paths -----------------------------------------------------------
    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def key(self, runner_name: str, params: Mapping[str, Any],
            version: str = __version__,
            context: Optional[Mapping[str, Any]] = None) -> str:
        return cache_key(runner_name, params, version, context)

    # -- storage ---------------------------------------------------------
    def get(self, key: str) -> Tuple[bool, Any]:
        """``(hit, value)``; corrupted entries count as misses."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
            value = entry["value"]
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return (False, None)
        self.hits += 1
        return (True, value)

    def put(self, key: str, value: Any,
            meta: Optional[Mapping[str, Any]] = None) -> bool:
        """Store ``value``; returns False if it is not JSON-serialisable.

        numpy scalars and arrays in the value are stored in their
        canonical Python form (a runner returning ``np.float64`` rates
        must still produce a warm-hittable entry)."""
        entry = {"key": key, "value": value}
        if meta:
            entry["meta"] = dict(meta)
        try:
            text = json.dumps(entry, default=_json_default)
        except (TypeError, ValueError):
            return False
        path = self._path(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)   # atomic: readers never see partial JSON
        return True

    # -- management ------------------------------------------------------
    def entries(self) -> int:
        return sum(1 for name in os.listdir(self.root)
                   if name.endswith(".json"))

    def invalidate(self, key: Optional[str] = None) -> int:
        """Drop one entry (or all of them); returns the number removed."""
        removed = 0
        if key is not None:
            try:
                os.remove(self._path(key))
                removed = 1
            except OSError:
                pass
            return removed
        for name in os.listdir(self.root):
            if name.endswith(".json"):
                try:
                    os.remove(os.path.join(self.root, name))
                    removed += 1
                except OSError:
                    pass
        return removed

    def stats(self) -> Dict[str, Any]:
        size = 0
        for name in os.listdir(self.root):
            if name.endswith(".json"):
                try:
                    size += os.path.getsize(os.path.join(self.root, name))
                except OSError:
                    pass
        return {"root": self.root, "entries": self.entries(),
                "bytes": size, "hits": self.hits, "misses": self.misses}

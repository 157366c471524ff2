"""Deterministic random-number plumbing.

Every stochastic component (workload generators, the fat-tree collision
model, Kronecker graph builder, ...) draws from a generator derived from a
single experiment seed via :func:`derive_seed`, so whole-cluster runs are
reproducible while distinct components never share a stream.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Union

import numpy as np

Seedable = Union[int, str]


def derive_seed(root: int, *path: Seedable) -> int:
    """Derive a 63-bit child seed from ``root`` and a label path.

    The derivation hashes the path, so ``derive_seed(s, "gups", rank)`` is
    stable across runs and uncorrelated between ranks.

    >>> derive_seed(42, "gups", 3) == derive_seed(42, "gups", 3)
    True
    >>> derive_seed(42, "gups", 3) != derive_seed(42, "gups", 4)
    True
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(root)).encode())
    for part in path:
        h.update(b"/")
        h.update(str(part).encode())
    return int.from_bytes(h.digest(), "little") & (2**63 - 1)


def rng_for(root: int, *path: Seedable) -> np.random.Generator:
    """NumPy generator seeded via :func:`derive_seed`."""
    return np.random.default_rng(derive_seed(root, *path))


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """``rng.standard_normal(shape) + 1j * rng.standard_normal(shape)``,
    bit for bit, built in one ``complex128`` array: the real parts are
    filled from the first draw, then the imaginary parts from the second,
    so at most one half-size draw is alive beside the result."""
    z = np.empty(shape, dtype=np.complex128)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    return z


class SeedSequenceFactory:
    """Hands out independent :class:`numpy.random.Generator` objects.

    Keeps the root seed in one place so experiment configs can expose a
    single ``seed`` knob.
    """

    def __init__(self, root: int = 0) -> None:
        self.root = int(root)

    def generator(self, *path: Seedable) -> np.random.Generator:
        """Generator for the component identified by ``path``."""
        return rng_for(self.root, *path)

    def seed(self, *path: Seedable) -> int:
        """Raw derived seed (for components that seed themselves)."""
        return derive_seed(self.root, *path)

    def spawn(self, *path: Seedable) -> "SeedSequenceFactory":
        """Child factory rooted at a derived seed."""
        return SeedSequenceFactory(self.seed(*path))


def permutation_stream(rng: np.random.Generator, n: int,
                       block: int = 1 << 16) -> Iterable[np.ndarray]:
    """Yield blocks of a random permutation of ``range(n)`` lazily.

    Used by workload generators that must visit every index exactly once
    without materialising huge arrays.
    """
    perm = rng.permutation(n)
    for lo in range(0, n, block):
        yield perm[lo:lo + block]

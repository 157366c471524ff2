"""Property-based tests of the simulation kernel's core guarantees:
determinism, a monotone clock, and the seeded RNG streams."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine
from repro.sim.rng import (SeedSequenceFactory, derive_seed,
                           permutation_stream, rng_for)


# ----------------------------------------------------------- determinism ---

@given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False), min_size=1, max_size=40),
       st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_property_engine_replay_identical(delays, n_procs):
    """Two engines fed the same process structure produce the same event
    interleaving (observed via a shared log)."""
    def run_once():
        eng = Engine()
        log = []

        def worker(i):
            for j, d in enumerate(delays):
                yield eng.timeout(d / (i + 1))
                log.append((i, j, eng.now))

        for i in range(n_procs):
            eng.process(worker(i))
        eng.run()
        return log

    assert run_once() == run_once()


@given(st.lists(st.floats(min_value=0.0, max_value=10.0,
                          allow_nan=False), min_size=1, max_size=30))
@settings(max_examples=40, deadline=None)
def test_property_clock_monotone(delays):
    eng = Engine()
    seen = []

    def body(eng):
        for d in delays:
            yield eng.timeout(d)
            seen.append(eng.now)

    eng.process(body(eng))
    eng.run()
    assert seen == sorted(seen)
    assert eng.now == seen[-1]


# ------------------------------------------------------------------- RNG ---

def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert derive_seed(1, "a") != derive_seed(2, "a")
    assert derive_seed(1, "a", "b") != derive_seed(1, "ab")


@given(st.integers(0, 2**31), st.integers(0, 2**31))
@settings(max_examples=50, deadline=None)
def test_property_derive_seed_in_range(root, leaf):
    s = derive_seed(root, leaf)
    assert 0 <= s < 2**63


def test_rng_for_independent_streams():
    a = rng_for(7, "x").random(8)
    b = rng_for(7, "y").random(8)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, rng_for(7, "x").random(8))


def test_seed_factory_spawn():
    f = SeedSequenceFactory(3)
    child = f.spawn("sub")
    assert child.root == f.seed("sub")
    assert f.generator("k").random() == f.generator("k").random()


@given(st.integers(1, 300), st.integers(4, 64))
@settings(max_examples=30, deadline=None)
def test_property_permutation_stream_is_permutation(n, block):
    rng = np.random.default_rng(0)
    chunks = list(permutation_stream(rng, n, block=block))
    flat = np.concatenate(chunks)
    assert sorted(flat.tolist()) == list(range(n))
    assert all(len(c) <= block for c in chunks)

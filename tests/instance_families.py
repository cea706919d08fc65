"""Seeded (module, vectors) families for the orthogonalization and
projection laws, drawn from the same module stream as
`instances.creation_instances`."""

import itertools

import numpy as np

from fockmod.instances import _random_modules


def vector_families(seed, count):
    """(module, vectors) pairs, one to four vectors each, over modules of
    underlying dimension at most 24."""
    rng = np.random.default_rng(seed)
    return [(H, [H.random_vector(rng) for _ in range(int(rng.integers(1, 5)))])
            for H in itertools.islice(_random_modules(rng, 24), count)]

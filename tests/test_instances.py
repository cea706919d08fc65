import itertools

import numpy as np

from fockmod import instances
from fockmod.cstar import PreconditionError
from fockmod.instances import (creation_instances, random_algebra,
                               random_bimodule)

from instance_families import vector_families


def reference_creation_instances(seed, count):
    """`creation_instances` as one loop of its own: draw a base, try a
    bimodule, skip the base when none fits the cap, then draw N."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        base = random_algebra(rng)
        try:
            H = random_bimodule(rng, base, max_copies=2, dim_cap=12)
        except PreconditionError:
            continue
        N = int(rng.integers(2, 5))
        out.append((H, N))
    return out


def reference_vector_families(seed, count):
    """`vector_families` as one loop of its own, like the one above."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        base = random_algebra(rng)
        try:
            H = random_bimodule(rng, base, max_copies=2, dim_cap=24)
        except PreconditionError:
            continue
        m = int(rng.integers(1, 5))
        out.append((H, [H.random_vector(rng) for _ in range(m)]))
    return out


def _layout(H):
    return (H.base.block_sizes, H.right_mult, H.left_mult,
            [u.tobytes() for u in H.left_unitaries])


def test_instance_streams_match_their_reference_loops(monkeypatch):
    """At seeds 0-30: the same modules, bit-equal unitaries, the same N or
    vectors, and the same final state of the generator each run draws
    from."""
    made = []
    default_rng = np.random.default_rng

    def recorded(s):
        made.append(default_rng(s))
        return made[-1]

    monkeypatch.setattr(instances.np.random, "default_rng", recorded)
    for seed, (run, reference, extra) in itertools.product(range(31), [
            (creation_instances, reference_creation_instances, lambda x: x),
            (vector_families, reference_vector_families,
             lambda vs: [v.flat.tobytes() for v in vs])]):
        made.clear()
        got, got_rng = run(seed, 5), made[0]
        made.clear()
        want, want_rng = reference(seed, 5), made[0]
        assert [(_layout(H), extra(x)) for H, x in got] == \
            [(_layout(H), extra(x)) for H, x in want]
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

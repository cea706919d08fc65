import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fockmod.crossed import FiniteGroup
from fockmod.cstar import PreconditionError
from fockmod.freeprod import alternating_patterns, catalan, \
    semicircular_moments
from fockmod.hilbmod import gram_schmidt, projection_from_basis
from fockmod.instances import random_algebra, random_bimodule


@given(st.integers(min_value=0, max_value=12))
def test_catalan_recurrence(k):
    assert catalan(k + 1) == sum(catalan(i) * catalan(k - i)
                                 for i in range(k + 1))


@given(st.integers(min_value=2, max_value=4), st.integers(min_value=8,
                                                          max_value=12))
def test_even_moments_stable_under_truncation(k, N):
    m = semicircular_moments(N, orders=[2 * k])[0] if 2 * k <= N else None
    if m is not None:
        assert abs(m - catalan(k)) < 1e-9


@given(st.integers(min_value=2, max_value=8))
def test_cyclic_group_laws(n):
    G = FiniteGroup.cyclic(n)
    for g in G.elements():
        assert G.mul(g, G.inv(g)) == G.identity
        for h in G.elements():
            assert G.mul(g, h) == (g + h) % n


@given(st.integers(min_value=2, max_value=3), st.integers(min_value=1,
                                                          max_value=4))
def test_alternating_patterns_never_repeat(n_families, budget):
    for pat in alternating_patterns(n_families, budget):
        assert 1 <= len(pat) <= budget
        assert all(a != b for a, b in zip(pat, pat[1:]))


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_gram_schmidt_projection_idempotent_under_reruns(seed):
    rng = np.random.default_rng(seed)
    while True:
        # redraw the base when the generator finds no bimodule under the cap,
        # as the instance suites do
        try:
            H = random_bimodule(rng, random_algebra(rng), dim_cap=24)
            break
        except PreconditionError:
            continue
    vectors = [H.random_vector(rng) for _ in range(3)]
    basis = gram_schmidt(vectors)
    again = gram_schmidt(basis)
    P1 = projection_from_basis(H, basis)
    P2 = projection_from_basis(H, again)
    assert np.linalg.norm(P1 - P2, 2) < 1e-8

import numpy as np
import pytest

from fockmod import fock
from fockmod.cstar import CStarAlgebra, PreconditionError, ResourceCapError
from fockmod.fock import (FockSpace, creation_relations_check,
                          endomorphism_injectivity_check,
                          expectation_properties_check,
                          fock_factorization_check, ideal_structure_check,
                          isometric_vector, masked_norm, power_dims,
                          quotient_dimension_check, random_word_spec,
                          toeplitz_endomorphism, word)
from fockmod.hilbmod import make_bimodule
from fockmod.instances import creation_instances

RNG = np.random.default_rng(37)


def plane_fock(N=4):
    B = CStarAlgebra((1,))
    H = make_bimodule(B, (2,), [(2,)])
    return FockSpace(H, N)


def swap_fock(N=4):
    B = CStarAlgebra((1, 1))
    H = make_bimodule(B, (1, 1), [(0, 1), (1, 0)])
    return FockSpace(H, N)


def test_creation_commutation_relation():
    F = plane_fock()
    H = F.bimodule
    x, y = H.random_vector(RNG), H.random_vector(RNG)
    Lx, Ly = F.creation_matrix(x), F.creation_matrix(y)
    rhs = F.left_matrix(H.inner(x, y))
    diff = Lx.conj().T @ Ly - rhs
    assert masked_norm(F, diff, F.N - 1) < 1e-10


def test_creation_intertwines_right_action():
    F = swap_fock()
    H = F.bimodule
    x = H.random_vector(RNG)
    b = H.base.random_element(RNG)
    lhs = F.creation_matrix(x) @ F.right_matrix(b)
    rhs = F.right_matrix(b) @ F.creation_matrix(x)
    assert masked_norm(F, lhs - rhs, F.N - 1) < 1e-10


def test_creation_left_module_map():
    F = swap_fock()
    H = F.bimodule
    x = H.random_vector(RNG)
    b = H.base.random_element(RNG)
    lhs = F.creation_matrix(H.left(b, x))
    rhs = F.left_matrix(b) @ F.creation_matrix(x)
    assert masked_norm(F, lhs - rhs, F.N - 1) < 1e-10


def test_vacuum_expectation_is_conditional():
    F = plane_fock()
    x = F.bimodule.random_vector(RNG)
    L = F.creation_matrix(x)
    val = F.vacuum_expectation(L.conj().T @ L)
    want = F.bimodule.inner(x, x)
    assert (val - want).norm() < 1e-10
    assert F.vacuum_expectation(L).norm() < 1e-12


def test_relation_and_expectation_reports_on_seeded_instances():
    for H, N in creation_instances(5, count=3):
        F = FockSpace(H, N)
        rng = np.random.default_rng(7)
        assert creation_relations_check(F, rng, tol=1e-9).passed
        assert expectation_properties_check(F, rng, tol=1e-9).passed


def test_ideal_structure_small_depths():
    F = plane_fock(4)
    for n in (1, 2):
        rep = ideal_structure_check(F, n, RNG, tol=1e-9)
        assert rep.passed, rep.failures


def test_quotient_dimension_matches_cutoff():
    F = swap_fock(4)
    rep = quotient_dimension_check(F, 2, RNG, tol=1e-9)
    assert rep.passed, rep.failures


def test_factorization_small_words():
    B = CStarAlgebra((1, 1))
    H = make_bimodule(B, (1, 1), [(0, 1), (1, 0)])
    for n, k, j in [(1, 1, 0), (1, 1, 1), (2, 1, 0)]:
        if k * (n + 1) + j > 5:
            continue
        rep = fock_factorization_check(H, n, k, j, RNG, tol=1e-9)
        assert rep.passed, rep.failures


def test_balanced_word_specs_have_zero_net_degree():
    F = plane_fock()
    for _ in range(5):
        spec = random_word_spec(F, RNG, 4, balanced=True)
        assert spec.net_degree == 0
        W = word(F, spec)
        assert W.shape == (F.dim, F.dim)


def test_toeplitz_endomorphism_and_injectivity():
    F = plane_fock(4)
    L = F.creation_matrix(isometric_vector(F.bimodule, RNG))
    op, rep = toeplitz_endomorphism(F, F.left_matrix(F.bimodule.base.identity()),
                                    L, rng=RNG, tol=1e-9)
    assert rep.passed, rep.failures
    inj = endomorphism_injectivity_check(F, L, 2, RNG)
    assert inj.passed, inj.failures


def test_toeplitz_rejects_offdiagonal_argument():
    F = plane_fock(4)
    x = F.bimodule.random_vector(RNG)
    L = F.creation_matrix(isometric_vector(F.bimodule, RNG))
    with pytest.raises(PreconditionError):
        toeplitz_endomorphism(F, F.creation_matrix(x), L, rng=RNG)


def test_dimension_cap_raises_resource_error():
    B = CStarAlgebra((1,))
    H = make_bimodule(B, (3,), [(3,)])
    with pytest.raises(ResourceCapError):
        FockSpace(H, 8, dim_cap=100)


def test_dimension_cap_checked_before_building(monkeypatch):
    B = CStarAlgebra((1,))
    H = make_bimodule(B, (3,), [(3,)])
    calls = []
    real = fock.interior_tensor
    monkeypatch.setattr(fock, "interior_tensor",
                        lambda *a: calls.append(a) or real(*a))
    with pytest.raises(ResourceCapError):
        FockSpace(H, 8, dim_cap=100)
    assert calls == []


def test_predicted_dims_match_built_levels():
    for H, N in creation_instances(11, count=6):
        F = FockSpace(H, N)
        assert tuple(power_dims(H, N))[1:] == F.level_dims[1:]
        assert tuple(power_dims(H, N)) == F.level_dims

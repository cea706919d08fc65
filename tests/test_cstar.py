import numpy as np
import pytest

from fockmod.cstar import (AlgebraAutomorphism, CPLinearMap, CStarAlgebra,
                           ConditionalExpectation, PreconditionError,
                           StateFunctional, StructureError,
                           UnitalHomomorphism, flip_automorphism,
                           haar_unitary_matrix, identity_automorphism,
                           scalar_embedding, uniform_trace_state)

RNG = np.random.default_rng(11)


def test_algebra_operations():
    A = CStarAlgebra((2, 3))
    x = A.random_element(RNG)
    y = A.random_element(RNG)
    assert ((x + y) - y - x).norm() < 1e-12
    assert ((x * y).adjoint() - y.adjoint() * x.adjoint()).norm() < 1e-12
    assert (x * A.identity() - x).norm() < 1e-12
    assert (A.identity() * x - x).norm() < 1e-12


def test_flat_round_trip():
    A = CStarAlgebra((2, 1))
    x = A.random_element(RNG)
    assert (A.from_flat(x.flat) - x).norm() < 1e-14


def test_norm_is_operator_norm():
    A = CStarAlgebra((2,))
    x = A.random_element(RNG)
    s = np.linalg.svd(x.blocks[0], compute_uv=False)
    assert abs(x.norm() - s[0]) < 1e-12


def test_state_positivity_and_unitality():
    A = CStarAlgebra((2, 2))
    rho = uniform_trace_state(A)
    assert abs(rho(A.identity()) - 1.0) < 1e-12
    x = A.random_element(RNG)
    val = rho(x.adjoint() * x)
    assert val.real >= -1e-12 and abs(val.imag) < 1e-12


def test_state_rejects_non_hermitian_density():
    A = CStarAlgebra((2,))
    with pytest.raises(PreconditionError):
        StateFunctional(A, [np.array([[0.5, 1.0], [0.0, 0.5]])])


@pytest.mark.parametrize("build", [
    lambda B: StateFunctional(B, [np.eye(1)]),
    lambda B: UnitalHomomorphism(B, B, [(1, 0), (0, 1)], [np.eye(1)]),
    lambda B: AlgebraAutomorphism(B, unitaries=[np.eye(1)]),
], ids=["state-densities", "homomorphism-unitaries",
        "automorphism-unitaries"])
def test_constructors_reject_short_lists(build):
    with pytest.raises(StructureError):
        build(CStarAlgebra((1, 1)))


def test_unital_homomorphism_multiplicative():
    B = CStarAlgebra((1, 2))
    A = CStarAlgebra((3,))
    hom = UnitalHomomorphism(B, A, [(1, 1)])
    x = B.random_element(RNG)
    y = B.random_element(RNG)
    assert (hom(x * y) - hom(x) * hom(y)).norm() < 1e-12
    assert (hom(B.identity()) - A.identity()).norm() < 1e-12


def test_scalar_embedding_is_unital():
    A = CStarAlgebra((2, 3))
    emb = scalar_embedding(A)
    one = emb(emb.domain.identity())
    assert (one - A.identity()).norm() < 1e-12


def test_inner_automorphism_preserves_spectrum():
    A = CStarAlgebra((2,))
    u = haar_unitary_matrix(RNG, 2)
    beta = AlgebraAutomorphism(A, unitaries=[u])
    x = A.random_hermitian(RNG)
    before = np.sort(np.linalg.eigvalsh(x.blocks[0]))
    after = np.sort(np.linalg.eigvalsh(beta(x).blocks[0]))
    assert np.allclose(before, after)


def test_automorphism_is_multiplicative():
    A = CStarAlgebra((2, 2))
    beta = flip_automorphism(A)
    x = A.random_element(RNG)
    y = A.random_element(RNG)
    assert (beta(x * y) - beta(x) * beta(y)).norm() < 1e-12


def test_flip_automorphism_is_an_involution():
    A = CStarAlgebra((1, 1))
    beta = flip_automorphism(A)
    x = A.random_element(RNG)
    assert (beta(beta(x)) - x).norm() < 1e-12


def test_flip_requires_equal_sizes():
    A = CStarAlgebra((1, 2))
    with pytest.raises((StructureError, PreconditionError)):
        flip_automorphism(A)


def test_automorphism_composition_and_distance():
    A = CStarAlgebra((2,))
    beta = AlgebraAutomorphism(A, unitaries=[haar_unitary_matrix(RNG, 2)])
    ident = identity_automorphism(A)
    assert beta.compose(ident).distance_to(beta) < 1e-9
    assert ident.distance_to(ident) < 1e-12


def test_choi_detects_complete_positivity():
    A = CStarAlgebra((2,))
    cp = CPLinearMap.from_callable(A, A, lambda x: x)
    assert cp.min_choi_eigenvalue() > -1e-10
    transpose = CPLinearMap.from_callable(
        A, A, lambda x: A.from_flat(
            np.asarray(x.blocks[0]).T.reshape(-1)))
    assert transpose.min_choi_eigenvalue() < -0.5


def test_conditional_expectation_validates():
    B = CStarAlgebra((1, 1))
    A = CStarAlgebra((2,))
    emb = UnitalHomomorphism(B, A, [(1, 1)])
    ce = ConditionalExpectation(emb)
    assert ce.validate(RNG).passed


def test_haar_unitary_matrix_is_unitary():
    u = haar_unitary_matrix(RNG, 4)
    assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-12

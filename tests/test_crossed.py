import numpy as np
import pytest

from fockmod.cstar import (AlgebraAutomorphism, CPLinearMap, CStarAlgebra,
                           PreconditionError, identity_automorphism)
from fockmod.crossed import (CrossedProduct, FiniteGroup, GroupAction,
                             crossed_product, folner_average, folner_defect,
                             lift_automorphism, smearing_map)
from fockmod.instances import crossed_instances, permutation_action

RNG = np.random.default_rng(41)


def z2_example():
    G = FiniteGroup.cyclic(2)
    A = CStarAlgebra((1, 1))
    action = permutation_action(G, A, lambda g: [(i + g) % 2
                                                for i in range(2)])
    return G, A, action


def test_cyclic_group_table():
    G = FiniteGroup.cyclic(4)
    assert G.mul(1, 3) == 0
    assert G.inv(1) == 3
    assert G.identity == 0


def test_symmetric_group_is_nonabelian_of_order_six():
    G = FiniteGroup.symmetric(3)
    assert G.order == 6
    noncomm = any(G.mul(g, h) != G.mul(h, g)
                  for g in G.elements() for h in G.elements())
    assert noncomm


def test_group_action_is_homomorphism():
    G, A, action = z2_example()
    x = A.random_element(RNG)
    for g in G.elements():
        for h in G.elements():
            lhs = action.apply(G.mul(g, h), x)
            rhs = action.apply(g, action.apply(h, x))
            assert (lhs - rhs).norm() < 1e-12


def test_action_rejects_non_homomorphism():
    G = FiniteGroup.cyclic(2)
    A = CStarAlgebra((1, 1))
    bad = AlgebraAutomorphism(A, source=[1, 0])
    with pytest.raises((PreconditionError, ValueError)):
        GroupAction(G, A, [bad, identity_automorphism(A)])


def test_covariance_relation():
    G, A, action = z2_example()
    C = CrossedProduct(action)
    a = A.random_element(RNG)
    for g in G.elements():
        lam = C.lam(g)
        lhs = lam @ C.pi(a) @ lam.conj().T
        rhs = C.pi(action.apply(g, a))
        assert np.linalg.norm(lhs - rhs) < 1e-12


def test_lambda_is_unitary_representation():
    G, A, action = z2_example()
    C = CrossedProduct(action)
    for g in G.elements():
        lam = C.lam(g)
        assert np.linalg.norm(lam.conj().T @ lam - np.eye(C.dim)) < 1e-12
        for h in G.elements():
            assert np.linalg.norm(C.lam(G.mul(g, h)) - C.lam(g) @ C.lam(h)) \
                < 1e-12


def test_crossed_product_reports_pass_on_seeded_instances():
    for G, A, action in crossed_instances(3):
        C, rep = crossed_product(A, action, rng=RNG, tol=1e-9)
        assert rep.passed, rep.failures


def test_lift_of_commuting_automorphism():
    G, A, action = z2_example()
    C = CrossedProduct(action)
    beta = identity_automorphism(A)
    V, rep = lift_automorphism(C, beta, rng=RNG, tol=1e-9)
    assert rep.passed, rep.failures


def test_folner_defect_values():
    G = FiniteGroup.cyclic(3)
    assert folner_defect(G, list(G.elements())) == 0.0
    assert folner_defect(G, [0]) == 1.0


def test_folner_average_exact_on_full_group():
    G, A, action = z2_example()
    C = CrossedProduct(action)
    ident = CPLinearMap.from_callable(A, A, lambda a: a)
    rep = folner_average(C, list(G.elements()), ident, rng=RNG, tol=1e-12)
    assert rep.passed, rep.failures


def test_folner_average_bounded_deviation_with_smearing():
    G, A, action = z2_example()
    C = CrossedProduct(action)
    m = smearing_map(A, 0.25)
    rep = folner_average(C, [0], m, rng=RNG)
    assert rep.passed, rep.failures


def test_folner_average_reports_bound_when_every_deviation_is_zero():
    # F = {e} in Z/2 is not invariant (defect 1/2), so words are judged by
    # the deviation bound, yet on words over g = e the channel is exact
    G, A, action = z2_example()
    C = CrossedProduct(action)
    ident = CPLinearMap.from_callable(A, A, lambda a: a)
    words = [(A.random_element(RNG), G.identity) for _ in range(2)]
    rep = folner_average(C, [G.identity], ident, words=words)
    assert [c.name for c in rep.checks] == ["deviation-bound"]
    assert rep.passed and rep.checks[0].details["worst_ratio"] == 0.0


def test_folner_average_rejects_empty_set():
    G, A, action = z2_example()
    C = CrossedProduct(action)
    ident = CPLinearMap.from_callable(A, A, lambda a: a)
    with pytest.raises(PreconditionError):
        folner_average(C, [], ident)

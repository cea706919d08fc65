import numpy as np
import pytest

from fockmod import crossed
from fockmod import cstar
from fockmod.cli import Settings, run_suites
from fockmod.cstar import (AlgebraAutomorphism, CPLinearMap, CStarAlgebra,
                           PreconditionError, StructureError,
                           block_diag_matrix, identity_automorphism)
from fockmod.crossed import (CrossedProduct, FiniteGroup, GroupAction,
                             crossed_product, folner_average, folner_defect,
                             lift_automorphism, rep_unitary, smearing_map)
from fockmod.fock import LevelOp
from fockmod.instances import crossed_instances, permutation_action

RNG = np.random.default_rng(41)


def z2_example():
    G = FiniteGroup.cyclic(2)
    A = CStarAlgebra((1, 1))
    action = permutation_action(G, A, lambda g: [(i + g) % 2
                                                for i in range(2)])
    return G, A, action


def inner_example():
    """Z/2 on M_2 by Ad(diag(1, -1)): an action with unitaries that are
    not the identity."""
    G = FiniteGroup.cyclic(2)
    A = CStarAlgebra((2,))
    flip = AlgebraAutomorphism(A, unitaries=[np.diag([1.0, -1.0])])
    return G, A, GroupAction(G, A, [identity_automorphism(A), flip])


def twisted_swap_example():
    """Z/2 on M_2 + M_2 swapping the blocks through u and u*, u a fixed
    non-diagonal unitary: permutation and unitaries at once."""
    G = FiniteGroup.cyclic(2)
    A = CStarAlgebra((2, 2))
    u = np.array([[1.0, 1j], [1j, 1.0]]) / np.sqrt(2)
    swap = AlgebraAutomorphism(A, source=(1, 0),
                               unitaries=[u, u.conj().T])
    return G, A, GroupAction(G, A, [identity_automorphism(A), swap])


def examples():
    return ([t for seed in range(3) for t in crossed_instances(seed)]
            + [z2_example(), inner_example(), twisted_swap_example()])


# The dense crossed product on l2(G) tensor V, the reference the level
# operators are compared with.

def dense_pi(C, a):
    dimV = C.dimV
    M = np.zeros((C.group.order * dimV,) * 2, complex)
    for h in C.group.elements():
        s = slice(h * dimV, (h + 1) * dimV)
        M[s, s] = block_diag_matrix(
            list(C.action.apply(C.group.inv(h), a).blocks), dimV)
    return M


def dense_lam(C, g):
    dimV = C.dimV
    M = np.zeros((C.group.order * dimV,) * 2, complex)
    for h in C.group.elements():
        k = C.group.mul(C.group.inv(g), h)
        M[h * dimV:(h + 1) * dimV, k * dimV:(k + 1) * dimV] = np.eye(dimV)
    return M


def dense_lift(C, beta):
    return np.kron(np.eye(C.group.order), rep_unitary(beta))


def test_level_operators_match_the_dense_crossed_product():
    rng = np.random.default_rng(43)
    for G, A, action in examples():
        C = CrossedProduct(action)
        for _ in range(3):
            a = A.random_element(rng)
            diff = C.pi(a).dense() - dense_pi(C, a)
            assert np.abs(diff).max() <= 1e-15 * max(1.0, a.norm())
        for g in G.elements():
            assert np.array_equal(C.lam(g).dense(), dense_lam(C, g))
        beta = identity_automorphism(A)
        V, rep = lift_automorphism(C, beta, rng=rng, tol=1e-9)
        assert rep.passed, rep.failures
        assert isinstance(V, LevelOp)
        assert np.array_equal(V.dense(), dense_lift(C, beta))


def test_orbit_is_the_action_of_every_element():
    rng = np.random.default_rng(47)
    for G, A, action in examples():
        for _ in range(3):
            a = A.random_element(rng)
            orbit = action.orbit(a)
            for g in G.elements():
                want = action.apply(g, a)
                got = A.element([X[g] for X in orbit])
                assert (got - want).norm() <= 1e-15 * max(1.0, a.norm())


def test_actions_with_unitaries_pass_every_crossed_check():
    rng = np.random.default_rng(53)
    for G, A, action in (inner_example(), twisted_swap_example()):
        C, rep = crossed_product(A, action, rng=rng, tol=1e-9)
        assert rep.passed, rep.failures
        for beta in (identity_automorphism(A), action.autos[1]):
            V, rep = lift_automorphism(C, beta, rng=rng, tol=1e-9)
            assert rep.passed, rep.failures
            assert np.array_equal(V.dense(), dense_lift(C, beta))
        ident = CPLinearMap.from_callable(A, A, lambda a: a)
        exact = folner_average(C, list(G.elements()), ident, rng=rng)
        assert [c.name for c in exact.checks] == ["exact-recovery"]
        assert exact.passed, exact.failures
        smeared = folner_average(C, [0], smearing_map(A, 0.25), rng=rng)
        assert smeared.passed, smeared.failures


def test_orbit_and_pi_refuse_an_element_of_another_algebra():
    _, _, action = inner_example()
    C = CrossedProduct(action)
    other = CStarAlgebra((1, 1)).random_element(RNG)
    with pytest.raises(StructureError, match="different algebra"):
        action.orbit(other)
    with pytest.raises(StructureError, match="different algebra"):
        C.pi(other)


def test_crossed_suite_builds_no_dense_operator(monkeypatch):
    """pi, lambda and the lift stay level operators: the crossed suite runs
    with the dense bridges it used to take refused."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense crossed-product operator built")

    monkeypatch.setattr(LevelOp, "dense", refuse)
    monkeypatch.setattr(crossed.np, "kron", refuse)
    monkeypatch.setattr(cstar, "block_diag_matrix", refuse)
    monkeypatch.setattr(crossed, "block_diag_matrix", refuse, raising=False)
    reports = run_suites(None, ("crossed",), Settings())
    assert reports and all(r.passed for r in reports)


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
        lhs = lam @ C.pi(a) @ lam.adjoint()
        rhs = C.pi(action.apply(g, a))
        assert (lhs - rhs).norm() < 1e-12


def test_lambda_is_unitary_representation():
    G, A, action = z2_example()
    C = CrossedProduct(action)
    for g in G.elements():
        lam = C.lam(g)
        assert (lam.adjoint() @ lam - C.lam(G.identity)).norm() < 1e-12
        for h in G.elements():
            assert (C.lam(G.mul(g, h)) - C.lam(g) @ C.lam(h)).norm() < 1e-12


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
    rep = folner_average(C, [G.identity], ident, RNG, words=words)
    assert [c.name for c in rep.checks] == ["deviation-bound"]
    assert rep.passed and rep.checks[0].details["worst_ratio"] == 0.0


def test_folner_average_rejects_empty_set():
    G, A, action = z2_example()
    C = CrossedProduct(action)
    ident = CPLinearMap.from_callable(A, A, lambda a: a)
    with pytest.raises(PreconditionError):
        folner_average(C, [], ident, RNG)
    with pytest.raises(PreconditionError, match="nonempty"):
        folner_defect(G, [])


@pytest.mark.parametrize("labels", [[-1], [5], [0, 2], [0.5]])
def test_labels_outside_the_group_are_refused(labels):
    G, A, action = z2_example()
    C = CrossedProduct(action)
    ident = CPLinearMap.from_callable(A, A, lambda a: a)
    with pytest.raises(PreconditionError, match="elements of a group"):
        folner_average(C, labels, ident, RNG)
    with pytest.raises(PreconditionError, match="elements of a group"):
        folner_defect(G, labels)


@pytest.mark.parametrize("g", [-1, 2, 7])
def test_lambda_refuses_a_label_outside_the_group(g):
    _, _, action = z2_example()
    with pytest.raises(PreconditionError, match="elements of a group"):
        CrossedProduct(action).lam(g)


@pytest.mark.parametrize("g", [-1, 3, 1.5])
def test_action_refuses_a_label_outside_the_group(g):
    """On Z/3, -1 would index alpha_2 and 3 would fall off the list."""
    group, algebra, action = crossed_instances(0)[1]
    a = algebra.random_element(np.random.default_rng(3))
    with pytest.raises(PreconditionError, match="elements of a group"):
        action.apply(g, a)
    for h in group.elements():
        for x, y in zip(action.apply(h, a).blocks, action.autos[h](a).blocks):
            assert np.array_equal(x, y)

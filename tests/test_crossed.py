import numpy as np
import pytest
from scipy.linalg import block_diag

from fockmod import crossed
from fockmod import cstar
from fockmod.cli import Settings, run_crossed, run_suites
from fockmod.cstar import (AlgebraAutomorphism, CPLinearMap, CStarAlgebra,
                           PreconditionError, StructureError,
                           identity_automorphism)
from fockmod.crossed import (CrossedProduct, FiniteGroup, GroupAction,
                             crossed_product, folner_average, folner_defect,
                             lift_automorphism, rep_unitary, smearing_map)
from fockmod.fock import LevelOp
from fockmod.bogoliubov import BogoliubovMap, validate_bogoliubov
from fockmod.instances import (crossed_instances, flip_twisted_module,
                               multiplicity_shift_instance,
                               permutation_action, random_bogoliubov)

import crossed_reference as ref

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


def inner_z3_example():
    """Z/3 on M_3 by Ad(diag(1, w, w^2)), w a primitive cube root of 1."""
    G = FiniteGroup.cyclic(3)
    A = CStarAlgebra((3,))
    w = np.exp(2j * np.pi / 3)
    return G, A, GroupAction(G, A, [
        AlgebraAutomorphism(A, unitaries=[np.diag(w ** (g * np.arange(3)))])
        for g in G.elements()])


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
        M[s, s] = block_diag(*C.action.apply(C.group.inv(h), a).blocks)
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
    monkeypatch.setattr(cstar, "place_copies", refuse)
    monkeypatch.setattr(crossed, "place_copies", refuse, raising=False)
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


# The stacked checks against the per-sample loops of crossed_reference.py,
# on the same inputs and the same rng stream.

def _close(new, old):
    """Bit-equal (a failed boolean check's inf too) or within 1e-13."""
    return new == old or abs(new - old) <= 1e-13 * abs(old)


def _same_report(new, old):
    assert [(c.name, c.passed) for c in new.checks] \
        == [(c.name, c.passed) for c in old.checks]
    assert new.parameters == old.parameters
    for a, b in zip(new.checks, old.checks):
        assert _close(a.residual, b.residual), (a.name, a.residual, b.residual)
        assert a.details.keys() == b.details.keys()
        for key, value in b.details.items():
            assert _close(a.details[key], value), (a.name, key)


def _twice(seed, new, old):
    """new and old each called with a fresh rng of the seed; asserts that
    both leave the rng in the same state and returns both results."""
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    out = new(rngs[0]), old(rngs[1])
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    return out


@pytest.mark.parametrize("case", range(5))
def test_stacked_crossed_checks_match_the_per_sample_loops(case):
    G, A, action = (crossed_instances(0)
                    + [inner_example(), inner_z3_example()])[case]
    C = CrossedProduct(action)
    (_, new), (_, old) = _twice(
        case, lambda rng: crossed_product(A, action, rng),
        lambda rng: ref.crossed_product(A, action, rng))
    _same_report(new, old)
    betas = [identity_automorphism(A)]
    if np.array_equal(G.table, G.table.T):
        # on an abelian group every alpha_g commutes with the action
        betas += action.autos[1:]
    for beta in betas:
        (V, new), (W, old) = _twice(
            case, lambda rng: lift_automorphism(C, beta, rng),
            lambda rng: ref.lift_automorphism(C, beta, rng))
        _same_report(new, old)
        assert np.array_equal(V.dense(), W.dense())
    ident = CPLinearMap.from_callable(A, A, lambda a: a)
    for F, m in [(list(G.elements()), ident),
                 (list(G.elements())[:-1], smearing_map(A, 0.25)),
                 ([G.identity], ident)]:
        new, old = _twice(case, lambda rng: folner_average(C, F, m, rng),
                          lambda rng: ref.folner_average(C, F, m, rng))
        _same_report(new, old)
    exact = folner_average(C, list(G.elements()), ident,
                           np.random.default_rng(case))
    assert [c.name for c in exact.checks] == ["exact-recovery"]


def test_folner_average_with_no_terms_matches_the_per_sample_loop():
    """F = {e} and words over g != e only: no word has a term t in F meet
    gF, so every average is zero."""
    G, A, action = crossed_instances(0)[1]
    C = CrossedProduct(action)
    rng = np.random.default_rng(13)
    words = [(A.random_element(rng), g) for g in (1, 2, 2)]
    m = smearing_map(A, 0.25)
    new = folner_average(C, [G.identity], m, None, words=words)
    _same_report(new, ref.folner_average(C, [G.identity], m, None,
                                         words=words))
    assert [c.name for c in new.checks] == ["deviation-bound"]


def _raised(call):
    with pytest.raises(ValueError) as info:
        call()
    return type(info.value), str(info.value)


def test_non_homomorphic_actions_fail_at_the_same_pair():
    """alpha_1 = alpha_2 on Z/3, and the S3 action with two of its
    automorphisms exchanged."""
    G, A, action = inner_z3_example()
    autos = [action.autos[0], action.autos[1], action.autos[1]]
    group, algebra, s3 = crossed_instances(0)[2]
    swapped = list(s3.autos)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    for group, algebra, autos in [(G, A, autos), (group, algebra, swapped)]:
        new = _raised(lambda: GroupAction(group, algebra, autos))
        assert new == (StructureError, _raised(
            lambda: ref.check_action(group, autos))[1])
        assert "not a homomorphism" in new[1]


def test_non_commuting_beta_fails_at_the_same_element():
    rng = np.random.default_rng(7)
    _, A, inner = inner_example()
    _, _, s3 = crossed_instances(0)[2]
    for action, beta in [
            (inner, AlgebraAutomorphism(
                A, unitaries=[cstar.haar_unitary_matrix(rng, 2)])),
            (s3, s3.autos[1])]:
        C = CrossedProduct(action)
        new = _raised(lambda: lift_automorphism(C, beta, rng))
        old = _raised(lambda: ref.lift_automorphism(C, beta, rng))
        assert new == old and new[0] is PreconditionError
        assert "does not commute" in new[1]


def test_automorphisms_of_another_algebra_are_refused():
    G, A, action = z2_example()
    other = identity_automorphism(CStarAlgebra((2,)))
    with pytest.raises(StructureError, match="different algebras"):
        GroupAction(G, A, [identity_automorphism(A), other])
    with pytest.raises(StructureError, match="different algebras"):
        lift_automorphism(CrossedProduct(action), other, RNG)


def _bogoliubov_maps():
    rng = np.random.default_rng(11)
    _, _, shift = multiplicity_shift_instance()
    _, flip = flip_twisted_module()
    maps = [shift, random_bogoliubov(rng), flip]
    perturbed = [BogoliubovMap(b.domain, b.matrix + 1e-3 * rng.standard_normal(
        b.matrix.shape), b.beta) for b in maps]
    return maps, perturbed


def test_stacked_bogoliubov_validation_matches_the_per_sample_loops():
    maps, perturbed = _bogoliubov_maps()
    for seed, bog in enumerate(maps + perturbed):
        new, old = _twice(seed, lambda rng: validate_bogoliubov(bog, rng),
                          lambda rng: ref.validate_bogoliubov(bog, rng))
        _same_report(new, old)
        assert new.passed == (bog in maps)
    for bog in perturbed:
        rep = validate_bogoliubov(bog, np.random.default_rng(0))
        assert "inner-twist" in [c.name for c in rep.checks if not c.passed]


def test_crossed_suite_makes_few_svd_calls(monkeypatch):
    """The crossed suite's SVDs are batched over the samples of each check:
    at most 300 calls, against 1,172 when every sample had its own."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    reports = run_crossed(None, Settings(seed=0))
    assert reports and all(r.passed for r in reports)
    assert 0 < len(calls) <= 300

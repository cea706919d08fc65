import json
from pathlib import Path

import numpy as np
import pytest

from fockmod.cli import Settings, run_amalg
from fockmod.cstar import (CStarAlgebra, ConditionalExpectation,
                           PreconditionError, StateFunctional)
from fockmod.fock import FockSpace, LevelOp
from fockmod.freeprod import (AmalgSetup, alpha_beta_conditions,
                              amalg_setup, build_W, catalan, freeness_check,
                              haar_unitary, scalar_creation,
                              semicircular_moments, swap_commutation,
                              toeplitz_state_check, wunitary_vanishing)
from fockmod.hilbmod import trivial_module
from fockmod.instances import random_state

RNG = np.random.default_rng(53)


def small_setup(N=4, seed=2):
    rng = np.random.default_rng(seed)
    A1 = CStarAlgebra((1, 1))
    A2 = CStarAlgebra((2,))
    phi1 = ConditionalExpectation.from_state(random_state(rng, A1))
    phi2 = ConditionalExpectation.from_state(random_state(rng, A2))
    setup, rep = amalg_setup(phi1, phi2, N, rng, tol=1e-9)
    assert rep.passed, rep.failures
    return setup


def test_catalan_numbers():
    assert [catalan(k) for k in range(5)] == [1, 1, 2, 5, 14]


def test_semicircular_moments_match_catalan():
    moments = semicircular_moments(8, orders=[2, 4, 6, 8])
    for m, k in zip(moments, [1, 2, 3, 4]):
        assert abs(m - catalan(k)) < 1e-9


def test_semicircular_odd_moments_vanish():
    moments = semicircular_moments(8, orders=[1, 3, 5, 7])
    assert max(abs(m) for m in moments) < 1e-12


def test_scalar_creation_shift_relations():
    l = scalar_creation(6)
    assert np.linalg.norm((l.conj().T @ l)[:6, :6] - np.eye(6)) < 1e-12
    s = l + l.conj().T
    assert abs((s @ s)[0, 0] - 1.0) < 1e-12


def test_haar_unitary_moments_vanish():
    u, rep = haar_unitary(8, k_max=4, tol=1e-9)
    assert rep.passed, rep.failures
    assert np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])) < 1e-12


def test_base_expectation_validate():
    A = CStarAlgebra((2,))
    phi = ConditionalExpectation.from_state(random_state(RNG, A))
    assert phi.is_faithful
    assert phi.validate(RNG).passed
    # density diag(1, 0) annihilates no central summand of M_2, yet
    # phi(e_22* e_22) = 0: the expectation is not faithful, and faithful-gns
    # is the one law that fails
    rho = StateFunctional(A, [np.diag([1.0, 0.0])])
    phi = ConditionalExpectation.from_state(rho)
    assert rho.has_faithful_gns and not phi.is_faithful
    rep = phi.validate(np.random.default_rng(0))
    assert [c.name for c in rep.failures] == ["faithful-gns"]
    with pytest.raises(PreconditionError, match="not faithful"):
        AmalgSetup(phi, phi, 2)


def test_base_expectation_flags_non_positive_map():
    A = CStarAlgebra((2,))
    phi = ConditionalExpectation.from_state(random_state(RNG, A))
    scalars = phi.embedding.domain
    F = np.diag([1.5, -0.5]).astype(complex)
    bad = ConditionalExpectation(
        phi.embedding,
        lambda a: scalars.scalar(np.trace(F @ a.blocks[0])))
    rep = bad.validate(RNG)
    names = {c.name for c in rep.checks if not c.passed}
    assert "complete-positivity" in names
    anchors = {c.anchor for c in rep.checks if not c.passed}
    assert "Choi(phi) >= 0" in anchors


def test_toeplitz_state_reproduction():
    B = CStarAlgebra((1, 1))
    rho = random_state(RNG, B)
    rep = toeplitz_state_check(B, rho, 4, RNG, tol=1e-9)
    assert rep.passed, rep.failures


def test_amalg_corner_projection_and_swap():
    setup = small_setup()
    P, W, rep = build_W(setup, tol=1e-9)
    assert rep.passed, rep.failures
    rep = swap_commutation(setup, tol=1e-9)
    assert rep.passed, rep.failures


def test_amalg_setup_builds_P_and_W_once():
    setup = small_setup()
    assert setup.P is setup.P
    assert setup.W is setup.W


def test_amalg_alternating_moments_vanish():
    setup = small_setup()
    rep = wunitary_vanishing(setup, 2, RNG)
    assert rep.passed, rep.failures


def test_amalg_alpha_beta_conditions():
    setup = small_setup()
    rep = alpha_beta_conditions(setup, RNG, samples=3, tol=1e-9)
    assert rep.passed, rep.failures


def test_wunitary_budget_precondition():
    setup = small_setup(N=3)
    with pytest.raises(PreconditionError):
        wunitary_vanishing(setup, 5, RNG)


def scalar_fock(N):
    """The N-truncated Fock space of C over itself and its creation
    operator l, whose dense matrix is `scalar_creation(N)`."""
    F = FockSpace(trivial_module(CStarAlgebra((1,))), N)
    l = F.creation(F.bimodule.basis()[0])
    assert np.array_equal(l.dense(), scalar_creation(N))
    return F, l


def test_freeness_check_flags_dependent_families():
    F, l = scalar_fock(8)
    s = l + l.adjoint()

    def expectation(factors):
        return F.vacuum_expectation(*factors)

    # both families sample the same semicircular element, so alternating
    # centered products have nonvanishing expectation
    report = freeness_check([lambda r: s, lambda r: s], expectation, F.left,
                            budget=2, rng=RNG, samples_per_pattern=2,
                            threshold=1e-6)
    assert not report.passed


def test_freeness_check_needs_two_families():
    F, _ = scalar_fock(1)
    with pytest.raises(PreconditionError):
        freeness_check([lambda r: F.identity()], lambda f: F.base.identity(),
                       F.left, budget=2, rng=RNG)


def test_freeness_check_needs_budget_two():
    """Budget 1 has no alternating pattern of length 2: the check would
    pass on an empty table."""
    F, l = scalar_fock(4)
    with pytest.raises(PreconditionError, match="budget"):
        freeness_check([lambda r: l, lambda r: l.adjoint()],
                       lambda f: F.base.identity(), F.left,
                       budget=1, rng=RNG)


def test_amalg_suite_builds_no_dense_fock_operators(monkeypatch):
    def refuse(self):
        raise AssertionError("dense Fock-size operator built")

    monkeypatch.setattr(LevelOp, "dense", refuse)
    reports = run_amalg(None, Settings(truncation=3))
    assert reports and all(r.passed for r in reports)


def test_w_selfadjoint_is_the_frobenius_norm():
    """W - W* has blocks on two level shifts; its residual is the
    Frobenius norm, never below the dense spectral norm."""
    setup = small_setup()
    _, W, rep = build_W(setup, tol=1e-9)
    res = next(c.residual for c in rep.checks if c.name == "W-selfadjoint")
    Wd = W.dense()
    diff = Wd - Wd.conj().T
    assert abs(res - np.linalg.norm(diff)) <= 1e-15 * max(1.0, np.linalg.norm(Wd))
    assert res >= np.linalg.norm(diff, 2) * (1 - 1e-12)
    assert res <= 1e-9


def test_p_selfadjoint_is_the_frobenius_norm():
    """P - P* keeps each level; its residual is the Frobenius norm, never
    below the dense spectral norm."""
    setup = small_setup()
    P, _, rep = build_W(setup, tol=1e-9)
    res = next(c.residual for c in rep.checks if c.name == "P-selfadjoint")
    Pd = P.dense()
    diff = Pd - Pd.conj().T
    assert abs(res - np.linalg.norm(diff)) <= 1e-15 * max(1.0, np.linalg.norm(Pd))
    assert res >= np.linalg.norm(diff, 2) * (1 - 1e-12)
    assert 0 < res <= 1e-9


@pytest.mark.parametrize("truncation", ["3", "4"])
def test_amalg_checks_match_the_dense_implementation(truncation):
    path = Path(__file__).parent / "data" / "amalg_dense_checks.json"
    want = json.loads(path.read_text())["truncations"][truncation]
    got = [(r.suite, c.name, c.passed, c.residual)
           for r in run_amalg(None, Settings(truncation=int(truncation)))
           for c in r.checks]
    assert [tuple(row[:3]) for row in want] == [row[:3] for row in got]
    for (_, name, _, ref), (_, _, _, res) in zip(want, got):
        if ref is None or name in ("P-selfadjoint", "W-selfadjoint"):
            continue
        assert abs(res - ref) <= 1e-13, name

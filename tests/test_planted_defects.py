"""Planted defects: each case breaks one law of an object a report checks,
through the inputs of the function that builds the report or through a
function it calls, and asserts the exact set of checks that then fail.  The
set always holds the targeted check; it holds more where the defect breaks
more than one law."""

import numpy as np
import pytest

from fockmod import freeprod
from fockmod.bogoliubov import BogoliubovMap, validate_bogoliubov
from fockmod.cstar import (CStarAlgebra, ConditionalExpectation,
                           PreconditionError, UnitalHomomorphism,
                           identity_automorphism, scalar_embedding)
from fockmod.freeprod import AmalgSetup, amalg_setup, toeplitz_state_check
from fockmod.instances import (flip_twisted_module,
                               multiplicity_shift_instance, random_state)


def failing(report):
    return {c.name for c in report.checks if not c.passed}


def state_expectation(sizes, seed):
    return random_state(np.random.default_rng(seed), CStarAlgebra(sizes))


def diagonal_expectation():
    """M_2 onto its diagonal C + C: a -> (a_00, a_11), flat entries 0
    and 3 of a."""
    M2, B = CStarAlgebra((2,)), CStarAlgebra((1, 1))
    return ConditionalExpectation(
        UnitalHomomorphism(B, M2, [(1, 1)]),
        [[1, 0, 0, 0], [0, 0, 0, 1]])


def test_the_unplanted_expectations_pass():
    for phi in (state_expectation((2, 1), 5), diagonal_expectation()):
        assert failing(phi.validate(np.random.default_rng(0))) == set()


def test_scaled_state_row_breaks_unitality():
    """phi = 1.01 rho: phi(1) = 1.01, and phi(iota(b)) = 1.01 b too."""
    phi = state_expectation((2, 1), 5)
    bad = ConditionalExpectation(phi.embedding, 1.01 * phi.matrix)
    assert failing(bad.validate(np.random.default_rng(0))) == \
        {"unitality", "idempotence"}


def test_swapped_diagonal_breaks_bimodularity_and_idempotence():
    """a -> (a_11, a_00) is unital, completely positive and faithful, yet
    no expectation onto the diagonal; `AmalgSetup` accepts it, and the
    eta laws of `amalg_setup` that read phi fail with it."""
    good = diagonal_expectation()
    bad = ConditionalExpectation(good.embedding, good.matrix[::-1])
    assert bad.is_faithful
    assert failing(bad.validate(np.random.default_rng(0))) == \
        {"bimodularity", "idempotence"}
    _, report = amalg_setup(bad, good, 3, np.random.default_rng(1))
    assert failing(report) == {"bimodularity", "idempotence",
                               "eta-phi-compatibility", "eta-on-subalgebra"}


def test_non_positive_row_breaks_complete_positivity():
    """rho(a) = tr(F a) with F = diag(1.5, -0.5): unital and idempotent, but
    rho(e_11) = -0.5."""
    phi = state_expectation((2,), 7)
    bad = ConditionalExpectation(phi.embedding, [[1.5, 0, 0, -0.5]])
    assert failing(bad.validate(np.random.default_rng(0))) == \
        {"complete-positivity", "faithful-gns"}


def test_zero_weight_breaks_faithfulness():
    """The state of weights (0, 1) on C + C annihilates the first summand:
    every other law holds, and `AmalgSetup` refuses it."""
    A = CStarAlgebra((1, 1))
    bad = ConditionalExpectation(scalar_embedding(A), [[0, 1]])
    assert not bad.has_faithful_gns
    assert failing(bad.validate(np.random.default_rng(0))) == \
        {"faithful-gns"}
    with pytest.raises(PreconditionError, match="not faithful"):
        AmalgSetup(bad, state_expectation((1, 1), 3), 2)



def test_the_unplanted_twisted_maps_pass():
    _, flip = flip_twisted_module()
    _, _, shift = multiplicity_shift_instance()
    for bog in (flip, shift):
        assert failing(validate_bogoliubov(bog, np.random.default_rng(0))) \
            == set()


def test_untwisted_flip_breaks_both_twist_laws():
    """The block swap on C + C twists by the flip: with the identity as
    beta, <U h1, U h2> and U(b1 h b2) land in the swapped summands."""
    H, flip = flip_twisted_module()
    bad = BogoliubovMap(H, flip.matrix, identity_automorphism(H.base))
    assert failing(validate_bogoliubov(bad, np.random.default_rng(0))) == \
        {"inner-twist", "bimodule-twist"}


def test_scaled_shift_breaks_the_inner_twist():
    """1.01 U still intertwines the actions, but scales inner products by
    1.01^2."""
    H, _, shift = multiplicity_shift_instance()
    bad = BogoliubovMap(H, 1.01 * shift.matrix, shift.beta)
    assert failing(validate_bogoliubov(bad, np.random.default_rng(0))) == \
        {"inner-twist"}


@pytest.mark.parametrize("sizes", [(1, 1), (1,), (2,)])
def test_scaled_cyclic_vector_breaks_the_compressed_state(sizes,
                                                           monkeypatch):
    """With 1.01 xi for the cyclic vector, l(xi)* b l(xi) = 1.01^2 rho(b) 1;
    words in l(xi) stay scalar and the support laws still hold."""
    gns = freeprod.gns_bimodule

    def scaled_gns(rho):
        module, xi = gns(rho)
        return module, xi * 1.01

    rho = state_expectation(sizes, 13)
    assert failing(toeplitz_state_check(rho, 3, np.random.default_rng(0))) \
        == set()
    monkeypatch.setattr(freeprod, "gns_bimodule", scaled_gns)
    assert failing(toeplitz_state_check(rho, 3, np.random.default_rng(0))) \
        == {"compressed-state"}

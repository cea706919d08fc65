import numpy as np
import pytest

from fockmod.bogoliubov import (compression_channels, entropy_bound_report,
                                fock_extension, identity_bogoliubov,
                                kp_subspace, validate_bogoliubov)
from fockmod.cstar import CStarAlgebra
from fockmod.fock import FockSpace
from fockmod.hilbmod import augment, make_bimodule, submodule_projection
from fockmod.instances import (flip_twisted_module,
                               multiplicity_shift_instance, random_bogoliubov)

RNG = np.random.default_rng(61)


def test_identity_map_validates():
    B = CStarAlgebra((1, 1))
    H = make_bimodule(B, (1, 1), [(0, 1), (1, 0)])
    rep = validate_bogoliubov(identity_bogoliubov(H), rng=RNG, tol=1e-9)
    assert rep.passed, rep.failures


def test_flip_twisted_map_validates():
    H, U = flip_twisted_module()
    rep = validate_bogoliubov(U, rng=RNG, tol=1e-9)
    assert rep.passed, rep.failures


def test_random_twisted_map_validates():
    bog = random_bogoliubov(np.random.default_rng(3))
    rep = validate_bogoliubov(bog, rng=RNG, tol=1e-9)
    assert rep.passed, rep.failures


def test_invalid_matrix_fails_inner_twist():
    H, U = flip_twisted_module()
    from fockmod.bogoliubov import BogoliubovMap
    bad = BogoliubovMap(H, 2.0 * np.asarray(U.matrix), U.beta)
    rep = validate_bogoliubov(bad, rng=RNG, tol=1e-9)
    assert not rep.passed
    assert any(c.name == "inner-twist" for c in rep.failures)


def test_identity_extension_is_identity():
    H, K, U = multiplicity_shift_instance()
    F = FockSpace(H, 2)
    FI, rep = fock_extension(F, identity_bogoliubov(H), tol=1e-9)
    assert rep.passed, rep.failures
    assert np.linalg.norm(FI - np.eye(F.dim)) < 1e-9


def test_extension_intertwines_creation():
    H, K, U = multiplicity_shift_instance()
    F = FockSpace(H, 2)
    FU, rep = fock_extension(F, U, tol=1e-9)
    assert rep.passed, rep.failures
    x = H.random_vector(RNG)
    lhs = FU @ F.creation_matrix(x)
    rhs = F.creation_matrix(U(x)) @ FU
    from fockmod.fock import masked_norm
    assert masked_norm(F, lhs - rhs, F.N - 1) < 1e-8


def test_augmented_extension_fixes_unit_vector():
    H, U = flip_twisted_module()
    from fockmod.bogoliubov import augmented_bogoliubov
    aug = augment(H)
    tU = augmented_bogoliubov(aug, U)
    F = FockSpace(aug.module, 3)
    FU, rep = fock_extension(F, tU, xi=aug.xi, tol=1e-9)
    assert rep.passed, rep.failures


def test_kp_dimensions_grow_until_saturation():
    H, K, U = multiplicity_shift_instance(copies=3, block=2)
    dims = []
    for p in range(1, 6):
        span, rep = kp_subspace(U, K, p)
        assert rep.passed, rep.failures
        dims.append(span.complex_dim)
    assert dims == [4, 8, 12, 12, 12]


def test_compression_channel_properties():
    H, K, U = multiplicity_shift_instance()
    F = FockSpace(H, 3)
    span, _ = kp_subspace(U, K, 2)
    ch, rep = compression_channels(F, 2, span, RNG, tol=1e-8)
    assert rep.passed, rep.failures
    Q = ch.Q
    assert np.linalg.norm(Q @ Q - Q) < 1e-9
    assert np.linalg.norm(Q - Q.conj().T) < 1e-9


def test_entropy_dimension_bound_on_shift_grid():
    H, K, U = multiplicity_shift_instance()
    F = FockSpace(H, 3)
    for n in (1, 2, 3):
        table = entropy_bound_report(F, U, K, n, p_max=4, rng=RNG)
        checks = {c.name: c for c in table.to_report().checks}
        assert checks["dimension-bound"].passed, table.rows
        assert checks["ratio-trend"].passed


def test_entropy_measured_dims_for_shift():
    H, K, U = multiplicity_shift_instance()
    F = FockSpace(H, 3)
    table = entropy_bound_report(F, U, K, 1, p_max=5, rng=RNG)
    measured = [row[2] for row in table.rows]
    assert measured == [4, 6, 8, 8, 8]

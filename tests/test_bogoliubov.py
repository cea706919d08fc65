import numpy as np
import pytest

from fockmod.bogoliubov import (BogoliubovMap, augmented_bogoliubov,
                                compression_channels,
                                entropy_bound_report, fock_extension,
                                identity_bogoliubov, kp_subspace,
                                validate_bogoliubov)
from fockmod.cstar import CStarAlgebra, haar_unitary_matrix
from fockmod.fock import FockSpace
from fockmod.hilbmod import AugmentedModule, TensorStep, make_bimodule
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
    aug = AugmentedModule(H)
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
    Q, rep = compression_channels(F, 2, span, RNG, tol=1e-8)
    assert rep.passed, rep.failures
    assert np.linalg.norm(Q @ Q - Q) < 1e-9
    assert np.linalg.norm(Q - Q.conj().T) < 1e-9


def test_entropy_dimension_bound_on_shift_grid():
    H, K, U = multiplicity_shift_instance()
    F = FockSpace(H, 3)
    for n in (1, 2, 3):
        rep = entropy_bound_report(F, U, K, n, p_max=4, rng=RNG)
        checks = {c.name: c for c in rep.checks}
        assert checks["dimension-bound"].passed, \
            checks["dimension-bound"].details["table"]
        assert checks["ratio-trend"].passed


def test_entropy_measured_dims_for_shift():
    H, K, U = multiplicity_shift_instance()
    F = FockSpace(H, 3)
    rep = entropy_bound_report(F, U, K, 1, p_max=5, rng=RNG)
    table = {c.name: c for c in rep.checks}["dimension-bound"].details["table"]
    measured = [row["measured"] for row in table.values()]
    assert measured == [4, 6, 8, 8, 8]


def _reference_level_maps(F, bog):
    """The level maps of the second quantization, with the right-hand side
    of each level solve built one basis vector at a time."""
    level_maps = [bog.beta.as_linear_map().matrix, bog.matrix]
    eyeH = np.eye(F.bimodule.dim)
    for k in range(1, F.N):
        step = F.maps[k]
        S = step.matrix
        Sp = np.hstack([step.apply(bog.matrix @ eyeH[:, i]) @ level_maps[k]
                        for i in range(F.bimodule.dim)])
        X, *_ = np.linalg.lstsq(S.conj().T, Sp.conj().T, rcond=None)
        level_maps.append(X.conj().T)
    return level_maps


@pytest.mark.parametrize("augmented", [False, True])
def test_extension_matches_per_vector_construction(augmented):
    bog = random_bogoliubov(np.random.default_rng(5))
    assert np.linalg.norm(bog.matrix @ bog.matrix.conj().T
                          - np.eye(bog.module.dim)) < 1e-9
    assert np.count_nonzero(np.abs(bog.matrix) > 1e-12) > bog.module.dim
    xi = None
    if augmented:
        aug = AugmentedModule(bog.module)
        bog, xi = augmented_bogoliubov(aug, bog), aug.xi
    F = FockSpace(bog.module, 3)
    M, rep = fock_extension(F, bog, xi=xi, tol=1e-9)
    assert rep.passed, rep.failures
    for k, ref in enumerate(_reference_level_maps(F, bog)):
        blk = M[F.level_slice(k), F.level_slice(k)]
        assert np.linalg.norm(blk - ref) <= 1e-12 * max(
            1.0, np.linalg.norm(ref)), k


def test_extension_builds_each_level_from_one_tensor_matrix(monkeypatch):
    H, K, U = multiplicity_shift_instance()
    N = 3
    F = FockSpace(H, N)
    calls = []
    apply = TensorStep.apply

    def counted(self, h_flat):
        calls.append(1)
        return apply(self, h_flat)

    monkeypatch.setattr(TensorStep, "apply", counted)
    _, rep = fock_extension(F, U, tol=1e-9)
    assert rep.passed, rep.failures
    assert len(calls) <= 3 * (N - 1) * H.dim


def _dense_intertwining_residual(F, bog, M):
    """creation-intertwining as it was before it was read off the level
    defects: two Fock-size creation matrices and two products per basis
    vector.  Kept as the reference for fock_extension."""
    H = F.bimodule
    res_int = 0.0
    for e in H.basis():
        lhs = M @ F.creation_matrix(e)
        rhs = F.creation_matrix(bog(e)) @ M
        res_int = max(res_int, float(np.linalg.norm(lhs - rhs)))
    return res_int


def _intertwining_cases():
    H, K, U = multiplicity_shift_instance()
    _, Uf = flip_twisted_module()
    return [random_bogoliubov(np.random.default_rng(5)), U, Uf]


def _extension(bog, augmented):
    xi = None
    if augmented:
        aug = AugmentedModule(bog.module)
        bog, xi = augmented_bogoliubov(aug, bog), aug.xi
    F = FockSpace(bog.module, 3)
    M, rep = fock_extension(F, bog, xi=xi, tol=1e-9)
    res = {c.name: c.residual for c in rep.checks}["creation-intertwining"]
    return F, bog, M, rep, res


@pytest.mark.parametrize("augmented", [False, True])
@pytest.mark.parametrize("case", range(3))
def test_intertwining_matches_dense_reference(case, augmented):
    bog = _intertwining_cases()[case]
    F, bog, M, rep, res = _extension(bog, augmented)
    assert rep.passed, rep.failures
    assert abs(res - _dense_intertwining_residual(F, bog, M)) <= 1e-15


@pytest.mark.parametrize("augmented", [False, True])
def test_non_bimodular_map_fails_intertwining(augmented):
    H, K, U = multiplicity_shift_instance()
    rng = np.random.default_rng(17)
    bad = BogoliubovMap(H, haar_unitary_matrix(rng, H.dim), U.beta)
    assert not validate_bogoliubov(bad, rng=rng, tol=1e-9).passed
    F, bad, M, rep, res = _extension(bad, augmented)
    ref = _dense_intertwining_residual(F, bad, M)
    assert "creation-intertwining" in {c.name for c in rep.failures}
    assert ref > 1e-9
    assert abs(res - ref) <= 1e-12 * ref

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import block_diag

from fockmod import bogoliubov as bg
from fockmod import cli
from fockmod.bogoliubov import (BogoliubovMap, _fock_level_spans,
                                _random_flat, augmented_bogoliubov,
                                compression_channels,
                                entropy_bound_report, fock_extension,
                                kp_subspace,
                                localized_tensor_dim, validate_bogoliubov)
from fockmod.cstar import (AlgebraAutomorphism, CStarAlgebra,
                           PreconditionError, haar_unitary_matrix,
                           identity_automorphism)
from fockmod.fock import FockSpace, LevelOp
from fockmod.freeprod import AmalgSetup
from fockmod.hilbmod import (AugmentedModule, TensorStep, make_bimodule,
                             projection_from_basis, submodule_projection)
from fockmod.instances import (amalg_instances, creation_instances,
                               flip_twisted_module,
                               multiplicity_shift_instance, random_bogoliubov)
from fockmod.report import VerificationReport
from gram_schmidt_reference import reference_gram_schmidt, support
from tensor_reference import tensor_apply, tensor_matrix

RNG = np.random.default_rng(61)


def identity_map(H):
    return BogoliubovMap(H, np.eye(H.dim), identity_automorphism(H.base))


def test_identity_map_validates():
    B = CStarAlgebra((1, 1))
    H = make_bimodule(B, (1, 1), [(0, 1), (1, 0)])
    rep = validate_bogoliubov(identity_map(H), rng=RNG, tol=1e-9)
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
    FI, rep = fock_extension(F, identity_map(H), tol=1e-9)
    assert rep.passed, rep.failures
    assert np.linalg.norm(FI.dense() - np.eye(F.dim)) < 1e-9


def test_extension_intertwines_creation():
    H, K, U = multiplicity_shift_instance()
    F = FockSpace(H, 2)
    FU, rep = fock_extension(F, U, tol=1e-9)
    assert rep.passed, rep.failures
    x = H.random_vector(RNG)
    lhs = FU @ F.creation(x).placed()
    rhs = F.creation(U(x)).placed() @ FU
    from fockmod.fock import masked_norm
    assert masked_norm(lhs - rhs, F.N - 1) < 1e-8


def test_augmented_extension_fixes_unit_vector():
    H, U = flip_twisted_module()
    aug = AugmentedModule(H)
    tU = augmented_bogoliubov(aug, U)
    F = FockSpace(aug.module, 3)
    FU, rep = fock_extension(F, tU, xi=aug.xi, tol=1e-9)
    assert rep.passed, rep.failures


def test_kp_dimensions_grow_until_saturation():
    H, K, U = multiplicity_shift_instance()
    dims = []
    for p in range(1, 6):
        spans, rep = kp_subspace(U, K, p)
        assert rep.passed, rep.failures
        dims.append(spans[-1].complex_dim)
    assert dims == [4, 8, 12, 12, 12]
    assert [span.complex_dim for span in spans] == dims


def test_zero_growth_subspace_is_rejected():
    H, K, U = multiplicity_shift_instance()
    K0 = submodule_projection([H.from_flat(np.zeros(H.dim))])
    assert K0.basis == []
    with pytest.raises(PreconditionError, match="growth subspace K is zero"):
        kp_subspace(U, K0, 2)


def test_compression_channel_properties():
    H, K, U = multiplicity_shift_instance()
    F = FockSpace(H, 3)
    spans, _ = kp_subspace(U, K, 2)
    Q, rep = compression_channels(F, spans[-1],
                                  _fock_level_spans(F, 2, spans[-1]), RNG,
                                  tol=1e-8)
    assert rep.passed, rep.failures
    Q = Q.dense()
    assert np.linalg.norm(Q @ Q - Q) < 1e-9
    assert np.linalg.norm(Q - Q.conj().T) < 1e-9


def test_compression_channels_stay_in_component_form(monkeypatch):
    """Q and every operator it meets are level operators over the base's
    components: nothing is placed on one component or built from dense
    level blocks.  tower_dim is the trace of the dense Q."""
    def refuse(*args):
        raise AssertionError("placed Fock operator built")

    H, K, U = multiplicity_shift_instance()
    bog = random_bogoliubov(np.random.default_rng(3))
    Kr = submodule_projection([bog.domain.random_vector(RNG)])
    cases = [(FockSpace(H, 3), U, K, n) for n in (1, 2, 3)] + [
        (FockSpace(bog.domain, 2), bog, Kr, 2)]
    for F, bog_map, span, n in cases:
        spans, _ = kp_subspace(bog_map, span, 2)
        towers = _fock_level_spans(F, n, spans[-1])
        with monkeypatch.context() as m:
            m.setattr(LevelOp, "placed", refuse)
            m.setattr(FockSpace, "diagonal", refuse)
            Q, rep = compression_channels(F, spans[-1], towers, RNG,
                                          tol=1e-8)
        assert rep.passed, rep.failures
        assert (Q.rmult, Q.sizes) == (F.level_mult, F.base.block_sizes)
        assert rep.parameters["tower_dim"] == round(
            np.trace(Q.dense()).real)


def test_entropy_dimension_bound_on_shift_grid():
    H, K, U = multiplicity_shift_instance()
    F = FockSpace(H, 3)
    spans, _ = kp_subspace(U, K, 4)
    reports = entropy_bound_report(F, U, spans, _towers(F, 3, spans),
                                   (1, 2, 3), RNG)
    assert [rep.parameters["n"] for rep in reports] == [1, 2, 3]
    for rep in reports:
        checks = {c.name: c for c in rep.checks}
        assert checks["dimension-bound"].passed, \
            checks["dimension-bound"].details["table"]
        assert checks["ratio-trend"].passed


def _towers(F, n, spans):
    return [_fock_level_spans(F, n, span) for span in spans]


def test_entropy_measured_dims_for_shift():
    H, K, U = multiplicity_shift_instance()
    F = FockSpace(H, 3)
    spans, _ = kp_subspace(U, K, 5)
    rep, = entropy_bound_report(F, U, spans, _towers(F, 1, spans), [1], RNG)
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
        S = tensor_matrix(step)
        Sp = np.hstack([tensor_apply(step, bog.matrix @ eyeH[:, i])
                        @ level_maps[k]
                        for i in range(F.bimodule.dim)])
        X, *_ = np.linalg.lstsq(S.conj().T, Sp.conj().T, rcond=None)
        level_maps.append(X.conj().T)
    return level_maps


def _assert_matches_per_vector_construction(bog, augmented):
    xi = None
    if augmented:
        aug = AugmentedModule(bog.domain)
        bog, xi = augmented_bogoliubov(aug, bog), aug.xi
    F = FockSpace(bog.domain, 3)
    M, rep = fock_extension(F, bog, xi=xi, tol=1e-9)
    assert rep.passed, rep.failures
    for k, ref in enumerate(_reference_level_maps(F, bog)):
        blk = M.block(k, k)
        assert np.linalg.norm(blk - ref) <= 1e-12 * max(
            1.0, np.linalg.norm(ref)), k


@pytest.mark.parametrize("augmented", [False, True])
def test_extension_matches_per_vector_construction(augmented):
    bog = random_bogoliubov(np.random.default_rng(5))
    assert np.linalg.norm(bog.matrix @ bog.matrix.conj().T
                          - np.eye(bog.domain.dim)) < 1e-9
    assert np.count_nonzero(np.abs(bog.matrix) > 1e-12) > bog.domain.dim
    _assert_matches_per_vector_construction(bog, augmented)


def _mixed_block_bogoliubov(rng):
    """A random twisted map over the base blocks (1, 2), on the bimodule
    with one copy of every base block in every component, twisted by
    beta = Ad(v): component j acts as x -> A_j x v_j* with
    A_j = (+)_k (w_jk (x) v_k)."""
    sizes = (1, 2)
    B = CStarAlgebra(sizes)
    H = make_bimodule(B, (sum(sizes),) * len(sizes),
                      [(1,) * len(sizes)] * len(sizes), rng=rng)
    v = [haar_unitary_matrix(rng, n) for n in sizes]
    U = block_diag(
        *[np.kron(block_diag(*[np.kron(haar_unitary_matrix(rng, 1), vk)
                               for vk in v]), vj.conj()) for vj in v])
    return BogoliubovMap(H, U, AlgebraAutomorphism(B, unitaries=v))


@pytest.mark.parametrize("augmented", [False, True])
def test_extension_on_mixed_blocks_matches_per_vector_construction(augmented):
    """Base blocks (1, 2): tensor-step rows of squared norms 1 and 2."""
    bog = _mixed_block_bogoliubov(np.random.default_rng(5))
    _assert_matches_per_vector_construction(bog, augmented)


def test_extension_builds_each_level_from_one_tensor_matrix(monkeypatch):
    """Each level reads the nonzeros of its tensor step once, and nothing
    else of the step."""
    H, K, U = multiplicity_shift_instance()
    N = 3
    F = FockSpace(H, N)
    calls = []
    nonzeros = TensorStep.nonzeros

    def counted(self):
        calls.append(self)
        return nonzeros(self)

    def refuse(*args):
        raise AssertionError("tensor step read other than by its nonzeros")

    monkeypatch.setattr(TensorStep, "nonzeros", counted)
    monkeypatch.setattr(TensorStep, "tensor", refuse)
    monkeypatch.setattr(TensorStep, "components", refuse)
    _, rep = fock_extension(F, U, tol=1e-9)
    assert rep.passed, rep.failures
    assert calls == F.maps


def _row_block_sizes(step):
    """n_k for each row of the tensor-step matrix: component j of T has
    K.left_mult[j][k] copies of the r_k rows of H's component k, each row
    of length n_j."""
    H, K = step.H, step.K
    sizes = H.base.block_sizes
    return np.concatenate([np.full(K.left_mult[j][k] * H.right_mult[k] * n_j,
                                   float(n_k))
                           for j, n_j in enumerate(sizes)
                           for k, n_k in enumerate(sizes)])


def _tensor_step_modules():
    """The creation_instances(25, 5) modules, the three bog modules and
    their augmentations."""
    modules = [H for H, _ in creation_instances(25, 5)]
    for bog in _intertwining_cases():
        modules += [bog.domain, AugmentedModule(bog.domain).module]
    return modules


def test_tensor_step_rows_are_orthogonal():
    """S S* = diag(n_k): the closed-form level solve of fock_extension."""
    modules = _tensor_step_modules()
    assert {n for H in modules for n in H.base.block_sizes} == {1, 2, 3}
    for H in modules:
        for step in FockSpace(H, 3).maps:
            S = tensor_matrix(step)
            want = _row_block_sizes(step)
            assert want.shape == (S.shape[0],)
            assert np.abs(S @ S.conj().T - np.diag(want)).max() <= 1e-13


def test_tensor_step_nonzeros_scatter_to_the_dense_step():
    """The entries (m, i, l, v) of `nonzeros`, scattered into a dense array,
    are S = tensor(eye, eye) entry for entry: each (m, i, l) once, every v
    nonzero."""
    modules = _tensor_step_modules() + [AmalgSetup(*amalg_instances(0)[0],
                                                   3).H]
    for H in modules:
        for step in FockSpace(H, 3).maps:
            m, i, l, v = step.nonzeros()
            dK = step.K.dim
            S = np.zeros((step.module.dim, H.dim * dK), complex)
            S[m, i * dK + l] = v
            assert np.array_equal(S, tensor_matrix(step))
            assert np.count_nonzero(S) == len(v) == np.count_nonzero(v)


def test_extension_stays_below_one_dense_tensor_step():
    """The second quantization at N = 5 on the multiplicity shift: the
    dense S of level 4 alone takes 57.7 MB, and building S, S kron(U, F_k)
    and F_{k+1} S whole peaked at 319 MB."""
    H, K, U = multiplicity_shift_instance()
    F = FockSpace(H, 5)
    tracemalloc.start()
    try:
        _, rep = fock_extension(F, U, tol=1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed, rep.failures
    assert peak < 128 * 2 ** 20, peak


def test_fock_level_spans_are_the_submodule_bases():
    """Each level of the tower against the module-arithmetic reference,
    fed the same inputs: the span basis on level 1, and every g (x) v, g in
    the span basis and v in the level below, above it."""
    H, K, U = multiplicity_shift_instance()
    F = FockSpace(H, 3)
    spans, _ = kp_subspace(U, K, 3)
    for span in spans:
        got = _fock_level_spans(F, 3, span)
        assert len(got) == 4 and len(got[0]) == F.levels[0].dim
        G = np.array([g.flat for g in span.basis])
        for k, level in enumerate(F.levels[1:], start=1):
            inputs = G if k == 1 else F.maps[k - 1].tensor(
                G[:, None], np.array([v.flat for v in got[k - 1]])[None])
            want = reference_gram_schmidt(
                [level.from_flat(t) for t in inputs.reshape(-1, level.dim)])
            assert len(got[k]) == len(want) > 0
            assert [support(v) for v in got[k]] == [support(v) for v in want]
            assert np.linalg.norm(projection_from_basis(level, got[k])
                                  - projection_from_basis(level, want)) \
                < 1e-12


@pytest.mark.parametrize("case", range(3))
def test_growth_chain_spans_are_the_prefix_spans(case):
    """One orthogonalization serves the chain: K_q is the span of the first
    q r generators U^i g, i < q, with the same dimension and the same basis
    bit for bit as submodule_projection builds from that prefix."""
    bog, K, _, p_max = _entropy_cases()[case]
    spans, rep = kp_subspace(bog, K, p_max)
    assert rep.passed, rep.failures
    gens = [bog.domain.from_flat(bog.power(i) @ g.flat)
            for i in range(p_max) for g in K.generators]
    r = len(K.generators)
    assert len(spans) == p_max
    for q, span in enumerate(spans, start=1):
        want = submodule_projection(gens[:q * r])
        assert span.complex_dim == want.complex_dim
        assert len(span.basis) == len(want.basis)
        assert all(np.array_equal(x.flat, y.flat)
                   for x, y in zip(span.basis, want.basis))
        assert np.array_equal(span.projection, want.projection)
    zero = submodule_projection([bog.domain.from_flat(np.zeros(
        bog.domain.dim))])
    with pytest.raises(PreconditionError, match="growth subspace K is zero"):
        kp_subspace(bog, zero, p_max)


@pytest.mark.parametrize("case", ["random", "shift"])
def test_perturbed_map_fails_the_level_solves(case):
    """Noise on a Bogoliubov map leaves S kron(U, F_k) outside the row space
    of S, so the residuals that vanish on exact maps stay live checks."""
    if case == "random":
        bog = random_bogoliubov(np.random.default_rng(5))
    else:
        bog = multiplicity_shift_instance()[2]
    _, rep = fock_extension(FockSpace(bog.domain, 3), bog, tol=1e-9)
    assert rep.passed, rep.failures
    rng = np.random.default_rng(3)
    noise = rng.standard_normal(bog.matrix.shape) \
        + 1j * rng.standard_normal(bog.matrix.shape)
    bad = BogoliubovMap(bog.domain, bog.matrix + 1e-3 * noise, bog.beta)
    _, rep = fock_extension(FockSpace(bad.domain, 3), bad, tol=1e-9)
    assert {c.name for c in rep.failures} \
        == {"tensor-consistency", "creation-intertwining"}


def _dense_intertwining_residual(F, bog, M):
    """creation-intertwining as it was before it was read off the level
    defects: two Fock-size creation matrices and two products per basis
    vector.  Kept as the reference for fock_extension."""
    H = F.bimodule
    M = M.dense()
    res_int = 0.0
    for e in H.basis():
        lhs = M @ F.creation(e).dense()
        rhs = F.creation(bog(e)).dense() @ M
        res_int = max(res_int, float(np.linalg.norm(lhs - rhs)))
    return res_int


def _intertwining_cases():
    H, K, U = multiplicity_shift_instance()
    _, Uf = flip_twisted_module()
    return [random_bogoliubov(np.random.default_rng(5)), U, Uf]


def _extension(bog, augmented):
    xi = None
    if augmented:
        aug = AugmentedModule(bog.domain)
        bog, xi = augmented_bogoliubov(aug, bog), aug.xi
    F = FockSpace(bog.domain, 3)
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


def _reference_entropy_bound_report(F, bog, K, n, p_max, rng, samples=3,
                                    tol=1e-9):
    """entropy_bound_report as it was before it took the growth chain: one
    level per call, K_p rebuilt for every p.  Kept verbatim, with the
    K_p build of kp_subspace inlined, as the reference."""
    if n > F.N:
        raise PreconditionError("tower level exceeds the truncation")
    H = F.bimodule
    dimV = sum(H.base.block_sizes)
    sample_flats = [_random_flat(K.basis, rng) for _ in range(samples)]
    rows = []           # (p, dim K_p, measured, bound, ratio)
    containment = 0.0
    for p in range(1, p_max + 1):
        gens = []
        for i in range(p):
            Ui = bog.power(i)
            gens.extend(H.from_flat(Ui @ g.flat) for g in K.generators)
        span = submodule_projection(gens)
        level_bases = _fock_level_spans(F, n, span)
        measured = sum(localized_tensor_dim(F.levels[k], basis)
                       for k, basis in enumerate(level_bases))
        bound = n * p ** n * dimV * K.complex_dim ** n
        ratio = np.log(measured) / p if measured > 0 else 0.0
        rows.append((p, span.complex_dim, measured, bound, ratio))
        Qp = span.projection
        one = np.eye(H.dim)
        for j in range(p):
            Uj = bog.power(j)
            for flat in sample_flats:
                v = Uj @ flat
                containment = max(containment,
                                  float(np.linalg.norm((one - Qp) @ v))
                                  / max(1.0, float(np.linalg.norm(v))))
    ratios = [r for (*_, r) in rows]
    tail = ratios[int(np.argmax(ratios)):] if ratios else []
    report = VerificationReport(
        suite="rank-growth",
        parameters={"n": n, "dim_C(K)": K.complex_dim, "dim(V)": dimV})
    table = {f"p={p}": {"dim_Kp": dk, "measured": m, "bound": b,
                        "log_dim_over_p": round(r, 6)}
             for (p, dk, m, b, r) in rows}
    report.add_bool("dimension-bound",
                    "dim(F_n(K_p) (x)_B V) <= n p^n dim(V) dim_C(K)^n",
                    all(m <= b for (_, _, m, b, _) in rows), table=table)
    report.add("word-containment",
               "conjugated words stay inside the tower of K_p",
               containment, tol)
    report.add_bool("ratio-trend",
                    "log(dim)/p non-increasing past its peak",
                    all(a >= b - 1e-12 for a, b in zip(tail, tail[1:])),
                    ratios=[round(r, 6) for r in ratios],
                    note=("saturating growth subspace" if rows and
                          rows[-1][1] < p_max * K.complex_dim else
                          "growth subspace still expanding at p_max"))
    return report


def _first_and_last(bog):
    basis = bog.domain.basis()
    return submodule_projection([basis[0], basis[-1]])


def _entropy_cases():
    """(map, growth subspace, levels, p_max) of the default bog suite."""
    H, K, U = multiplicity_shift_instance()
    bog = random_bogoliubov(np.random.default_rng(5))
    _, Uf = flip_twisted_module()
    return [(U, K, [1, 2, 3], 6), (bog, _first_and_last(bog), [2], 3),
            (Uf, _first_and_last(Uf), [1], 2)]


@pytest.mark.parametrize("case", range(3))
def test_entropy_reports_match_per_level_reference(case):
    bog, K, levels, p_max = _entropy_cases()[case]
    F = FockSpace(bog.domain, max(levels))
    rng, rng_ref = np.random.default_rng(19), np.random.default_rng(19)
    spans, _ = kp_subspace(bog, K, p_max)
    towers = _towers(F, max(levels), spans)
    got = entropy_bound_report(F, bog, spans, towers, levels, rng)
    want = [_reference_entropy_bound_report(F, bog, K, n, p_max, rng_ref)
            for n in levels]
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.suite, a.parameters) == (b.suite, b.parameters)
        assert [(c.name, c.anchor, c.residual, c.threshold, c.passed,
                 c.details) for c in a.checks] \
            == [(c.name, c.anchor, c.residual, c.threshold, c.passed,
                 c.details) for c in b.checks]
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    assert entropy_bound_report(F, bog, spans, towers, [], rng) == []


def test_bog_suite_builds_each_growth_chain_once(monkeypatch):
    counts = {"kp_subspace": 0, "_fock_level_spans": 0}

    def counted(name):
        fn = getattr(bg, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(bg, name, counted(name))
    reports = cli.run_suites(None, ("bog",), cli.Settings(seed=0))
    assert reports and all(rep.passed for rep in reports)
    assert counts["kp_subspace"] == 3
    assert counts["_fock_level_spans"] <= 14


def test_bog_suite_builds_each_fock_tower_once(monkeypatch):
    """Each (Fock space, level, growth subspace) tower is built once per
    entry of the bog suite: compression_channels and entropy_bound_report
    share the towers of the growth chain."""
    built = []      # holds F and span, so no id is reused
    fn = bg._fock_level_spans

    def recorded(F, n, span):
        built.append((F, n, span))
        return fn(F, n, span)

    monkeypatch.setattr(bg, "_fock_level_spans", recorded)
    reports = cli.run_suites(None, ("bog",), cli.Settings(seed=0))
    assert reports and all(rep.passed for rep in reports)
    keys = [(id(F), n, id(span)) for F, n, span in built]
    assert keys and len(keys) == len(set(keys))


_RECORDED = [("bog_crossed_checks.json", ("crossed", "free", "bog"), ""),
             ("fock_toeplitz_checks.json", ("fock", "toeplitz"),
              "fock_toeplitz-"),
             ("ideal_factorization_checks.json", ("ideal", "factorization"),
              "ideal_factorization-")]


@pytest.mark.parametrize("data, suites, truncation", [
    pytest.param(data, suites, truncation, id=prefix + truncation)
    for data, suites, prefix in _RECORDED
    for truncation in ("3", "4", "default")])
def test_bog_crossed_checks_match_the_recorded_residuals(data, suites,
                                                         truncation):
    """The suites against their checks as recorded in tests/data: crossed,
    free and bog with least-squares level solves, per-matrix-unit
    automorphism distances and per-vector Gram-Schmidt norms; fock and
    toeplitz with the dense Fock builders; ideal and factorization with a
    fresh pair of tensor-power towers for every factorization shape and the
    absorbing word of `ideal-absorbs-products` evaluated on every level."""
    path = Path(__file__).parent / "data" / data
    want = json.loads(path.read_text())["truncations"][truncation]
    st = cli.Settings(truncation=None if truncation == "default"
                      else int(truncation))
    got = [(r.suite, c.name, c.passed, c.residual)
           for suite in suites
           for r in cli.run_suites(None, (suite,), st) for c in r.checks]
    assert [tuple(row[:3]) for row in want] == [row[:3] for row in got]
    for (_, name, _, ref), (_, _, _, res) in zip(want, got):
        if ref is not None:
            assert abs(res - ref) <= 1e-13, name

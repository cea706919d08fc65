import numpy as np
import pytest
from scipy.linalg import block_diag

from fockmod import fock, hilbmod
from fockmod.cli import Settings, run_suites
from fockmod.cstar import (CStarAlgebra, PreconditionError, ResourceCapError,
                           StructureError, haar_unitary_matrix)
from fockmod.fock import (FockSpace, LevelOp, creation_relations_check,
                          endomorphism_injectivity_check,
                          expectation_properties_check,
                          ideal_structure_check, isometric_vector,
                          masked_norm, power_dims, quotient_dimension_check,
                          random_word, toeplitz_endomorphism, word)
from fockmod.freeprod import AmalgSetup
from fockmod.hilbmod import (HilbertBimodule, TensorStep, _kron_eye,
                             complex_rank, element_to_vector, make_bimodule,
                             trivial_module, vector_to_element)
from fockmod.instances import amalg_instances, creation_instances
from fockmod.report import VerificationReport
from tensor_reference import tensor_apply
import fock_reference as fock_ref
from fock_reference import fock_factorization_check
from test_crossed import _same_report, _twice

RNG = np.random.default_rng(37)


def plane_fock(N=4):
    B = CStarAlgebra((1,))
    H = make_bimodule(B, (2,), [(2,)])
    return FockSpace(H, N)


def swap_fock(N=4):
    B = CStarAlgebra((1, 1))
    H = make_bimodule(B, (1, 1), [(0, 1), (1, 0)])
    return FockSpace(H, N)


def _level_slice(F: FockSpace, k):
    """The rows of level k in the flat layout of the Fock space."""
    start = sum(F.level_dims[:k])
    return slice(start, start + F.level_dims[k])


def _level_blocks(F: FockSpace, M):
    """A dense Fock-size matrix as a LevelOp over one component of size 1:
    views of its level blocks."""
    s = [_level_slice(F, k) for k in range(F.N + 1)]
    return LevelOp([(d,) for d in F.level_dims], (1,),
                   {(i, j): [M[si, sj]] for i, si in enumerate(s)
                    for j, sj in enumerate(s)})


def _dense_word(F: FockSpace, coeffs, hs):
    """The balanced word of `word` on every level as a dense Fock-size
    matrix."""
    return word(F, coeffs, hs, F.N).dense()


def _right_matrix(F: FockSpace, b):
    """The dense right action of b on the Fock space, level by level."""
    return block_diag(*[lv.right_matrix(b) for lv in F.levels])


def test_creation_commutation_relation():
    F = plane_fock()
    H = F.bimodule
    x, y = H.random_vector(RNG), H.random_vector(RNG)
    Lx, Ly = F.creation(x).dense(), F.creation(y).dense()
    rhs = F.left(H.inner(x, y)).dense()
    diff = Lx.conj().T @ Ly - rhs
    assert masked_norm(_level_blocks(F, diff), F.N - 1) < 1e-10


def test_creation_intertwines_right_action():
    F = swap_fock()
    H = F.bimodule
    x = H.random_vector(RNG)
    b = H.base.random_element(RNG)
    Lx, Rb = F.creation(x).dense(), _right_matrix(F, b)
    assert masked_norm(_level_blocks(F, Lx @ Rb - Rb @ Lx), F.N - 1) < 1e-10


def test_creation_left_module_map():
    F = swap_fock()
    H = F.bimodule
    x = H.random_vector(RNG)
    b = H.base.random_element(RNG)
    lhs = F.creation(x.lmul(b)).dense()
    rhs = F.left(b).dense() @ F.creation(x).dense()
    assert masked_norm(_level_blocks(F, lhs - rhs), F.N - 1) < 1e-10


def test_vacuum_expectation_is_conditional():
    F = plane_fock()
    x = F.bimodule.random_vector(RNG)
    L = F.creation(x).dense()
    val = F.vacuum_expectation(_level_blocks(F, L.conj().T @ L))
    want = F.bimodule.inner(x, x)
    assert (val - want).norm() < 1e-10
    assert F.vacuum_expectation(_level_blocks(F, L)).norm() < 1e-12


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


def test_balanced_words_keep_every_level():
    F = plane_fock()
    for _ in range(5):
        W = _dense_word(F, *random_word(F, RNG, 2))
        assert W.shape == (F.dim, F.dim)
        assert np.array_equal(F.gauge_expectation(_level_blocks(F, W)).dense(),
                              W)


# The general alternating word of the parent implementation, kept verbatim
# as the reference for word and random_word on balanced words.

CREATE = "create"
ANNIHILATE = "annihilate"


class WordSpec:
    """Alternating word b_0 l(h_1)^g1 b_1 ... l(h_m)^gm b_m."""

    def __init__(self, coeffs, factors):
        self.coeffs = list(coeffs)
        self.factors = list(factors)
        if len(self.coeffs) != len(self.factors) + 1:
            raise StructureError("need one more coefficient than factors")
        for h, g in self.factors:
            if g not in (CREATE, ANNIHILATE):
                raise StructureError(f"unknown factor kind {g!r}")

    @property
    def degrees(self):
        return [1 if g == CREATE else -1 for _, g in self.factors]

    @property
    def net_degree(self):
        return sum(self.degrees)


def _reference_word(F: FockSpace, spec: WordSpec):
    M = F.left(spec.coeffs[0]).dense()
    for (h, g), b in zip(spec.factors, spec.coeffs[1:]):
        c = F.creation(h).dense()
        M = M @ (c if g == CREATE else c.conj().T) @ F.left(b).dense()
    return M


def _reference_random_word_spec(F: FockSpace, rng, m, balanced=False,
                                vectors=None):
    H = F.bimodule
    kinds = []
    if balanced:
        kinds = [CREATE] * (m // 2) + [ANNIHILATE] * (m - m // 2)
    else:
        kinds = [CREATE if rng.random() < 0.5 else ANNIHILATE for _ in range(m)]
    coeffs = [F.base.random_element(rng) for _ in range(m + 1)]
    if vectors is None:
        factors = [(H.random_vector(rng), g) for g in kinds]
    else:
        factors = [(vectors[rng.integers(len(vectors))], g) for g in kinds]
    return WordSpec(coeffs, factors)


def test_word_matches_alternating_reference():
    spaces = [plane_fock()] + [FockSpace(H, N)
                               for H, N in creation_instances(25, 5)[:2]]
    for F in spaces:
        for m in range(4):
            rng, rng_ref = np.random.default_rng(11), np.random.default_rng(11)
            W = _dense_word(F, *random_word(F, rng, m))
            spec = _reference_random_word_spec(F, rng_ref, 2 * m,
                                               balanced=True)
            assert spec.net_degree == 0
            R = _reference_word(F, spec)
            zero = R == 0
            if m == 0:
                assert np.array_equal(W, R)
            # a block product sums in another order than the dense one
            assert np.array_equal(W[zero], R[zero])
            assert np.linalg.norm(W[~zero] - R[~zero]) \
                <= 1e-14 * max(1.0, np.linalg.norm(R))
            assert rng.bit_generator.state == rng_ref.bit_generator.state


def _word_spaces():
    return [plane_fock(), swap_fock()] + [
        FockSpace(H, N) for H, N in creation_instances(25, 5)[:2]]


def test_diagonal_rejects_bad_block_lists():
    F = plane_fock(N=1)
    assert F.level_dims == (1, 2)
    blocks = [np.eye(d) for d in F.level_dims]
    assert F.diagonal(blocks).norm() == pytest.approx(np.sqrt(3))
    assert set(F.diagonal(blocks[:1]).blocks) == {(0, 0)}
    with pytest.raises(StructureError, match="3 level blocks, at most 2"):
        F.diagonal(blocks + [np.eye(4)])
    F = plane_fock(N=2)
    assert F.level_dims[2] == 4
    with pytest.raises(StructureError,
                       match=r"shape \(3, 3\), expected \(4, 4\)"):
        F.diagonal([np.eye(1), np.eye(2), np.eye(3)])
    with pytest.raises(StructureError, match="expected"):
        F.diagonal([np.eye(1), np.ones((2, 3))])


def test_word_is_the_reference_diagonal():
    for F in _word_spaces():
        for m in range(4):
            R = _reference_word(F, _reference_random_word_spec(
                F, np.random.default_rng(5), 2 * m, balanced=True))
            for top in range(F.N + 1):
                x = word(F, *random_word(F, np.random.default_rng(5), m),
                         top)
                assert (x.rmult, x.sizes) == (F.level_mult,
                                              F.base.block_sizes)
                # no block below m, and none above top
                assert set(x.blocks) == {(k, k) for k in range(m, top + 1)}
                for k in range(F.N + 1):
                    s = _level_slice(F, k)
                    want = R[s, s] if k <= top else 0
                    assert np.linalg.norm(x.block(k, k) - want) \
                        <= 1e-14 * max(1.0, np.linalg.norm(R))


def test_quotient_corner_is_the_word_corner(monkeypatch):
    """The check's compressed words are the dense words' level blocks below
    n, drawn in the order of the check's rng stream: one stack of six words
    per word length."""
    F = swap_fock(4)
    corners = []

    def recorded(F, coeffs, hs, top):
        out = word(F, coeffs, hs, top)
        corners.append((top, out))
        return out

    monkeypatch.setattr(fock, "word", recorded)
    n = 2
    rng, rng_ref = np.random.default_rng(8), np.random.default_rng(8)
    rep = quotient_dimension_check(F, n, rng)
    assert rep.passed, rep.failures
    ms = [n] + [m for depth in (n, n - 1) for m in range(depth + 1)]
    assert len(corners) == len(ms)
    for m, (top, x) in zip(ms, corners):
        assert top == n - 1
        for sample in range(6):
            W = _dense_word(F, *random_word(F, rng_ref, m))
            for k in range(n):
                s = _level_slice(F, k)
                assert np.array_equal(x[sample].block(k, k), W[s, s])
    assert rng.bit_generator.state == rng_ref.bit_generator.state


def _reference_vacuum(F: FockSpace):
    one = element_to_vector(F.levels[0], F.base.identity())
    out = np.zeros(F.dim, complex)
    out[_level_slice(F, 0)] = one.flat
    return out


def _reference_u_v(F: FockSpace, coeffs, hs, n):
    """The dense prefix and suffix products of the parent implementation,
    kept verbatim as the reference for the level-n vectors u and v."""
    prefix = F.left(coeffs[0]).dense()
    for i in range(n):
        prefix = prefix @ F.creation(hs[i]).dense() \
            @ F.left(coeffs[i + 1]).dense()
    u_flat = prefix @ _reference_vacuum(F)
    suffix_adj = np.eye(F.dim, dtype=complex)
    for i in range(n):
        suffix_adj = F.left(coeffs[n + 1 + i].adjoint()).dense() \
            @ F.creation(hs[n + i]).dense() @ suffix_adj
    v_flat = suffix_adj @ _reference_vacuum(F)
    lev = F.levels[n]
    u = lev.from_flat(u_flat[_level_slice(F, n)])
    v = lev.from_flat(v_flat[_level_slice(F, n)])
    return u, v


def test_rank_one_vectors_match_dense_prefix_and_suffix():
    rng = np.random.default_rng(19)
    for F in _word_spaces():
        for n in range(1, F.N + 1):
            coeffs, hs = random_word(F, rng, n)
            u_ref, v_ref = _reference_u_v(F, coeffs, hs, n)
            u = fock._vacuum_tensor(F, coeffs[:n + 1], hs[:n])
            v = fock._vacuum_tensor(
                F, [c.adjoint() for c in coeffs[:n:-1]] + [F.base.identity()],
                hs[:n - 1:-1])
            for got, ref in ((u, u_ref), (v, v_ref)):
                assert got.parent is F.levels[n]
                assert np.linalg.norm(got.flat - ref.flat) \
                    <= 1e-14 * max(1.0, np.linalg.norm(ref.flat))


def test_ideal_and_quotient_checks_build_no_fock_size_operators(monkeypatch):
    """The words stay level operators over the base's components: nothing
    is multiplied out, placed on one component or built from dense level
    blocks."""
    def refuse(*args):
        raise AssertionError("dense or placed Fock operator built")

    monkeypatch.setattr(LevelOp, "dense", refuse)
    monkeypatch.setattr(LevelOp, "placed", refuse)
    monkeypatch.setattr(FockSpace, "diagonal", refuse)
    for F in (plane_fock(4), swap_fock(4)):
        for n in (1, 2):
            rep = ideal_structure_check(F, n, RNG)
            rep.merge(quotient_dimension_check(F, n, RNG))
            assert rep.passed, rep.failures


def test_quotient_check_never_evaluates_levels_from_n(monkeypatch):
    F = swap_fock(4)
    n = 2

    def refuse(self, b):
        raise AssertionError("level block at or above n evaluated")

    for lev in F.levels[n:]:
        monkeypatch.setattr(lev, "left_matrix", refuse.__get__(lev))
    left_level = F._left_level

    def below_n(k, b, reps):
        if k >= n:
            raise AssertionError("level block at or above n evaluated")
        return left_level(k, b, reps)

    monkeypatch.setattr(F, "_left_level", below_n)
    for step in F.maps[n - 1:]:     # the steps into levels n and above
        monkeypatch.setattr(step, "components", refuse.__get__(step))
    rep = quotient_dimension_check(F, n, RNG)
    assert rep.passed, rep.failures


def test_ideal_check_never_evaluates_levels_above_n(monkeypatch):
    """Levels above n are never read: the ideal's generators are checked on
    levels <= n, and the absorbing word acts only on levels < n."""
    for n in (1, 2):
        F = swap_fock(4)

        def refuse(self, b):
            raise AssertionError("level block above n evaluated")

        left_level = F._left_level

        def up_to_n(k, b, reps):
            if k > n:
                raise AssertionError("level block above n evaluated")
            return left_level(k, b, reps)

        monkeypatch.setattr(F, "_left_level", up_to_n)
        for step in F.maps[n:]:     # the steps into levels n + 1 and above
            monkeypatch.setattr(step, "components", refuse.__get__(step))
        rep = ideal_structure_check(F, n, RNG)
        assert rep.passed, rep.failures


def _first_instance_fock():
    H, _ = creation_instances(25, 5)[0]
    return FockSpace(H, 3)


@pytest.mark.parametrize("check, n", [
    (ideal_structure_check, 0),
    (quotient_dimension_check, 0),
    (quotient_dimension_check, -1),
])
def test_filtration_depth_below_one_is_refused_before_drawing(check, n):
    F = _first_instance_fock()
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(PreconditionError, match="at least 1"):
        check(F, n, rng)
    assert rng.bit_generator.state == state


def test_injectivity_depth_below_zero_is_refused_before_drawing():
    F = _first_instance_fock()
    L = F.creation(F.bimodule.random_vector(RNG))
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(PreconditionError, match="nonnegative"):
        endomorphism_injectivity_check(F, L, -1, rng)
    assert rng.bit_generator.state == state


def test_word_rejects_wrong_counts():
    F = plane_fock()
    coeffs, hs = random_word(F, RNG, 1)
    with pytest.raises(StructureError):
        word(F, coeffs[:-1], hs, F.N)
    with pytest.raises(StructureError):
        word(F, coeffs[:-1], hs[:-1], F.N)


def test_toeplitz_endomorphism_and_injectivity():
    F = plane_fock(4)
    L = F.creation(isometric_vector(F.bimodule, RNG))
    op, rep = toeplitz_endomorphism(F, F.left(F.bimodule.base.identity()),
                                    L, rng=RNG, tol=1e-9)
    assert rep.passed, rep.failures
    inj = endomorphism_injectivity_check(F, L, 2, RNG)
    assert inj.passed, inj.failures


def test_toeplitz_rejects_offdiagonal_argument():
    F = plane_fock(4)
    x = F.bimodule.random_vector(RNG)
    L = F.creation(isometric_vector(F.bimodule, RNG))
    with pytest.raises(PreconditionError):
        toeplitz_endomorphism(F, F.creation(x), L, rng=RNG)


def test_dimension_cap_raises_resource_error():
    B = CStarAlgebra((1,))
    H = make_bimodule(B, (3,), [(3,)])
    with pytest.raises(ResourceCapError):
        FockSpace(H, 8, dim_cap=100)


def _count_tensor_steps(monkeypatch):
    calls = []
    real = fock.TensorStep
    monkeypatch.setattr(fock, "TensorStep",
                        lambda *a: calls.append(a) or real(*a))
    return calls


def test_dimension_cap_checked_before_building(monkeypatch):
    B = CStarAlgebra((1,))
    H = make_bimodule(B, (3,), [(3,)])
    calls = _count_tensor_steps(monkeypatch)
    with pytest.raises(ResourceCapError):
        FockSpace(H, 8, dim_cap=100)
    assert calls == []


def test_factorization_cap_checked_before_building(monkeypatch):
    B = CStarAlgebra((1,))
    H = make_bimodule(B, (3,), [(3,)])
    calls = _count_tensor_steps(monkeypatch)
    with pytest.raises(ResourceCapError):
        fock_factorization_check(H, 1, 3, 1, RNG, dim_cap=100)
    assert calls == []


def test_factorization_cap_counts_the_vacuum_level():
    """Levels 0..m count, also at m = 1, where nothing but level 1 is new."""
    B = CStarAlgebra((1,))
    H = make_bimodule(B, (3,), [(3,)])
    fock_factorization_check(H, 0, 1, 0, RNG, dim_cap=4)
    with pytest.raises(ResourceCapError):
        fock_factorization_check(H, 0, 1, 0, RNG, dim_cap=3)


def test_predicted_dims_match_built_levels():
    for H, N in creation_instances(11, count=6):
        F = FockSpace(H, N)
        dims = tuple(power_dims(H.base.block_sizes, H.left_mult, N))
        assert dims[1:] == F.level_dims[1:]
        assert dims == F.level_dims


class _BaseStep:
    """Level 0 to 1 creation data: b -> h.b on the vacuum copy of B.  The
    level-0 step as it was before every level came from a TensorStep; kept
    as the reference for maps[0]."""

    def __init__(self, H: HilbertBimodule):
        self.H = H
        vac = trivial_module(H.base)
        self._right_units = [
            H.right_matrix(vector_to_element(vac.from_flat(col)))
            for col in np.eye(vac.dim)]

    def apply(self, h_flat):
        return np.column_stack([R @ h_flat for R in self._right_units])


def test_vacuum_step_is_the_right_action():
    compared = 0
    for seed in (25, 50, 54, 3, 7):
        for H, N in creation_instances(seed, count=5):
            F = FockSpace(H, 1)
            lv = F.levels[1]
            assert (lv.right_mult, lv.left_mult) == (H.right_mult, H.left_mult)
            assert all(np.array_equal(u, v) for u, v in
                       zip(lv.left_unitaries, H.left_unitaries))
            ref = _BaseStep(H)
            rng = np.random.default_rng(seed)
            for _ in range(3):
                h = H.random_vector(rng).flat
                assert np.array_equal(tensor_apply(F.maps[0], h), ref.apply(h))
                compared += 1
    assert compared == 75


def _power_chain(module, m):
    """levels[i], 1 <= i <= m, the i-fold power; maps[i] the step
    module (x) levels[i] -> levels[i+1]."""
    levels, maps = {1: module}, {}
    for i in range(1, m):
        maps[i] = TensorStep(module, levels[i])
        levels[i + 1] = maps[i].module
    return levels, maps


def _per_sample_factorization_check(M, n, k, j, rng, samples=None, tol=1e-9,
                                    dim_cap=fock.DEFAULT_DIM_CAP):
    """The factorization check as it was before its samples were batched:
    one tensor-step matrix per sample and level, one B-valued inner product
    per pair.  Kept as the reference for the batched check."""
    if not (0 <= j <= n):
        raise PreconditionError("need 0 <= j <= n")
    m = k * (n + 1) + j
    if m < 1:
        raise PreconditionError("empty regrouping")
    report = VerificationReport(suite="fock-factorization",
                                parameters={"n": n, "k": k, "j": j})
    levels, maps = _power_chain(M, max(m, n + 1))

    def fold(h_list):
        v = h_list[-1].flat
        for i, h in enumerate(reversed(h_list[:-1])):
            v = tensor_apply(maps[i + 1], h.flat) @ v
        return v

    left_mod = levels[m]
    Y = levels[n + 1]
    pow_levels, pow_maps = ({1: Y}, {}) if k <= 1 else _power_chain(Y, k)
    if k >= 1:
        Ypow = pow_levels[k]
    if k == 0:
        right_mod = levels[j]
    elif j == 0:
        right_mod = Ypow
    else:
        cross_step = TensorStep(levels[j], Ypow)
        right_mod = cross_step.module

    def embed_right(h_list):
        groups = [h_list[j + i * (n + 1): j + (i + 1) * (n + 1)] for i in range(k)]
        ys = [fold(g) for g in groups]
        if k >= 1:
            y = ys[-1]
            for i in range(k - 2, -1, -1):
                y = tensor_apply(pow_maps[k - 1 - i], ys[i]) @ y
        if k == 0:
            return fold(h_list[:j])
        if j == 0:
            return y
        return tensor_apply(cross_step, fold(h_list[:j])) @ y

    report.add_bool("dimension-equality",
                    "dim of the regrouped power equals dim of the plain power",
                    left_mod.dim == right_mod.dim,
                    left=left_mod.dim, right=right_mod.dim)
    if samples is None:
        samples = left_mod.dim + 8
    lefts, rights = [], []
    for _ in range(samples):
        hs = [M.random_vector(rng) for _ in range(m)]
        lefts.append(left_mod.from_flat(fold(hs)))
        rights.append(right_mod.from_flat(embed_right(hs)))
    res = 0.0
    pairs = min(samples, 25)
    norms = [v.norm() for v in lefts[:pairs]]
    for s in range(pairs):
        for t in range(s, pairs):
            gl = left_mod.inner(lefts[s], lefts[t])
            gr = right_mod.inner(rights[s], rights[t])
            res = max(res, (gl - gr).norm()
                      / max(1.0, norms[s] * norms[t]))
    report.add("gram-equality",
               "regrouping preserves the B-valued inner product", res, tol)
    rank_l = complex_rank([v.flat for v in lefts])
    report.add_bool("span-coverage",
                    "sampled simple tensors span the regrouped power",
                    rank_l == left_mod.dim, rank=rank_l, dim=left_mod.dim)
    return report


def _factorization_shapes(max_len=5):
    return [(n, k, j) for n in range(max_len) for k in range(max_len)
            for j in range(n + 1) if 0 < k * (n + 1) + j <= max_len]


def test_batched_factorization_matches_per_sample_reference():
    compared = 0
    for H, _ in creation_instances(25, count=5)[:2]:
        for n, k, j in _factorization_shapes():
            seed = 1000 * n + 100 * k + j
            new = fock_factorization_check(H, n, k, j,
                                           np.random.default_rng(seed))
            old = _per_sample_factorization_check(H, n, k, j,
                                                  np.random.default_rng(seed))
            assert [(c.name, c.passed, c.details) for c in new.checks] \
                == [(c.name, c.passed, c.details) for c in old.checks]
            for a, b in zip(new.checks, old.checks):
                if a.name == "gram-equality":
                    assert abs(a.residual - b.residual) <= 1e-15
            compared += 1
    assert compared == 2 * len(_factorization_shapes())


def test_factorization_uses_no_pairwise_inner_products_or_dense_steps(
        monkeypatch):
    """No B-valued inner product per pair, and no tensor-step matrix: the
    step is read only through the broadcast `tensor`."""
    calls = {"inner": 0, "nonzeros": 0}
    inner, nonzeros = HilbertBimodule.inner, TensorStep.nonzeros

    def counted_inner(self, x, y):
        calls["inner"] += 1
        return inner(self, x, y)

    def counted_nonzeros(self):
        calls["nonzeros"] += 1
        return nonzeros(self)

    monkeypatch.setattr(HilbertBimodule, "inner", counted_inner)
    monkeypatch.setattr(TensorStep, "nonzeros", counted_nonzeros)
    B = CStarAlgebra((1, 1))
    H = make_bimodule(B, (1, 1), [(0, 1), (1, 0)])
    calls["inner"] = 0      # make_bimodule's own law checks do not count
    rep = fock_factorization_check(H, 1, 2, 1, RNG, tol=1e-9)
    assert rep.passed, rep.failures
    assert calls == {"inner": 0, "nonzeros": 0}


# The dense level left action and creation matrix of the implementation
# before level operators, kept verbatim as the references for
# FockSpace.left and FockSpace.creation.

def _reference_left_matrix(F: FockSpace, b):
    """Every level conjugated by its left unitary: u diag u* per component."""
    levels = []
    for lv in F.levels:
        comps = []
        for j, n in enumerate(lv.base.block_sizes):
            pieces = []
            for k, c in enumerate(lv.left_mult[j]):
                if c:
                    pieces.append(np.kron(np.eye(c), b.blocks[k]))
            diag = block_diag(*pieces) if pieces \
                else np.zeros((lv.right_mult[j],) * 2, complex)
            u = lv.left_unitaries[j]
            comps.append(_kron_eye(u @ diag @ u.conj().T, n))
        levels.append(block_diag(*comps))
    return block_diag(*levels)


def _reference_creation_matrix(F: FockSpace, h):
    T = np.zeros((F.dim, F.dim), complex)
    for k in range(F.N):
        T[_level_slice(F, k + 1), _level_slice(F, k)] = \
            tensor_apply(F.maps[k], h.flat)
    return T


@pytest.fixture(scope="module")
def builder_spaces():
    spaces = [AmalgSetup(phi1, phi2, 3).F
              for seed in range(3) for phi1, phi2 in amalg_instances(seed)]
    return spaces + [FockSpace(H, N) for H, N in creation_instances(25, 5)[:2]]


def test_left_matches_the_conjugated_reference(builder_spaces):
    rng = np.random.default_rng(19)
    for F in builder_spaces:
        for _ in range(3):
            b = F.base.random_element(rng)
            ref = _reference_left_matrix(F, b)
            got = F.left(b)
            assert set(got.blocks) == {(k, k) for k in range(F.N + 1)}
            assert np.linalg.norm(got.dense() - ref) \
                <= 1e-14 * max(1.0, np.linalg.norm(ref))


def test_creation_equals_the_dense_reference(builder_spaces):
    rng = np.random.default_rng(23)
    for F in builder_spaces:
        h = F.bimodule.random_vector(rng)
        got = F.creation(h)
        assert set(got.blocks) == {(k + 1, k) for k in range(F.N)}
        # the component products sum in another order than the dense step
        ref = _reference_creation_matrix(F, h)
        assert np.linalg.norm(got.dense() - ref) \
            <= 1e-14 * max(1.0, np.linalg.norm(ref))


def _place(step, comps):
    """The direct sum of kron(C_j, I_{n_j}) in the flat layouts of the
    tensor step's module and its right factor."""
    T, K = step.module, step.K
    out = np.zeros((T.dim, K.dim), complex)
    for j, (C, n) in enumerate(zip(comps, K.base.block_sizes)):
        assert C.shape == (T.right_mult[j], K.right_mult[j])
        out[T.offsets[j]:T.offsets[j + 1], K.offsets[j]:K.offsets[j + 1]] = \
            _kron_eye(C, n)
    return out


def test_tensor_step_components_are_the_applied_step(builder_spaces):
    rng = np.random.default_rng(41)
    spaces = list(builder_spaces) + [FockSpace(H, min(N, 3)) for H, N
                                     in creation_instances(25, 5)]
    for F in spaces:
        h = F.bimodule.random_vector(rng)
        hs = F.bimodule.stack([h, F.bimodule.random_vector(rng)])
        for step in F.maps:
            ref = tensor_apply(step, h.flat)
            assert np.linalg.norm(_place(step, step.components(h.flat))
                                  - ref) \
                <= 1e-14 * max(1.0, np.linalg.norm(ref))
            # a stack of vectors gives each sample's components, bit-equal
            for s in range(2):
                assert all(np.array_equal(c[s], d) for c, d in zip(
                    step.components(hs.flat), step.components(hs[s].flat)))


# Level operators over base blocks of mixed sizes: the plane's one
# component of size 1 (where a dense matrix is the same operator), B = (1, 2)
# with both components filled, and B = (1, 2) with component 1 empty above
# the vacuum.

def _mixed_fock(N=3):
    B = CStarAlgebra((1, 2))
    H = make_bimodule(B, (3, 2), [(1, 1), (0, 1)])
    return FockSpace(H, N)


def _empty_component_fock(N=3):
    B = CStarAlgebra((1, 2))
    H = HilbertBimodule(B, (3, 0), [(1, 1), (0, 0)])
    F = FockSpace(H, N)
    assert F.level_mult[1:] == ((3, 0),) * N
    return F


def _level_op_spaces():
    return [plane_fock(3), _mixed_fock(), _empty_component_fock()]


def _random_level_op(F, rng, pairs):
    """A random right B-linear operator with the given level blocks."""
    r = F.level_mult
    return LevelOp(r, F.base.block_sizes, {
        (i, j): [rng.standard_normal((ri, rj))
                 + 1j * rng.standard_normal((ri, rj))
                 for ri, rj in zip(r[i], r[j])] for i, j in pairs})


_SHAPES = [[(1, 0), (2, 1), (3, 2)], [(k, k) for k in range(4)],
           [(0, 1), (1, 1), (3, 0), (2, 3), (0, 3)], []]


def test_level_op_dense_is_right_b_linear():
    rng = np.random.default_rng(43)
    for F in _level_op_spaces():
        b = F.base.random_element(rng)
        Rb = _right_matrix(F, b)
        for pairs in _SHAPES:
            D = _random_level_op(F, rng, pairs).dense()
            assert D.shape == (F.dim, F.dim)
            assert np.linalg.norm(D @ Rb - Rb @ D) \
                <= 1e-13 * max(1.0, np.linalg.norm(D) * np.linalg.norm(Rb))


def test_level_op_arithmetic_matches_dense():
    rng = np.random.default_rng(29)
    for F in _level_op_spaces():
        ops = [_random_level_op(F, rng, pairs) for pairs in _SHAPES]
        for A in ops:
            Ad = A.dense()
            assert np.array_equal(A.adjoint().dense(), Ad.conj().T)
            assert abs(A.norm() - np.linalg.norm(Ad)) \
                <= 1e-14 * max(1.0, np.linalg.norm(Ad))
            for i in range(F.N + 1):
                for j in range(F.N + 1):
                    assert np.array_equal(A.block(i, j),
                                          Ad[_level_slice(F, i),
                                             _level_slice(F, j)])
            for m in range(F.N + 1):
                cut = _level_slice(F, m).stop
                R = A.restrict(m).dense()
                assert np.array_equal(R[:, :cut], Ad[:, :cut])
                assert not R[:, cut:].any()
                want = np.linalg.norm(Ad[:, :cut])
                for M in (A, _level_blocks(F, Ad)):
                    assert abs(masked_norm(M, m) - want) \
                        <= 1e-14 * max(1.0, want)
            for B in ops:
                Bd = B.dense()
                assert np.array_equal((A + B).dense(), Ad + Bd)
                assert np.array_equal((A - B).dense(), Ad - Bd)
                assert np.linalg.norm((A @ B).dense() - Ad @ Bd) \
                    <= 1e-14 * max(1.0,
                                   np.linalg.norm(Ad) * np.linalg.norm(Bd))


def test_masked_norm_refuses_a_negative_level():
    A = _random_level_op(plane_fock(3), np.random.default_rng(3), [(1, 0)])
    assert masked_norm(A, 0) == A.norm()
    with pytest.raises(PreconditionError, match="overflow-free room"):
        masked_norm(A, -1)


def test_level_op_spectral_norm_is_the_block_maximum():
    rng = np.random.default_rng(31)
    for F in _level_op_spaces():
        # a block permutation such as [(1, 0), (0, 1)] is admitted: each
        # label meets one block
        for pairs in ([(k, k) for k in range(4)], [(1, 0), (2, 1), (3, 2)],
                      [(0, 2), (1, 3)], [(1, 0), (0, 1)], []):
            A = _random_level_op(F, rng, pairs)
            want = np.linalg.norm(A.dense(), 2)
            assert abs(A.spectral_norm() - want) <= 1e-14 * max(1.0, want)
        for pairs in ([(0, 0), (1, 0)], [(0, 0), (0, 1)]):
            with pytest.raises(StructureError, match="more than one block"):
                _random_level_op(F, rng, pairs).spectral_norm()


def test_expectations_of_level_ops_match_dense():
    rng = np.random.default_rng(37)
    for F in _level_op_spaces():
        A = _random_level_op(F, rng, [(0, 1), (1, 1), (3, 0), (2, 3),
                                      (0, 3)])
        B = _random_level_op(F, rng, [(1, 0), (2, 1), (3, 2), (3, 3)])
        Ad, Bd = A.dense(), B.dense()
        d0 = F.level_dims[0]
        one = element_to_vector(F.levels[0], F.base.identity()).flat
        want = (Ad @ Bd)[:d0, :d0] @ one
        # a dense matrix is an operator over one component of size 1, so
        # it mixes with a level operator only over B = C
        Ap, Bp = _level_blocks(F, Ad), _level_blocks(F, Bd)
        mixed = [(A, Bp)] if F.base.block_sizes == (1,) else []
        for factors in [(A, B), (Ap, Bp)] + mixed:
            got = F.vacuum_expectation(*factors)
            assert np.linalg.norm(got.flat - want) <= 1e-14 * max(
                1.0, np.linalg.norm(Ad) * np.linalg.norm(Bd))
        diag = block_diag(*[Ad[_level_slice(F, k), _level_slice(F, k)]
                            for k in range(F.N + 1)])
        for M in (A, Ap):
            assert np.array_equal(F.gauge_expectation(M).dense(), diag)
        assert set(F.gauge_expectation(A).blocks) == {(1, 1)}


def test_level_ops_on_different_components_are_refused():
    rng = np.random.default_rng(47)
    mixed, empty = _mixed_fock(), _empty_component_fock()
    A = _random_level_op(mixed, rng, [(1, 1)])
    others = [_random_level_op(empty, rng, [(1, 1)]),      # other rmult
              _random_level_op(plane_fock(3), rng, [(1, 1)]),  # other sizes
              _level_blocks(mixed, A.dense())]            # one component
    for B in others:
        for op in (lambda: A + B, lambda: A - B, lambda: A @ B,
                   lambda: B @ A, lambda: mixed.vacuum_expectation(A, B)):
            with pytest.raises(StructureError, match="different components"):
                op()
    with pytest.raises(StructureError):
        LevelOp(mixed.level_mult, (1,), {})
    with pytest.raises(StructureError):
        LevelOp(mixed.level_mult, (1, 2), {(1, 1): [np.eye(3)]})


def test_amalg_operators_stay_in_component_form():
    S = AmalgSetup(*amalg_instances(0)[0], 5)
    F = S.F
    assert F.level_dims[-1] == 1024
    a = S.A.random_element(np.random.default_rng(53))
    for X in (S.L, S.P, S.W, S.op(a)):
        assert (X.rmult, X.sizes) == (F.level_mult, F.base.block_sizes)
        for (i, m), comps in X.blocks.items():
            assert len(comps) == len(F.base.block_sizes)
            for j, T in enumerate(comps):
                assert T.shape == (F.level_mult[i][j], F.level_mult[m][j])
                # never a level dimension on either axis
                assert T.shape[0] < F.level_dims[i]
                assert T.shape[1] < F.level_dims[m]
                assert max(T.shape) <= 256


def test_injectivity_ranks_match_the_dense_conjugation():
    spaces = [(plane_fock(4), 2), (swap_fock(4), 2)] + [
        (FockSpace(H, 3), 2) for H, _ in creation_instances(25, 5)[:2]]
    for F, n in spaces:
        L = F.creation(F.bimodule.random_vector(RNG))
        rng, rng_ref = np.random.default_rng(59), np.random.default_rng(59)
        mats = [_dense_word(F, *random_word(F, rng_ref, m))
                for m in range(n + 1) for _ in range(5)]
        Ld = L.dense()
        want = (complex_rank([m.ravel() for m in mats]),
                complex_rank([(Ld @ m @ Ld.conj().T).ravel()
                              for m in mats]))
        for op in (L, _level_blocks(F, Ld)):
            rep = endomorphism_injectivity_check(
                F, op, n, np.random.default_rng(59))
            details = rep.checks[0].details
            assert (details["rank_in"], details["rank_out"]) == want


def test_level_op_norms_and_blocks_are_per_sample():
    """A stacked operator's norms and dense blocks are those of each
    sample op[s], bit-equal."""
    rng = np.random.default_rng(61)
    for F in _level_op_spaces():
        for pairs in _SHAPES[:3]:
            ops = [_random_level_op(F, rng, pairs) for _ in range(3)]
            op = LevelOp.stack(ops)
            assert np.array_equal(op.norm(), [one.norm() for one in ops])
            if pairs in _SHAPES[:2]:      # each label meets one block
                assert np.array_equal(op.spectral_norm(),
                                      [one.spectral_norm() for one in ops])
            for s, one in enumerate(ops):
                assert op[s].norm() == one.norm()
                # an unstacked operator against the np.vdot formula
                sq = sum(n * np.vdot(x, x).real for X in one.blocks.values()
                         for x, n in zip(X, one.sizes))
                assert one.norm() == np.sqrt(sq)
                for i, j in pairs:
                    assert np.array_equal(op.block(i, j)[s], one.block(i, j))


# The stacked checks against the per-sample loops of fock_reference.py, on
# the same inputs and the same rng stream: the creation-instance modules of
# CLI seed 25 and a module over the unequal blocks (1, 3).

def _unequal_blocks_module():
    rng = np.random.default_rng(5)
    return make_bimodule(CStarAlgebra((1, 3)), (4, 3), [(1, 1), (0, 1)],
                         [haar_unitary_matrix(rng, r) for r in (4, 3)])


def _reference_spaces():
    return creation_instances(25, 5) + [(_unequal_blocks_module(), 3)]


@pytest.mark.parametrize("case", range(6))
def test_stacked_fock_checks_match_the_per_sample_loops(case):
    H, N = _reference_spaces()[case]
    F = FockSpace(H, N)
    for new, old in [(creation_relations_check,
                      fock_ref.creation_relations_check),
                     (expectation_properties_check,
                      fock_ref.expectation_properties_check)]:
        _same_report(*_twice(case, lambda rng: new(F, rng),
                             lambda rng: old(F, rng)))
    for n in range(1, min(N, 2) + 1):
        for new, old in [(ideal_structure_check,
                          fock_ref.ideal_structure_check),
                         (quotient_dimension_check,
                          fock_ref.quotient_dimension_check)]:
            _same_report(*_twice(case, lambda rng: new(F, n, rng),
                                 lambda rng: old(F, n, rng)))
    rng = np.random.default_rng(case)
    L = F.creation(H.random_vector(rng))
    a = word(F, *random_word(F, rng, 1), F.N)
    (x, new), (y, old) = _twice(
        case, lambda rng: toeplitz_endomorphism(F, a, L, rng),
        lambda rng: fock_ref.toeplitz_endomorphism(F, a, L, rng))
    _same_report(new, old)
    assert np.array_equal(x.dense(), y.dense())
    _same_report(*_twice(
        case, lambda rng: endomorphism_injectivity_check(F, L, N - 1, rng),
        lambda rng: fock_ref.endomorphism_injectivity_check(F, L, N - 1,
                                                            rng)))
    args = (H.base, H.right_mult, H.left_mult, H.left_unitaries)
    new, old = _twice(case, lambda rng: make_bimodule(*args, rng=rng),
                      lambda rng: fock_ref.make_bimodule(*args, rng=rng))
    assert (new.right_mult, new.left_mult) == (old.right_mult, old.left_mult)


def test_perturbed_left_unitaries_fail_make_bimodule_as_the_loop_does(
        monkeypatch):
    """A left unitary scaled by 1 + eta, let through unchecked, breaks
    multiplicativity: both raise the same error, and at 3e-9 the loop stops
    at every one of the three samples for some seed."""
    def unchecked(sizes, col_sizes, mults, unitaries):
        return [tuple(row) for row in mults], unitaries

    U = _unequal_blocks_module().left_unitaries
    monkeypatch.setattr(hilbmod, "multiplicity_form", unchecked)
    B = CStarAlgebra((1, 3))
    failing = set()
    for eta in (1e-9, 3e-9, 3e-8):
        V = [U[0] * (1 + eta), U[1]]
        for seed in range(8):
            rngs = [np.random.default_rng(seed) for _ in range(2)]
            results = []
            for build, rng in zip((make_bimodule, fock_ref.make_bimodule),
                                  rngs):
                try:
                    results.append(build(B, (4, 3), [(1, 1), (0, 1)], V,
                                         rng=rng).dim)
                except StructureError as exc:
                    results.append(str(exc))
            assert results[0] == results[1]
            assert (results[0] == 13) == (eta == 1e-9)
            if eta == 3e-9:
                failing.add(_samples_drawn(B, rngs[1], seed) - 1)
    assert failing == {0, 1, 2}


def _samples_drawn(B, rng, seed):
    """How many samples of make_bimodule's law check the rng has drawn."""
    H = HilbertBimodule(B, (4, 3), [(1, 1), (0, 1)], [np.eye(4), np.eye(3)])
    probe = np.random.default_rng(seed)
    for k in range(4):
        if probe.bit_generator.state == rng.bit_generator.state:
            return k
        B.random_element(probe), B.random_element(probe)
        H.random_vector(probe), H.random_vector(probe)
    raise AssertionError("rng state matches no sample count")


def test_a_wrong_right_side_fails_the_adjoint_relation(monkeypatch):
    """Without its factor (1 - E_N) the right side <h,g> is wrong on the
    top level: both evaluations fail there, with the same residual."""
    F = FockSpace(*_reference_spaces()[5])
    monkeypatch.setattr(LevelOp, "restrict", lambda self, max_level: self)
    new, old = _twice(0, lambda rng: creation_relations_check(F, rng),
                      lambda rng: fock_ref.creation_relations_check(F, rng))
    _same_report(new, old)
    assert [c.name for c in new.checks if not c.passed] \
        == ["creation-adjoint-relation"]


@pytest.mark.parametrize("suite, bound", [("fock", 300), ("ideal", 400),
                                          (None, 80)])
def test_fock_checks_make_few_svd_calls(monkeypatch, suite, bound):
    """The samples of each check share their SVDs: at CLI seed 25 the fock
    and ideal suites made 585 and 961 calls, and the bimodule validation of
    creation_instances(25, 5) 189, when every sample had its own."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    if suite is None:
        assert len(creation_instances(25, 5)) == 5
    else:
        reports = run_suites(None, (suite,), Settings(seed=25))
        assert reports and all(r.passed for r in reports)
    assert 0 < len(calls) <= bound

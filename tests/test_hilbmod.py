import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from fockmod.cstar import (AlgebraElement, CStarAlgebra, StructureError,
                          UnitalHomomorphism, place_copies,
                          uniform_trace_state)
from fockmod.fock import FockSpace
from fockmod.hilbmod import (AugmentedModule, HilbertBimodule, ModuleVector,
                             TensorStep, _kron_eye, direct_sum,
                             element_to_vector, gns_bimodule, gram_schmidt,
                             make_bimodule, projection_from_basis,
                             right_linear_matrix, submodule_projection,
                             trivial_module, vector_to_element)
from fockmod.instances import (multiplicity_shift_instance, random_algebra,
                               random_bimodule)
from gram_schmidt_reference import reference_gram_schmidt, support
from tensor_reference import tensor_apply, tensor_matrix

RNG = np.random.default_rng(23)


def small_module():
    B = CStarAlgebra((1, 2))
    return make_bimodule(B, (2, 3), [(0, 1), (1, 1)], rng=RNG)


def test_bimodule_rejects_short_unitary_list():
    B = CStarAlgebra((1, 1))
    with pytest.raises(StructureError):
        HilbertBimodule(B, (1, 1), [(0, 1), (1, 0)], [np.eye(1)])


def test_bimodule_rejects_negative_multiplicities():
    """A negative left multiplicity can still balance the multiplicity
    equation; it is rejected when the bimodule is built, not later by the
    Fock space."""
    B = CStarAlgebra((1, 1))
    with pytest.raises(StructureError, match="negative"):
        HilbertBimodule(B, (1, 1), [(2, -1), (0, 1)])
    with pytest.raises(StructureError):
        HilbertBimodule(B, (-1, 1), [(0, 0), (0, 1)])


def _placement_module():
    """Rows with zero multiplicities, and an empty component (r_2 = 0)."""
    B = CStarAlgebra((1, 2, 2))
    left = [(0, 1, 0), (2, 0, 1), (0, 0, 0)]
    right = (2, 4, 0)
    return HilbertBimodule(B, right, left,
                           [_unitary(2), _unitary(4), np.zeros((0, 0))])


def test_placement_matches_block_diagonal_of_krons():
    """place_copies, behind left_rep_block, UnitalHomomorphism.block_image
    and the Fock left action, against u blkdiag(kron(I_c, b_k)) u* with
    np.kron."""
    H = _placement_module()
    b = H.base.random_element(RNG)
    for j, (row, r) in enumerate(zip(H.left_mult, H.right_mult)):
        pieces = [np.kron(np.eye(c), b.blocks[k])
                  for k, c in enumerate(row) if c]
        diag = block_diag(*pieces) if pieces \
            else np.zeros((r, r), complex)
        assert np.array_equal(place_copies(b.blocks, row, r), diag)
        u = H.left_unitaries[j]
        assert np.array_equal(H.left_rep_block(j, b), u @ diag @ u.conj().T)
    # no pieces, as a zero component of `_merged_left` has
    for r in (0, 3):
        assert np.array_equal(place_copies([], [], r), np.zeros((r, r)))
    iota = UnitalHomomorphism(H.base, CStarAlgebra((2, 4)), H.left_mult[:2],
                              H.left_unitaries[:2])
    for i in range(2):
        assert np.array_equal(iota.block_image(i, b),
                              H.left_rep_block(i, b))
    F = FockSpace(H, 2)
    assert np.allclose(F.left(b).dense(),
                       block_diag(*[lv.left_matrix(b) for lv in F.levels]),
                       atol=1e-12)
    # a stacked element is placed sample by sample, bit-equal
    bs = H.base.stack([b, H.base.random_element(RNG)])
    for j, (row, r) in enumerate(zip(H.left_mult, H.right_mult)):
        for s in range(2):
            assert np.array_equal(place_copies(bs.blocks, row, r)[s],
                                  place_copies(bs[s].blocks, row, r))
            assert np.array_equal(H.left_rep_block(j, bs)[s],
                                  H.left_rep_block(j, bs[s]))


def test_right_linear_matrix_places_rectangular_krons():
    sizes = (1, 2, 3)
    Ts = [RNG.standard_normal(s) + 1j * RNG.standard_normal(s)
          for s in ((2, 1), (0, 2), (1, 3))]
    M = right_linear_matrix(Ts, sizes)
    assert M.shape == (2 * 1 + 0 + 1 * 3, 1 * 1 + 2 * 2 + 3 * 3)
    want = np.zeros(M.shape, complex)
    want[0:2, 0:1] = Ts[0]
    want[2:5, 5:14] = np.kron(Ts[2], np.eye(3))
    assert np.array_equal(M, want)
    stacked = right_linear_matrix([np.stack([T, 2 * T]) for T in Ts], sizes)
    assert np.array_equal(stacked, [M, 2 * M])


def test_inner_product_sesquilinear_and_positive():
    H = small_module()
    x, y = H.random_vector(RNG), H.random_vector(RNG)
    b = H.base.random_element(RNG)
    g = H.inner(x, y.rmul(b)) - H.inner(x, y) * b
    assert g.norm() < 1e-12
    g = H.inner(x.rmul(b), y) - b.adjoint() * H.inner(x, y)
    assert g.norm() < 1e-12
    assert min(np.linalg.eigvalsh(0.5 * (g + g.conj().T)).min()
               for g in H.inner(x, x).blocks) > -1e-12


def test_left_action_is_adjointable_homomorphism():
    H = small_module()
    a = H.base.random_element(RNG)
    b = H.base.random_element(RNG)
    La, Lb = H.left_matrix(a), H.left_matrix(b)
    assert np.linalg.norm(H.left_matrix(a * b) - La @ Lb) < 1e-12
    x, y = H.random_vector(RNG), H.random_vector(RNG)
    g = H.inner(x.lmul(a.adjoint()), y) - H.inner(x, y.lmul(a))
    assert g.norm() < 1e-12


def test_left_and_right_actions_commute():
    H = small_module()
    a = H.base.random_element(RNG)
    b = H.base.random_element(RNG)
    x = H.random_vector(RNG)
    g = x.rmul(b).lmul(a) - x.lmul(a).rmul(b)
    assert g.norm() < 1e-12


def test_trivial_module_round_trip():
    B = CStarAlgebra((2, 1))
    T = trivial_module(B)
    b = B.random_element(RNG)
    assert (vector_to_element(element_to_vector(T, b)) - b).norm() < 1e-13
    x = element_to_vector(T, b)
    assert (T.inner(x, x) - b.adjoint() * b).norm() < 1e-12


def test_module_vector_rejects_a_component_list_of_the_wrong_length():
    """Module vectors and algebra elements alike, on the same layout."""
    B = CStarAlgebra((1, 2))
    T = trivial_module(B)
    for space, value in [(T, ModuleVector), (B, AlgebraElement)]:
        with pytest.raises(StructureError, match="1 components, expected 2"):
            value(space, [np.ones((1, 1))])
        with pytest.raises(StructureError, match="3 components, expected 2"):
            value(space, [np.ones((1, 1)), np.ones((2, 2)), np.ones((2, 2))])
        x = value(space, iter([np.ones((1, 1)), np.ones((2, 2))]))
        assert x.flat.size == space.dim == 5


def test_gram_schmidt_orthonormal_minimal_projections():
    H = small_module()
    vectors = [H.random_vector(RNG) for _ in range(3)]
    basis = gram_schmidt(vectors)
    for i, v in enumerate(basis):
        g = H.inner(v, v)
        assert (g * g - g).norm() < 1e-9
        assert abs(g.trace() - 1.0) < 1e-9
        for w in basis[i + 1:]:
            assert H.inner(v, w).norm() < 1e-9


def reference_projection(module, V):
    """sum_v v<v, .> built one vector at a time."""
    P = np.zeros((module.dim, module.dim), complex)
    for v in V:
        blocks = [np.kron(vj @ vj.conj().T, np.eye(n))
                  for vj, n in zip(v.blocks, module.base.block_sizes)]
        P += block_diag(*blocks)
    return P


def gram_schmidt_families():
    """Multi-block modules, one with a zero right multiplicity, and families
    with exact duplicates and vectors already in the span."""
    rng = np.random.default_rng(5)
    modules = [
        small_module(),                                          # (1, 2)
        HilbertBimodule(CStarAlgebra((2, 3)), (5, 2), [(1, 1), (1, 0)]),
        HilbertBimodule(CStarAlgebra((2, 1)), (0, 2), [(0, 0), (1, 0)]),
        random_bimodule(rng, CStarAlgebra((2, 3)), dim_cap=60),
    ]
    for H in modules:
        x, y, z = (H.random_vector(rng) for _ in range(3))
        b = H.base.random_element(rng)
        yield H, [x, y], False
        yield H, [x, x, y, x.rmul(b), y * 2.0 - x.rmul(b), z, y], True
        yield H, [x.rmul(H.base.matrix_unit(0, 0, 0)), x, z] + H.basis(), True


def assert_matches_reference(H, X):
    """gram_schmidt(X) against the module-arithmetic reference: the same
    supports, in order, one (component, column) each, and projections
    within 1e-12.  Returns the basis."""
    want = reference_gram_schmidt(X)
    got = gram_schmidt(X)
    assert [support(v) for v in got] == [support(v) for v in want]
    assert all(len(support(v)) == 1 for v in got)
    assert np.linalg.norm(projection_from_basis(H, got)
                          - projection_from_basis(H, want)) < 1e-12
    return got


def test_gram_schmidt_matches_module_arithmetic_reference():
    cases = 0
    for H, X, drops in gram_schmidt_families():
        got = assert_matches_reference(H, X)
        if drops:
            assert len(got) < len(X) * sum(H.base.block_sizes)
        cases += 1
    assert cases == 12


def test_projection_from_basis_of_any_family():
    rng = np.random.default_rng(9)
    for H, _, _ in gram_schmidt_families():
        vecs = [H.random_vector(rng) for _ in range(3)]
        assert np.linalg.norm(projection_from_basis(H, vecs)
                              - reference_projection(H, vecs)) < 1e-12
        assert np.linalg.norm(projection_from_basis(H, [])) == 0


def test_gram_schmidt_drop_scale_with_an_empty_component():
    """The default drop tolerance is 1e-8 times the largest module norm,
    here 5, read off the one nonempty component: a remainder of 3e-8 is
    dropped, one of 6e-8 is kept."""
    H = HilbertBimodule(CStarAlgebra((2, 1)), (0, 2), [(0, 0), (1, 0)])
    x = H.vector([np.zeros((0, 2)), [[3.0], [4.0]]])
    for t, kept in ((5e-8, 1), (1e-7, 2)):
        y = H.vector([np.zeros((0, 2)), [[0.0], [t]]])
        assert len(gram_schmidt([x, y])) == kept


def test_gram_schmidt_skips_exactly_zero_pieces():
    """Pieces that are exactly zero (a vector cut down by a matrix unit, the
    zero vector) are dropped before any projection and leave the basis as
    the reference builds it."""
    rng = np.random.default_rng(31)
    H = HilbertBimodule(CStarAlgebra((2, 3)), (5, 2), [(1, 1), (1, 0)])
    x, y = H.random_vector(rng), H.random_vector(rng)
    zero = H.from_flat(np.zeros(H.dim))
    cut = [x.rmul(H.base.matrix_unit(j, q, q)) for j, q in ((0, 1), (1, 2))]
    got = assert_matches_reference(H, [zero] + cut + [zero, y, cut[0]])
    assert [support(v) for v in got[:2]] == [[(0, 1)], [(1, 2)]]
    assert gram_schmidt([zero, zero]) == []


def test_gram_schmidt_stops_a_block_at_full_rank():
    """Once U_j has r_j columns, the later pieces of block j are not
    orthogonalized: even with no drop tolerance, no rounding remainder of a
    full block becomes a basis vector."""
    rng = np.random.default_rng(37)
    H = small_module()
    X = [H.random_vector(rng) for _ in range(2)] + H.basis() \
        + [H.random_vector(rng) for _ in range(3)]
    got = assert_matches_reference(H, X)
    assert len(got) == sum(H.right_mult)
    assert len(gram_schmidt(X, drop_tol=0.0)) == sum(H.right_mult)
    assert abs(submodule_projection(X).complex_dim - H.dim) < 1e-9


def test_gram_schmidt_with_an_empty_component_matches_reference():
    """Component 0 has right multiplicity 0: every input is empty there,
    and the other block fills up, with duplicates and a zero in between."""
    rng = np.random.default_rng(41)
    H = HilbertBimodule(CStarAlgebra((2, 1)), (0, 2), [(0, 0), (1, 0)])
    x, y, z = (H.random_vector(rng) for _ in range(3))
    got = assert_matches_reference(
        H, [x, x, H.from_flat(np.zeros(H.dim)), y * 2.0, z])
    assert [support(v) for v in got] == [[(1, 0)], [(1, 0)]]


def test_gram_schmidt_property_with_duplicates_and_zeros():
    """Random families on the fixed modules of gram_schmidt_families, with
    duplicates, zero vectors and pieces cut down by a matrix unit inserted
    anywhere."""
    modules = [H for H, _, _ in gram_schmidt_families()][::3]
    inserts = st.lists(st.tuples(st.sampled_from(("dup", "zero", "cut")),
                                 st.integers(min_value=0, max_value=20)),
                       max_size=5)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=len(modules) - 1),
           st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=5), inserts)
    def check(index, seed, count, extra):
        H = modules[index]
        rng = np.random.default_rng(seed)
        X = [H.random_vector(rng) for _ in range(count)]
        for kind, at in extra:
            x = X[at % len(X)]
            if kind == "zero":
                x = H.from_flat(np.zeros(H.dim))
            elif kind == "cut":
                x = x.rmul(H.base.matrix_unit(0, 0, 0))
            X.insert(at % (len(X) + 1), x)
        assert_matches_reference(H, X)

    check()


def test_gram_schmidt_makes_no_inner_call(monkeypatch):
    """Neither the scale nor the orthogonalization takes a module inner
    product: both work on component matrices, not through <v, w>."""
    H, K, U = multiplicity_shift_instance()
    gens = [H.from_flat(U.power(i) @ g.flat)
            for i in range(3) for g in K.generators]
    calls = []
    inner = HilbertBimodule.inner

    def counted(self, x, y):
        calls.append(1)
        return inner(self, x, y)

    monkeypatch.setattr(HilbertBimodule, "inner", counted)
    basis = gram_schmidt(gens)
    assert len(basis) == 6
    assert calls == []


def test_projection_from_basis_reproduces_span():
    H = small_module()
    vecs = [H.random_vector(RNG) for _ in range(2)]
    span = submodule_projection(vecs)
    Q = span.projection
    assert np.linalg.norm(Q @ Q - Q) < 1e-10
    assert np.linalg.norm(Q - Q.conj().T) < 1e-10
    for v in vecs:
        assert np.linalg.norm(Q @ v.flat - v.flat) < 1e-9
    b = H.base.random_element(RNG)
    for v in vecs:
        w = v.rmul(b)
        assert np.linalg.norm(Q @ w.flat - w.flat) < 1e-9


def test_submodule_projection_dimension():
    H = small_module()
    span = submodule_projection(H.basis())
    assert abs(span.complex_dim - H.dim) < 1e-9


def test_interior_tensor_inner_products():
    B = CStarAlgebra((1, 1))
    H = make_bimodule(B, (1, 1), [(0, 1), (1, 0)])
    step = TensorStep(H, H)
    x1, y1 = H.random_vector(RNG), H.random_vector(RNG)
    x2, y2 = H.random_vector(RNG), H.random_vector(RNG)
    t1 = step.module.from_flat(step.tensor(x1.flat, y1.flat))
    t2 = step.module.from_flat(step.tensor(x2.flat, y2.flat))
    want = step.module.inner(t1, t2)
    got = H.inner(y1, y2.lmul(H.inner(x1, x2)))
    assert (want - got).norm() < 1e-10


def test_tensor_balancing_over_base():
    B = CStarAlgebra((1, 1))
    H = make_bimodule(B, (1, 1), [(0, 1), (1, 0)])
    step = TensorStep(H, H)
    x, y = H.random_vector(RNG), H.random_vector(RNG)
    b = B.random_element(RNG)
    lhs = step.module.from_flat(step.tensor(x.rmul(b).flat, y.flat))
    rhs = step.module.from_flat(step.tensor(x.flat, y.lmul(b).flat))
    assert (lhs - rhs).norm() < 1e-10


def test_direct_sum_embeddings_are_isometric():
    B = CStarAlgebra((1, 1))
    H = make_bimodule(B, (1, 1), [(0, 1), (1, 0)])
    K = trivial_module(B)
    S, embed_H, embed_K = direct_sum(H, K)
    x = H.random_vector(RNG)
    y = K.random_vector(RNG)
    ex = S.from_flat(embed_H @ x.flat)
    ey = S.from_flat(embed_K @ y.flat)
    assert (S.inner(ex, ex) - H.inner(x, x)).norm() < 1e-12
    assert (S.inner(ex, ey)).norm() < 1e-12
    assert (S.inner(ey, ey) - K.inner(y, y)).norm() < 1e-12


def test_augmented_module_unit_vector():
    H = small_module()
    aug = AugmentedModule(H)
    xi = aug.xi
    g = aug.module.inner(xi, xi)
    assert (g - aug.module.base.identity()).norm() < 1e-12
    b = H.base.random_element(RNG)
    g = xi.lmul(b) - xi.rmul(b)
    assert g.norm() < 1e-12


def test_gns_bimodule_inner_matches_state():
    B = CStarAlgebra((2,))
    rho = uniform_trace_state(B)
    H, xi = gns_bimodule(B, rho)
    b = B.random_element(RNG)
    g = H.inner(xi, xi.lmul(b)) - B.scalar(rho(b))
    assert g.norm() < 1e-10


def test_random_bimodule_respects_row_constraint():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        B = random_algebra(rng)
        H = random_bimodule(rng, B)
        for j, r in enumerate(H.right_mult):
            total = sum(c * n for c, n in
                        zip(H.left_mult[j], B.block_sizes))
            assert total == r


def _unitary(r):
    q, _ = np.linalg.qr(RNG.standard_normal((r, r))
                        + 1j * RNG.standard_normal((r, r)))
    return q


def _module(sizes, right, left):
    return HilbertBimodule(CStarAlgebra(sizes), right, left,
                           [_unitary(r) for r in right])


# (H, K) pairs over (1,), (1, 2) and (2, 3), then two with empty blocks: K
# with rK_1 = 0, and T = H (x) K with rho_1 = 0 although rK_1 > 0, since
# K's left action on block 1 reaches only H's empty component.
TENSOR_PAIRS = [
    (((1,), (2,), [(2,)]), ((1,), (3,), [(3,)])),
    (((1, 2), (3, 2), [(1, 1), (0, 1)]), ((1, 2), (2, 3), [(0, 1), (1, 1)])),
    (((2, 3), (5, 3), [(1, 1), (0, 1)]), ((2, 3), (4, 5), [(2, 0), (1, 1)])),
    (((1, 2), (1, 0), [(1, 0), (0, 0)]), ((1, 2), (1, 0), [(1, 0), (0, 0)])),
    (((1, 2), (1, 0), [(1, 0), (0, 0)]), ((1, 2), (1, 2), [(1, 0), (0, 1)])),
]


def _kron_apply(step, h_flat):
    """The matrix of k -> h (x) k assembled from kron(M U_j^K*, I_{n_j})
    per block: a second reference for `tensor`, next to the loops of
    `tensor_reference`."""
    h = step.H.from_flat(h_flat)
    base = step.H.base
    out = np.zeros((step.module.dim, step.K.dim), complex)
    for j, n_j in enumerate(base.block_sizes):
        rho_j = step.module.right_mult[j]
        rK_j = step.K.right_mult[j]
        if rho_j == 0 or rK_j == 0:
            continue
        M = np.zeros((rho_j, rK_j), complex)
        row = col = 0
        for k, n_k in enumerate(base.block_sizes):
            for _ in range(step.K.left_mult[j][k]):
                rows = h.blocks[k].shape[0]
                M[row:row + rows, col:col + n_k] = h.blocks[k]
                row += rows
                col += n_k
        B = M @ step.K.left_unitaries[j].conj().T
        out[step.module.offsets[j]:step.module.offsets[j + 1],
            step.K.offsets[j]:step.K.offsets[j + 1]] = np.kron(B, np.eye(n_j))
    return out


@pytest.mark.parametrize("h_spec, k_spec", TENSOR_PAIRS)
def test_tensor_matches_apply_row_by_row(h_spec, k_spec):
    H, K = _module(*h_spec), _module(*k_spec)
    step = TensorStep(H, K)
    Hs = RNG.standard_normal((6, H.dim)) + 1j * RNG.standard_normal((6, H.dim))
    Ks = RNG.standard_normal((6, K.dim)) + 1j * RNG.standard_normal((6, K.dim))
    rows = step.tensor(Hs, Ks)
    assert rows.shape == (6, step.module.dim)
    for h, k, row in zip(Hs, Ks, rows):
        ref = _kron_apply(step, h)
        assert np.allclose(tensor_apply(step, h), ref, atol=1e-13)
        want = ref @ k
        assert np.linalg.norm(row - want) <= 1e-13 * max(1.0, np.linalg.norm(want))
    # one h against many k broadcasts
    many = step.tensor(Hs[:1], Ks)
    assert np.allclose(many, [tensor_apply(step, Hs[0]) @ k for k in Ks],
                       atol=1e-13)
    # the dense map, column (i, l) = e_i (x) e_l
    assert np.allclose(tensor_matrix(step),
                       np.hstack([tensor_apply(step, e)
                                  for e in np.eye(H.dim)]),
                       atol=1e-13)


@pytest.mark.parametrize("shape, n", [((3, 2), 2), ((1, 1), 3), ((2, 5), 1),
                                      ((0, 0), 2), ((4, 3), 0)])
def test_kron_eye_equals_np_kron(shape, n):
    X = RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)
    assert np.array_equal(_kron_eye(X, n), np.kron(X, np.eye(n)))
    Xr = X.real
    assert np.array_equal(_kron_eye(Xr, n), np.kron(Xr, np.eye(n)))
    assert _kron_eye(Xr, n).dtype == np.kron(Xr, np.eye(n)).dtype
    assert np.array_equal(_kron_eye(np.stack([X, Xr]), n),
                          [np.kron(X, np.eye(n)), np.kron(Xr, np.eye(n))])


def test_stacked_vectors_are_their_samples():
    """A stacked module vector, as `validate_bogoliubov` forms the basis:
    actions, inner products and norms sample by sample, bit-equal."""
    _, K, _ = multiplicity_shift_instance()
    H = K.parent
    rng = np.random.default_rng(23)
    vs = [H.random_vector(rng) for _ in range(3)]
    b, c = H.base.random_element(rng), H.base.random_element(rng)
    x = H.from_flat(np.array([v.flat for v in vs]))
    assert np.array_equal(H.stack(vs).flat, x.flat)
    y = x.lmul(b).rmul(c)
    gram = H.inner(x, y)
    for s, v in enumerate(vs):
        w = v.lmul(b).rmul(c)
        assert np.array_equal(y[s].flat, w.flat)
        assert all(np.array_equal(g, h) for g, h in
                   zip(gram[s].blocks, H.inner(v, w).blocks))
        assert x.norm()[s] == v.norm()
    assert repr(x) == f"ModuleVector({H!r}, samples=(3,))"
    for space in (H, H.base):
        with pytest.raises(StructureError, match="flat length 2"):
            space.from_flat(np.zeros((3, 2)))

import numpy as np
import pytest

from fockmod import cstar
from fockmod.cstar import (AlgebraAutomorphism, CPLinearMap, CStarAlgebra,
                           ConditionalExpectation, PreconditionError,
                           StructureError, UnitalHomomorphism,
                           flip_automorphism, haar_unitary_matrix,
                           identity_automorphism, scalar_embedding,
                           uniform_trace_state)
from fockmod.hilbmod import trivial_module

from crossed_reference import compose

RNG = np.random.default_rng(11)


def test_algebra_operations():
    A = CStarAlgebra((2, 3))
    x = A.random_element(RNG)
    y = A.random_element(RNG)
    assert ((x + y) - y - x).norm() < 1e-12
    assert ((x * y).adjoint() - y.adjoint() * x.adjoint()).norm() < 1e-12
    assert (x * A.identity() - x).norm() < 1e-12
    assert (A.identity() * x - x).norm() < 1e-12


def test_flat_round_trip():
    A = CStarAlgebra((2, 1))
    x = A.random_element(RNG)
    assert (A.from_flat(x.flat) - x).norm() < 1e-14


def test_norm_is_operator_norm():
    A = CStarAlgebra((2,))
    x = A.random_element(RNG)
    s = np.linalg.svd(x.blocks[0], compute_uv=False)
    assert abs(x.norm() - s[0]) < 1e-12


def test_state_positivity_and_unitality():
    A = CStarAlgebra((2, 2))
    rho = uniform_trace_state(A)
    assert abs(rho(A.identity()).flat[0] - 1.0) < 1e-12
    x = A.random_element(RNG)
    val = rho(x.adjoint() * x).flat[0]
    assert val.real >= -1e-12 and abs(val.imag) < 1e-12


def test_state_rejects_non_hermitian_density():
    A = CStarAlgebra((2,))
    with pytest.raises(PreconditionError):
        ConditionalExpectation.from_densities(
            A, [np.array([[0.5, 1.0], [0.0, 0.5]])])


@pytest.mark.parametrize("build", [
    lambda B: ConditionalExpectation.from_densities(B, [np.eye(1)]),
    lambda B: UnitalHomomorphism(B, B, [(1, 0), (0, 1)], [np.eye(1)]),
    lambda B: AlgebraAutomorphism(B, unitaries=[np.eye(1)]),
], ids=["state-densities", "homomorphism-unitaries",
        "automorphism-unitaries"])
def test_constructors_reject_short_lists(build):
    with pytest.raises(StructureError):
        build(CStarAlgebra((1, 1)))


@pytest.mark.parametrize("densities, error, message", [
    ([np.eye(2) / 2], StructureError, "one density per block required"),
    ([np.eye(1), np.eye(1)], StructureError,
     r"density shape \(1, 1\), expected \(2,2\)"),
    ([[[0.5, 0.1], [0.0, 0.25]], [[0.25]]], PreconditionError,
     "density block is not Hermitian"),
    ([np.diag([0.75, -0.25]), [[0.5]]], PreconditionError,
     "density block is not positive semidefinite"),
    ([np.eye(2) / 2, [[0.5]]], PreconditionError,
     "total trace 1.5, expected 1"),
], ids=["count", "shape", "hermitian", "positive", "trace"])
def test_densities_are_checked(densities, error, message):
    with pytest.raises(error, match=message):
        ConditionalExpectation.from_densities(CStarAlgebra((2, 1)), densities)


def test_faithful_gns_asks_for_every_summand():
    """A state has a faithful GNS representation unless a density block is
    zero, whatever the rank of the others."""
    A = CStarAlgebra((2, 1))
    for densities, want in [([np.eye(2) / 3, [[1 / 3]]], True),
                            ([np.diag([1.0, 0.0]), [[0.0]]], False),
                            ([np.zeros((2, 2)), [[1.0]]], False),
                            ([np.diag([0.5, 0.0]), [[0.5]]], True)]:
        rho = ConditionalExpectation.from_densities(A, densities)
        assert rho.has_faithful_gns is want


def test_automorphism_is_its_multiplicity_form():
    """An automorphism is the unital homomorphism of the algebra into itself
    whose row j is one copy of block source[j]: it maps x to the blocks
    u_j x_{source[j]} u_j*, bit-equal, on a stack of samples, and its
    matrix is that formula's on the basis."""
    A = CStarAlgebra((2, 1, 2))
    rng = np.random.default_rng(23)
    us = [haar_unitary_matrix(rng, n) for n in A.block_sizes]
    beta = AlgebraAutomorphism(A, (2, 1, 0), us)
    assert isinstance(beta, UnitalHomomorphism)
    assert "__call__" not in vars(AlgebraAutomorphism)
    assert beta.multiplicities == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def formula(x):
        return A.element([u @ x.blocks[s] @ u.conj().T
                          for u, s in zip(us, beta.source)])

    x = A.stack([A.random_element(rng) for _ in range(3)])
    assert all(np.array_equal(g, w)
               for g, w in zip(beta(x).blocks, formula(x).blocks))
    assert np.array_equal(beta.as_linear_map().matrix,
                          CPLinearMap.from_callable(A, A, formula).matrix)


def test_unital_homomorphism_multiplicative():
    B = CStarAlgebra((1, 2))
    A = CStarAlgebra((3,))
    hom = UnitalHomomorphism(B, A, [(1, 1)])
    x = B.random_element(RNG)
    y = B.random_element(RNG)
    assert (hom(x * y) - hom(x) * hom(y)).norm() < 1e-12
    assert (hom(B.identity()) - A.identity()).norm() < 1e-12


def test_scalar_embedding_is_unital():
    A = CStarAlgebra((2, 3))
    emb = scalar_embedding(A)
    one = emb(emb.domain.identity())
    assert (one - A.identity()).norm() < 1e-12


def test_inner_automorphism_preserves_spectrum():
    A = CStarAlgebra((2,))
    u = haar_unitary_matrix(RNG, 2)
    beta = AlgebraAutomorphism(A, unitaries=[u])
    x = A.random_element(RNG)
    x = 0.5 * (x + x.adjoint())
    before = np.sort(np.linalg.eigvalsh(x.blocks[0]))
    after = np.sort(np.linalg.eigvalsh(beta(x).blocks[0]))
    assert np.allclose(before, after)


def test_automorphism_is_multiplicative():
    A = CStarAlgebra((2, 2))
    beta = flip_automorphism(A)
    x = A.random_element(RNG)
    y = A.random_element(RNG)
    assert (beta(x * y) - beta(x) * beta(y)).norm() < 1e-12


def test_flip_automorphism_is_an_involution():
    A = CStarAlgebra((1, 1))
    beta = flip_automorphism(A)
    x = A.random_element(RNG)
    assert (beta(beta(x)) - x).norm() < 1e-12


def test_flip_requires_equal_sizes():
    A = CStarAlgebra((1, 2))
    with pytest.raises((StructureError, PreconditionError)):
        flip_automorphism(A)


def test_automorphism_composition_and_distance():
    A = CStarAlgebra((2,))
    beta = AlgebraAutomorphism(A, unitaries=[haar_unitary_matrix(RNG, 2)])
    ident = identity_automorphism(A)
    assert compose(beta, ident).distance_to(beta) < 1e-9
    assert ident.distance_to(ident) < 1e-12


def _matrix_unit_distance(a, b):
    """distance_to by its definition: both automorphisms applied to every
    matrix unit, kept as the reference for the stacked outer products."""
    return max((a(e) - b(e)).norm() for e in a.algebra.basis())


def test_distance_matches_the_matrix_unit_definition():
    A = CStarAlgebra((2, 2, 3, 1, 1))
    rng = np.random.default_rng(5)
    autos = [AlgebraAutomorphism(A, source, [haar_unitary_matrix(rng, n)
                                             for n in A.block_sizes])
             for source in [(0, 1, 2, 3, 4), (1, 0, 2, 3, 4),
                            (0, 1, 2, 4, 3), (1, 0, 2, 4, 3)]]
    autos += [compose(autos[1], autos[2]), compose(autos[3], autos[3]),
              AlgebraAutomorphism(A, (1, 0, 2, 4, 3))]
    ident = identity_automorphism(A)
    assert ident.distance_to(identity_automorphism(A)) == 0.0
    for a in autos + [ident]:
        assert a.distance_to(a) == 0.0
        for b in autos + [ident]:
            want = _matrix_unit_distance(a, b)
            assert abs(a.distance_to(b) - want) <= 1e-14
    assert min(a.distance_to(ident) for a in autos) > 0.1


def test_distance_builds_no_element_per_matrix_unit(monkeypatch):
    A = CStarAlgebra((2, 2, 1))
    beta = AlgebraAutomorphism(A, (1, 0, 2),
                               [haar_unitary_matrix(RNG, n)
                                for n in A.block_sizes])
    built = []
    init = cstar.AlgebraElement.__init__

    def counted(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(cstar.AlgebraElement, "__init__", counted)
    assert beta.distance_to(identity_automorphism(A)) > 0
    assert built == []


def test_distance_across_algebras_is_rejected():
    with pytest.raises(StructureError):
        identity_automorphism(CStarAlgebra((2,))).distance_to(
            identity_automorphism(CStarAlgebra((1, 1))))


def test_norm_is_bit_equal_to_the_matrix_two_norm():
    A = CStarAlgebra((1, 2, 3, 5))
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = A.random_element(rng)
        assert x.norm() == max(np.linalg.norm(b, 2) for b in x.blocks)


def test_choi_detects_complete_positivity():
    A = CStarAlgebra((2,))
    cp = CPLinearMap.from_callable(A, A, lambda x: x)
    assert cp.min_choi_eigenvalue() > -1e-10
    transpose = CPLinearMap.from_callable(
        A, A, lambda x: A.from_flat(
            np.asarray(x.blocks[0]).T.reshape(-1)))
    assert transpose.min_choi_eigenvalue() < -0.5


@pytest.mark.parametrize("domain, codomain", [((1, 2), (2, 1)),
                                              ((2,), (1, 1, 1))])
def test_choi_matrix_entry_by_entry(domain, codomain):
    """Choi[(r, P), (s, Q)] = eta(E_PQ)[r, s], r and s indices of the
    codomain's identity and P, Q of the domain's, both in one block of the
    domain; every other entry is zero."""
    A, C = CStarAlgebra(domain), CStarAlgebra(codomain)
    rng = np.random.default_rng(4)
    eta = CPLinearMap(A, C, rng.standard_normal((C.dim, A.dim))
                      + 1j * rng.standard_normal((C.dim, A.dim)))
    dA, dC = sum(domain), sum(codomain)
    want = np.zeros((dC * dA, dC * dA), complex)
    start = 0
    for k, n_k in enumerate(domain):
        for p in range(n_k):
            for q in range(n_k):
                image = eta(A.matrix_unit(k, p, q))
                row = 0
                for i, n_i in enumerate(codomain):
                    for a in range(n_i):
                        for b in range(n_i):
                            want[(row + a) * dA + start + p,
                                 (row + b) * dA + start + q] = \
                                image.blocks[i][a, b]
                    row += n_i
        start += n_k
    assert np.array_equal(eta.choi_matrix(), want)


def test_haar_unitary_matrix_is_unitary():
    u = haar_unitary_matrix(RNG, 4)
    assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-12


def test_stacked_elements_are_their_samples():
    """A stacked element's arithmetic, norms and maps act sample by
    sample, bit-equal to the same operations on each sample."""
    A = CStarAlgebra((1, 2, 2, 3))
    rng = np.random.default_rng(17)
    xs = [A.random_element(rng) for _ in range(4)]
    ys = [A.random_element(rng) for _ in range(4)]
    x = A.from_flat(np.array([e.flat for e in xs]))
    y = A.from_flat(np.array([e.flat for e in ys]))
    beta = AlgebraAutomorphism(A, (0, 2, 1, 3), [haar_unitary_matrix(rng, n)
                                                 for n in A.block_sizes])
    smear = CPLinearMap(A, A, rng.standard_normal((A.dim, A.dim)))
    for s, (a, b) in enumerate(zip(xs, ys)):
        assert x.norm()[s] == a.norm()
        for got, want in [(x[s], a), ((x * y)[s], a * b),
                          ((x - y.adjoint())[s], a - b.adjoint()),
                          (beta(x)[s], beta(a)), (smear(x)[s], smear(a))]:
            assert all(np.array_equal(g, w)
                       for g, w in zip(got.blocks, want.blocks))
    assert np.array_equal(x.flat[2], xs[2].flat)
    assert repr(x) == "AlgebraElement(CStarAlgebra(1, 2, 2, 3), samples=(4,))"
    # a module vector on the same layout is refused the same way
    for space in (A, trivial_module(A)):
        with pytest.raises(StructureError, match="block shape"):
            space.value_type(space, [x.blocks[0]]
                             + [b[0] for b in x.blocks[1:]])


def test_top_singular_value_over_stacks_of_blocks():
    """Per sample, the largest singular value of every matrix, each 1 x 1
    matrix's being its modulus; the 1 x 1 matrices, scaled by 3, are the
    largest in some samples and not in others."""
    rng = np.random.default_rng(19)
    mats = [rng.standard_normal((3, 5, 2, 2)), rng.standard_normal((3, 2, 4)),
            rng.standard_normal((3, 0, 4)), rng.standard_normal((3, 1, 2, 2))]
    mats += [3 * (rng.standard_normal((3, 4, 1, 1))
                  + 1j * rng.standard_normal((3, 4, 1, 1))),
             3 * rng.standard_normal((3, 1, 1))]

    def top(m):
        return abs(m[0, 0]) if m.shape == (1, 1) else np.linalg.norm(m, 2)

    for kept in (mats[:4], mats, mats[4:]):
        want = [max(top(m) for x in kept if x.size
                    for m in x[s].reshape((-1,) + x.shape[-2:]))
                for s in range(3)]
        assert np.array_equal(cstar.top_singular_value(kept, 1), want)
        assert cstar.top_singular_value(kept, 0) == max(want)
        assert [cstar.top_singular_value([x[s] for x in kept], 0)
                for s in range(3)] == want
    assert any(top(m) > max(top(n) for x in mats[:4] if x.size
                            for n in x[s].reshape((-1,) + x.shape[-2:]))
               for s in range(3) for m in mats[4][s])
    assert cstar.top_singular_value([], 0) == 0.0
    assert cstar.top_singular_value([np.zeros((0, 2, 2))], 1).shape == (0,)


def test_stacked_traces_states_and_positivity_are_per_sample():
    """trace, a state and the Hermitian and positive tests of a stacked
    element give one value per sample, bit-equal to the sample's own; an
    element of three samples over blocks (2, 1) has three traces."""
    rng = np.random.default_rng(29)
    for sizes in [(2, 1), (1, 2, 3)]:
        A = CStarAlgebra(sizes)
        xs = [A.random_element(rng) for _ in range(3)]
        xs[1] = xs[1] * xs[1].adjoint()         # positive
        xs[2] = xs[2] + xs[2].adjoint()         # Hermitian, indefinite
        x = A.stack(xs)
        rho = uniform_trace_state(A)
        assert x.trace().shape == rho(x).flat[:, 0].shape == (3,)
        for s, one in enumerate(xs):
            assert x.trace()[s] == one.trace()
            assert rho(x).flat[s, 0] == rho(one).flat[0]
            assert x[s].trace() == one.trace()
        assert list(x.is_hermitian()) == [False, True, True]
        assert list(x.is_positive()) == [False, True, False]
        assert [bool(one.is_positive()) for one in xs] == [False, True, False]
    assert rho(xs[0]).flat.shape == (1,)


def random_densities(rng, A):
    """One positive density per block of A, of total trace 1."""
    ds = []
    for n in A.block_sizes:
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ds.append(z @ z.conj().T + 0.2 * np.eye(n))
    total = sum(np.trace(d).real for d in ds)
    return [d / total for d in ds]


def trace_pairing(densities, x):
    """sum_j tr(d_j x_j), one value per sample of x: the state of the
    densities by its formula, the reference for its row."""
    return sum(np.trace(d @ b, axis1=-2, axis2=-1)
               for d, b in zip(densities, x.blocks))


def test_expectation_of_a_state_is_its_row():
    """from_densities's 1 x dim A row applied to a stack of samples gives
    the state's own sum_j tr(d_j a_j); a matrix of another shape is
    refused."""
    rng = np.random.default_rng(17)
    for sizes in [(1,), (3,), (2, 1), (1, 2, 2)]:
        A = CStarAlgebra(sizes)
        ds = random_densities(rng, A)
        phi = ConditionalExpectation.from_densities(A, ds)
        assert phi.matrix.shape == (1, A.dim)
        a = A.stack([A.random_element(rng) for _ in range(7)])
        got = phi(a).blocks[0][:, 0, 0]
        assert np.max(np.abs(got - trace_pairing(ds, a))) <= 1e-14
        for shape in [(2, A.dim), (1, A.dim + 1), (A.dim,)]:
            with pytest.raises(StructureError):
                ConditionalExpectation(phi.embedding, np.zeros(shape))

"""Seeded generators of algebras, bimodules, states, automorphisms, group
actions, and twisted linear maps."""

import itertools

import numpy as np

from .cstar import (AlgebraAutomorphism, CStarAlgebra, ConditionalExpectation,
                    PreconditionError, StateFunctional, flip_automorphism,
                    haar_unitary_matrix, identity_automorphism)
from .hilbmod import HilbertBimodule, make_bimodule, submodule_projection
from .crossed import FiniteGroup, GroupAction
from .bogoliubov import BogoliubovMap


# -- seeded random generators ------------------------------------------------

def random_algebra(rng) -> CStarAlgebra:
    """One or two blocks, each of size 1 to 3."""
    k = int(rng.integers(1, 3))
    sizes = tuple(int(rng.integers(1, 4)) for _ in range(k))
    return CStarAlgebra(sizes)


def random_bimodule(rng, base: CStarAlgebra, max_copies=2,
                    dim_cap=144) -> HilbertBimodule:
    """Random left-multiplicity matrix with unitary basis changes; retries
    until the underlying dimension is positive and under the cap."""
    sizes = base.block_sizes
    for _ in range(50):
        left = [tuple(int(rng.integers(0, max_copies + 1)) for _ in sizes)
                for _ in sizes]
        right = tuple(sum(c * n for c, n in zip(row, sizes)) for row in left)
        dim = sum(r * n for r, n in zip(right, sizes))
        acts_everywhere = all(any(row[k] for row in left)
                              for k in range(len(sizes)))
        if 0 < dim <= dim_cap and acts_everywhere:
            unitaries = [haar_unitary_matrix(rng, r) if r else
                         np.zeros((0, 0), complex) for r in right]
            return make_bimodule(base, right, left, unitaries, rng=rng)
    raise PreconditionError("no bimodule found under the dimension cap")


def random_state(rng, algebra: CStarAlgebra) -> StateFunctional:
    """A faithful state: each density z z* + 0.2, z random, normalized."""
    densities = []
    for n in algebra.block_sizes:
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        d = z @ z.conj().T + 0.2 * np.eye(n)
        densities.append(d)
    total = sum(np.trace(d).real for d in densities)
    return StateFunctional(algebra, [d / total for d in densities])


# -- criterion instance suites ----------------------------------------------

def creation_instances(seed, count=20):
    """(bimodule, truncation) pairs with bases up to blocks (2,3), underlying
    dimension at most 12, truncation at most 4."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        base = random_algebra(rng)
        try:
            H = random_bimodule(rng, base, max_copies=2, dim_cap=12)
        except PreconditionError:
            continue
        N = int(rng.integers(2, 5))
        out.append((H, N))
    return out


def vector_families(seed, count=50):
    """(module, vectors) pairs, one to four vectors each, for
    orthogonalization and projection laws."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        base = random_algebra(rng)
        try:
            H = random_bimodule(rng, base, max_copies=2, dim_cap=24)
        except PreconditionError:
            continue
        m = int(rng.integers(1, 5))
        out.append((H, [H.random_vector(rng) for _ in range(m)]))
    return out


def amalg_instances(seed):
    """Three structurally distinct (phi1, phi2) pairs over a common base."""
    rng = np.random.default_rng(seed)
    out = []
    for sizes1, sizes2 in (((1, 1), (2,)), ((2,), (1, 1)), ((1, 1), (1, 1, 1))):
        A1, A2 = CStarAlgebra(sizes1), CStarAlgebra(sizes2)
        phi1 = ConditionalExpectation.from_state(random_state(rng, A1))
        phi2 = ConditionalExpectation.from_state(random_state(rng, A2))
        out.append((phi1, phi2))
    return out


def crossed_instances(seed):
    """(group, algebra, action) triples for Z/2, Z/3 and the symmetric group
    on three letters, each acting by permuting equal central summands."""
    rng = np.random.default_rng(seed)
    out = []
    z2 = FiniteGroup.cyclic(2)
    a2 = CStarAlgebra((2, 2))
    out.append((z2, a2, permutation_action(z2, a2,
                                           lambda g: _cyclic_perm(2, g))))
    z3 = FiniteGroup.cyclic(3)
    a3 = CStarAlgebra((1, 1, 1))
    out.append((z3, a3, permutation_action(z3, a3,
                                           lambda g: _cyclic_perm(3, g))))
    s3 = FiniteGroup.symmetric(3)
    a6 = CStarAlgebra((2, 2, 2))
    perms = list(itertools.permutations(range(3)))
    out.append((s3, a6, permutation_action(s3, a6, lambda g: perms[g])))
    return out


def _cyclic_perm(n, g):
    return [(i + g) % n for i in range(n)]


def permutation_action(group: FiniteGroup, algebra: CStarAlgebra,
                       perm_of) -> GroupAction:
    """The action alpha_g(x)_j = x_{p_g^{-1}(j)} moving block i of x to block
    p_g(i), for a homomorphism g -> p_g into block permutations."""
    maps = []
    for g in range(group.order):
        p = list(perm_of(g))
        inv = [0] * len(p)
        for i, pi in enumerate(p):
            inv[pi] = i
        maps.append(AlgebraAutomorphism(algebra, source=inv))
    return GroupAction(group, algebra, maps)


def flip_twisted_module():
    """The two-point base with the block-swapping bimodule, the swap map on
    it, and the flip automorphism it twists by."""
    B = CStarAlgebra((1, 1))
    H = make_bimodule(B, (1, 1), [(0, 1), (1, 0)])
    U = BogoliubovMap(H, np.array([[0, 1], [1, 0]], complex),
                      flip_automorphism(B))
    return H, U


def multiplicity_shift_instance():
    """The base M_2 with a bimodule of three copies of it, a growth subspace
    spanning one copy, and the map cyclically shifting the copies.

    Returns (H, K span, U); the tower dimensions grow linearly in p until
    saturation at p = 3, the number of copies."""
    copies, block = 3, 2
    B = CStarAlgebra((block,))
    H = make_bimodule(B, (copies * block,), [(copies,)])
    shift = np.kron(np.roll(np.eye(copies), 1, axis=0),
                    np.eye(block * block))
    U = BogoliubovMap(H, shift, identity_automorphism(B))
    gens = [H.from_flat(col) for col in
            np.eye(H.dim, dtype=complex)[:, :block * block].T]
    K = submodule_projection(gens)
    return H, K, U


def random_bogoliubov(rng):
    """A random twisted map on the bimodule of two copies of B = M_2 with an
    inner companion automorphism beta = Ad(v).

    It acts as x -> A x v* with A = w (x) v, a choice that makes both
    defining equations hold for any unitary w."""
    B = CStarAlgebra((2,))
    H = make_bimodule(B, (4,), [(2,)], rng=rng)
    v = haar_unitary_matrix(rng, 2)
    beta = AlgebraAutomorphism(B, unitaries=[v])
    A = np.kron(haar_unitary_matrix(rng, 2), v)
    return BogoliubovMap(H, np.kron(A, v.conj()), beta)

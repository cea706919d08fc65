"""The contract of `cp_bimodule` and `gns_bimodule`, stated as properties of
the module they return: its left multiplicities are the ranks of the Choi
blocks of eta, its cyclic vector xi reproduces eta, and xi generates it."""

import re

import numpy as np
import pytest

from fockmod.cstar import (CPLinearMap, CStarAlgebra, ConditionalExpectation,
                           PreconditionError, StructureError)
from fockmod.freeprod import AmalgSetup
from fockmod.hilbmod import cp_bimodule, gns_bimodule
from fockmod.instances import amalg_instances, random_state


def choi_block(A, eta, j, k):
    """The (n_j n_k)-square block C_jk, entry ((a, p), (b, q)) the entry
    [a, b] of block j of eta(E^k_pq), read from eta on matrix units."""
    n_j, n_k = A.block_sizes[j], A.block_sizes[k]
    C = np.zeros((n_j, n_k, n_j, n_k), complex)
    for p in range(n_k):
        for q in range(n_k):
            C[:, p, :, q] = eta(A.matrix_unit(k, p, q)).blocks[j]
    return C.reshape(n_j * n_k, n_j * n_k)


def choi_ranks(A, eta):
    nb = len(A.block_sizes)
    blocks = [[choi_block(A, eta, j, k) for k in range(nb)]
              for j in range(nb)]
    top = max(np.linalg.eigvalsh(C).max() for row in blocks for C in row)
    return [tuple(int(np.sum(np.linalg.eigvalsh(C) > 1e-9 * top))
                  for C in row) for row in blocks]


def kraus_map(A, counts, rng):
    """eta(x)_j = sum_k sum_W W x_k W*, with counts[j][k] random W of shape
    (n_j, n_k)."""
    sizes = A.block_sizes
    kraus = [[[rng.standard_normal((n_j, n_k))
               + 1j * rng.standard_normal((n_j, n_k)) for _ in range(c)]
              for n_k, c in zip(sizes, row)]
             for n_j, row in zip(sizes, counts)]

    def eta(x):
        return A.element([sum((W @ x.blocks[k] @ W.conj().T
                               for k, Ws in enumerate(row) for W in Ws),
                              np.zeros((n_j, n_j), complex))
                          for n_j, row in zip(sizes, kraus)])
    return CPLinearMap.from_callable(A, A, eta)


def state_map(B, rho):
    return CPLinearMap.from_callable(
        B, B, lambda b: B.identity() * rho(b).flat[0])


def _amalg_cases():
    out = []
    for phi1, phi2 in amalg_instances(0):
        S = AmalgSetup(phi1, phi2, 1)
        out.append((S.A, S.eta_map, (S.H, S.xi)))
    return out


def _gns_cases():
    rng = np.random.default_rng(5)
    out = []
    for sizes in ((1,), (2,), (1, 1), (2, 1)):
        B = CStarAlgebra(sizes)
        rho = random_state(rng, B)
        out.append((B, state_map(B, rho), gns_bimodule(rho)))
    B = CStarAlgebra((2, 1))
    rho = ConditionalExpectation.from_densities(
        B, [np.diag([0.7, 0.3]), np.zeros((1, 1))])
    with pytest.warns(UserWarning, match="central summand"):
        out.append((B, state_map(B, rho), gns_bimodule(rho)))
    return out


def _kraus_cases():
    rng = np.random.default_rng(11)
    out = []
    for sizes, counts in (((2,), [[1]]),
                          ((2,), [[3]]),
                          ((1, 2), [[1, 0], [2, 1]]),
                          ((2, 1, 3), [[2, 0, 1], [0, 1, 0], [1, 2, 0]]),
                          ((3, 1), [[0, 1], [0, 0]]),
                          ((1, 1, 1), [[1, 1, 0], [0, 0, 1], [1, 0, 0]])):
        A = CStarAlgebra(sizes)
        eta = kraus_map(A, counts, rng)
        out.append((A, eta, cp_bimodule(A, eta)))
    return out


CASES = _amalg_cases() + _gns_cases() + _kraus_cases()


@pytest.mark.parametrize("A, eta, built", CASES)
def test_left_multiplicities_are_the_choi_block_ranks(A, eta, built):
    H, _ = built
    assert [tuple(row) for row in H.left_mult] == choi_ranks(A, eta)


@pytest.mark.parametrize("A, eta, built", CASES)
def test_cyclic_vector_reproduces_eta(A, eta, built):
    H, xi = built
    rng = np.random.default_rng(3)
    scale = max(1.0, np.linalg.norm(eta.matrix, 2))
    for _ in range(4):
        a = A.random_element(rng)
        res = (H.inner(xi, xi.lmul(a)) - eta(a)).norm()
        assert res <= 1e-12 * scale * max(1.0, a.norm())


@pytest.mark.parametrize("A, eta, built", CASES)
def test_cyclic_vector_generates_the_module(A, eta, built):
    H, xi = built
    units = [A.matrix_unit(*u) for u in A.unit_index_iter()]
    span = np.array([xi.lmul(e).rmul(f).flat for e in units
                     for f in units])
    assert np.linalg.matrix_rank(span) == H.dim


def test_transpose_map_is_not_completely_positive():
    A = CStarAlgebra((2,))
    transpose = CPLinearMap.from_callable(
        A, A, lambda x: A.element([x.blocks[0].T]))
    message = ("semi-inner product a2* eta(a1* a1') a2' is not positive; "
               "eta is not completely positive")
    with pytest.raises(PreconditionError, match=re.escape(message)):
        cp_bimodule(A, transpose)


def test_zero_map_and_foreign_algebras_are_refused():
    A, B = CStarAlgebra((2, 1)), CStarAlgebra((2,))
    with pytest.raises(StructureError):
        cp_bimodule(A, CPLinearMap(A, A, np.zeros((A.dim, A.dim))))
    with pytest.raises(StructureError):
        cp_bimodule(A, CPLinearMap(B, A, np.zeros((A.dim, B.dim))))
    with pytest.raises(StructureError):
        cp_bimodule(B, CPLinearMap(A, A, np.eye(A.dim)))


@pytest.mark.parametrize("index, right, level_dims", [
    (0, (4, 4, 4), (6, 16, 48, 128, 384)),
    (1, (4, 4, 4), (6, 16, 48, 128, 384)),
    (2, (3, 3, 2, 2, 2), (5, 12, 30, 72, 180)),
])
def test_amalg_module_dimensions(index, right, level_dims):
    S = AmalgSetup(*amalg_instances(0)[index], 4)
    assert S.H.right_mult == right
    assert S.F.level_dims == level_dims

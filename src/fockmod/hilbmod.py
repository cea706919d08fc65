"""Hilbert B,B-bimodules over finite-dimensional C*-algebras.

Canonical form: over B = M_{n_1} + ... + M_{n_k}, component j of a right
module is the space of r_j x n_j complex matrices with inner product
<x,y>_j = x_j^* y_j; the left action is a unital *-homomorphism in
multiplicity + unitary form.  Vectors flatten row-major, component by
component, which makes the unnormalized-block-trace localization the plain
Euclidean inner product on flat coordinates.
"""

from __future__ import annotations

import warnings

import numpy as np

from .cstar import (AlgebraElement, BlockSpace, BlockValue, CPLinearMap,
                    CStarAlgebra, ConditionalExpectation, PreconditionError,
                    StructureError, multiplicity_form, place_copies,
                    top_singular_value, DEFAULT_TOL)

RANK_CUTOFF = 1e-10


def _kron_eye(X, n):
    """np.kron(X, I_n), entry for entry, for the matrix on the last two axes
    of X; leading sample axes are kept.  kron(I_n, X) is `place_copies`.

    X is written once into a zeroed 4-index array through a strided view of
    its diagonal: kron(X, I_n)[(a,i),(b,l)] = X[a,b] delta_il is the
    (r, n, c, n) array with X on the i = l diagonal."""
    X = np.asarray(X)
    lead, (r, c) = X.shape[:-2], X.shape[-2:]
    dtype = np.result_type(X.dtype, float)
    out = np.zeros(lead + (r, n, c, n), dtype)
    s = out.strides
    np.ndarray(lead + (r, c, n), dtype, out, 0,
               s[:-4] + (s[-4], s[-2], s[-3] + s[-1]))[...] = X[..., None]
    return out.reshape(lead + (r * n, c * n))


def right_linear_matrix(Ts, sizes):
    """The dense matrix of a right B-linear map given by its components:
    the direct sum of kron(T_j, I_{n_j}), n = sizes, in the components'
    flat layout.  T_j may be rectangular.  Components stacked over
    samples give one matrix per sample."""
    out = np.zeros(Ts[0].shape[:-2]
                   + (sum(T.shape[-2] * n for T, n in zip(Ts, sizes)),
                      sum(T.shape[-1] * n for T, n in zip(Ts, sizes))),
                   complex)
    row = col = 0
    for T, n in zip(Ts, sizes):
        r, c = T.shape[-2:]
        out[..., row:row + r * n, col:col + c * n] = _kron_eye(T, n)
        row += r * n
        col += c * n
    return out


class ModuleVector(BlockValue):
    """A vector of a `HilbertBimodule`, or a stack of samples: component j
    is block j of the module's layout, an r_j x n_j matrix."""

    def rmul(self, b: AlgebraElement):
        return ModuleVector(self.parent, [c @ bj for c, bj in zip(self.blocks, b.blocks)])

    def lmul(self, b: AlgebraElement):
        H = self.parent
        return ModuleVector(H, [H.left_rep_block(j, b) @ xj
                                for j, xj in enumerate(self.blocks)])

    def norm(self):
        """Module norm ||<x,x>||^(1/2), one value per sample."""
        return np.sqrt(np.fmax(0.0, self.parent.inner(self, self).norm()))


class HilbertBimodule(BlockSpace):
    value_type = ModuleVector

    def __init__(self, base: CStarAlgebra, right_mult, left_mult, left_unitaries=None):
        self.base = base
        self.right_mult = tuple(int(r) for r in right_mult)
        if len(self.right_mult) != len(base.block_sizes):
            raise StructureError("one right multiplicity per base block required")
        # the left action on component j is a unital *-homomorphism of B
        # into M_{r_j}; a negative r_j fails its multiplicity equation
        self.left_mult, self.left_unitaries = multiplicity_form(
            self.right_mult, base.block_sizes, left_mult, left_unitaries)
        super().__init__(zip(self.right_mult, base.block_sizes))

    def __repr__(self):
        return (f"HilbertBimodule(base={self.base.block_sizes}, "
                f"right={self.right_mult}, dim={self.dim})")

    # -- vectors -----------------------------------------------------------

    def vector(self, comps):
        return ModuleVector(self, comps)

    def random_vector(self, rng):
        return self.from_flat(rng.standard_normal(self.dim)
                              + 1j * rng.standard_normal(self.dim))

    # -- actions as flat matrices -----------------------------------------

    def right_matrix(self, b: AlgebraElement):
        """Flat matrix of x -> x.b  (vec(X b) = (I x b^T) vec X, row-major)."""
        return place_copies([bj.T for bj in b.blocks], self.right_mult,
                            self.dim)

    def left_rep_block(self, j, b: AlgebraElement):
        """lambda_j(b): the left action on the row index of component j."""
        u = self.left_unitaries[j]
        return u @ place_copies(b.blocks, self.left_mult[j],
                                self.right_mult[j]) @ u.conj().T

    def left_matrix(self, b: AlgebraElement):
        return right_linear_matrix(
            [self.left_rep_block(j, b) for j in range(len(self.right_mult))],
            self.base.block_sizes)

    def inner(self, x: ModuleVector, y: ModuleVector) -> AlgebraElement:
        """B-valued inner product, conjugate-linear in the first slot."""
        if x.parent is not self or y.parent is not self:
            raise StructureError("vectors belong to a different bimodule")
        return AlgebraElement(self.base, [xj.conj().swapaxes(-1, -2) @ yj
                                          for xj, yj in zip(x.blocks, y.blocks)])

    def annihilated_central_summands(self):
        k = len(self.base.block_sizes)
        return [kk for kk in range(k)
                if all(row[kk] == 0 for row in self.left_mult)]


# -- building blocks -------------------------------------------------------

def trivial_module(base: CStarAlgebra) -> HilbertBimodule:
    """B as a bimodule over itself: component j is n_j x n_j, both actions
    are multiplication, <x,y> = x* y."""
    k = len(base.block_sizes)
    left = [[1 if i == j else 0 for i in range(k)] for j in range(k)]
    return HilbertBimodule(base, base.block_sizes, left)


def element_to_vector(module: HilbertBimodule, b: AlgebraElement) -> ModuleVector:
    if module.right_mult != module.base.block_sizes:
        raise StructureError("module is not B viewed as a bimodule over itself")
    return ModuleVector(module, [blk.copy() for blk in b.blocks])


def vector_to_element(x: ModuleVector) -> AlgebraElement:
    return AlgebraElement(x.parent.base, [c.copy() for c in x.blocks])


def make_bimodule(base, right_mult, left_mult, left_unitaries=None,
                  rng=None) -> HilbertBimodule:
    """Validated construction; checks the bimodule laws on three seeded
    samples, drawn one at a time and checked as one stack.  The first
    failure, sample by sample and law by law, raises."""
    module = HilbertBimodule(base, right_mult, left_mult, left_unitaries)
    rng = rng if rng is not None else np.random.default_rng(0)
    b, c, x, y = zip(*[(base.random_element(rng), base.random_element(rng),
                        module.random_vector(rng), module.random_vector(rng))
                       for _ in range(3)])
    b, c, x, y = base.stack(b), base.stack(c), module.stack(x), module.stack(y)
    res_adj = (module.inner(x.lmul(b), y)
               - module.inner(x, y.lmul(b.adjoint()))).norm()
    bad_adj = res_adj > DEFAULT_TOL * np.maximum(
        1.0, b.norm() * x.norm() * y.norm())
    res_mult = x.lmul(b * c) - x.lmul(c).lmul(b)
    bad_mult = np.linalg.norm(res_mult.flat, axis=-1) > DEFAULT_TOL * \
        np.maximum(1.0, b.norm() * c.norm() * np.linalg.norm(x.flat, axis=-1))
    positive = module.inner(x, x).is_positive()
    for s in range(3):
        if bad_adj[s]:
            raise StructureError(
                f"<b.x, y> = <x, b*.y> fails: residual {res_adj[s]:.2e}")
        if bad_mult[s]:
            raise StructureError("left action is not multiplicative")
        if not positive[s]:
            raise StructureError("<x,x> is not positive")
    dead = module.annihilated_central_summands()
    if dead:
        warnings.warn(f"left action annihilates a central summand {dead}",
                      stacklevel=2)
    return module


# -- Gram-Schmidt and complemented projections -----------------------------

def _orthonormal_pieces(module, flats, drop_tol=None):
    """`gram_schmidt` on the rows of an (m, dim) array of flat vectors.
    Returns the basis as the rows of an array, and the input of each row.

    Each input x splits into the pieces x.e_qq along the minimal
    projections of the base.  The piece of block j is column q of component
    j, zero elsewhere: pieces of different blocks are orthogonal, and
    between pieces v, w of block j the correction v<v,w> is column v_j times
    the scalar v_j* w_j.  So each block keeps an orthonormal column matrix
    U_j, and a piece's column t becomes t - U_j (U_j* t), twice (classical
    Gram-Schmidt with one re-orthogonalization); v = t/|t| in column q of
    component j has <v,v> = e_qq.  One norm over component j's (m, r_j, n_j)
    array first drops each piece with |t| <= drop_tol (projecting never
    lengthens t), and the block stops once U_j has r_j columns.  Pieces are
    visited input by input, then by block and column, each read as a strided
    column, as a module vector holds it (a contiguous copy rounds apart)."""
    sizes = module.base.block_sizes
    blocks = module.from_flat(np.reshape(flats, (-1, module.dim))).blocks
    comps = [(j, X) for j, X in enumerate(blocks) if X.size]
    if drop_tol is None:
        # ||x|| = max_j ||x_j||_2, the largest over all inputs
        drop_tol = 1e-8 * max(
            float(top_singular_value([X for _, X in comps], 0)), 1.0)
    found = []      # (input, block, column, unit vector)
    for j, X in comps:
        U, k = np.empty((X.shape[1],) * 2, complex), 0
        for i, q in zip(*np.nonzero(np.linalg.norm(X, axis=1) > drop_tol)):
            t = X[i, :, q]
            for _ in range(2):
                t = t - U[:, :k] @ (U[:, :k].conj().T @ t)
            length = float(np.linalg.norm(t))
            if length > drop_tol:
                U[:, k] = t / length
                found.append((i, j, q, U[:, k]))
                k += 1
                if k == len(U):
                    break
    found.sort(key=lambda e: e[:3])
    V = np.zeros((len(found), module.dim), complex)
    for v, (_, j, q, t) in zip(V, found):
        v[module.offsets[j] + q:module.offsets[j + 1]:sizes[j]] = t
    return V, np.array([e[0] for e in found], int)


def gram_schmidt(X, drop_tol=None):
    """Orthogonalize a finite family of module vectors.

    Returns V with the same generated submodule, pairwise <v,w> = 0 and each
    <v,v> a minimal projection of B (`_orthonormal_pieces`)."""
    X = [x for x in X]
    if not X:
        return []
    module = X[0].parent
    V, _ = _orthonormal_pieces(module, [x.flat for x in X], drop_tol)
    return [module.from_flat(v) for v in V]


class SubmoduleSpan:
    """Finitely generated submodule with its orthogonal basis and projection."""

    def __init__(self, parent, generators, basis):
        self.parent = parent
        self.generators = generators
        self.basis = basis
        self.projection = projection_from_basis(parent, basis)

    @property
    def complex_dim(self):
        return int(round(np.trace(self.projection).real))

    def __repr__(self):
        return f"SubmoduleSpan(dim_C={self.complex_dim}, of {self.parent!r})"


def projection_components(module, V):
    """The components of P h = sum_v v<v,h>: S_j S_j* with S_j the columns
    of every v_j side by side, so P is right B-linear."""
    Ss = [np.hstack([np.zeros((r, 0), complex)] + [v.blocks[j] for v in V])
          for j, r in enumerate(module.right_mult)]
    return [S @ S.conj().T for S in Ss]


def projection_from_basis(module, V):
    """P h = sum_v v<v,h> as a flat matrix: the direct sum of
    kron(S_j S_j*, I_{n_j}) (`projection_components`)."""
    return right_linear_matrix(projection_components(module, V),
                               module.base.block_sizes)


def submodule_projection(X) -> SubmoduleSpan:
    if not X:
        raise StructureError("submodule_projection of an empty family")
    return SubmoduleSpan(X[0].parent, list(X), gram_schmidt(X))


def complex_rank(flat_vectors):
    """Rank of the complex span of flat vectors, relative singular cutoff."""
    A = np.asarray(flat_vectors)
    if A.size == 0:
        return 0
    s = np.linalg.svd(A.reshape(len(A), -1), compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > RANK_CUTOFF * s[0]))


# -- interior tensor products ----------------------------------------------

class TensorStep:
    """T = H (x)_B K in canonical form (`module`), <h1(x)k1, h2(x)k2> =
    <k1, <h1,h2>.k2>, and the map of simple tensors into it.

    Component j of T has rows indexed by triples (k, t, a): base block k,
    copy index t below the left multiplicity of K at (j, k), and a row index
    a of component k of H.  A simple tensor lands there as
    T_j[(k,t,a), q] = sum_p h_k[a, p] (U_j^K^* k_j)[(k,t,p), q], which
    preserves the balanced inner product and both actions.

    Simple tensors are formed in batches (`tensor`), and k -> h (x) k by
    its components (`components`), both by one piece walk (`_walk`).  The
    matrix S of the step, column (i, l) the flat e_i (x) e_l, is never
    formed: `nonzeros` lists its entries, a few per row.
    """

    def __init__(self, H: HilbertBimodule, K: HilbertBimodule):
        base = H.base
        if K.base != base:
            raise StructureError("tensor factors over different base algebras")
        self.H, self.K = H, K
        sizes = base.block_sizes
        # component j of T is the sum of c = K.left_mult[j][k] copies of
        # component k of H, k in order: the pieces (k, c, row, col) with
        # c > 0, whose rows of T_j start at row and rows of U_j^K^* at col;
        # T_j has rho_j rows in all
        self._pieces, rho = [], []
        for row_j in K.left_mult:
            pieces, row, col = [], 0, 0
            for k, c in enumerate(row_j):
                if c:
                    pieces.append((k, c, row, col))
                    row += c * H.right_mult[k]
                    col += c * sizes[k]
            self._pieces.append(pieces)
            rho.append(row)
        left, unitaries = zip(*(_merged_left(
            [(H.left_mult[k], H.left_unitaries[k])
             for k, c, _, _ in pieces for _ in range(c)], sizes)
            for pieces in self._pieces))
        self.module = HilbertBimodule(base, rho, left, unitaries)
        self._UKd = [u.conj().T for u in K.left_unitaries]

    def _walk(self, h_flat, M, C):
        """The piece walk: row block (k, t) of each C_j becomes h_k @ M_j[rows
        of (k, t)], rows of U_j^K^* that piece (k, c, row, col) covers.
        Returns C; leading axes of h_flat and M_j broadcast to C_j's."""
        H = self.H
        sizes = H.base.block_sizes
        h_flat = np.asarray(h_flat, complex)
        h = [h_flat[..., H.offsets[k]:H.offsets[k + 1]].reshape(
            h_flat.shape[:-1] + (1, r, n))
            for k, (r, n) in enumerate(zip(H.right_mult, sizes))]
        for j, (M_j, C_j) in enumerate(zip(M, C)):
            cols = M_j.shape[-1]
            for k, c, row, col in self._pieces[j]:
                r_k, n_k = H.right_mult[k], sizes[k]
                M_k = M_j[..., col:col + c * n_k, :].reshape(
                    M_j.shape[:-2] + (c, n_k, cols))
                C_j[..., row:row + c * r_k, :] = (h[k] @ M_k).reshape(
                    C_j.shape[:-2] + (c * r_k, cols))
        return C

    def tensor(self, Hs, Ks):
        """Flat simple tensors h_s (x) k_s of stacked flat rows Hs of H and
        Ks of K, as rows of flat T.  Leading axes broadcast, so one h against
        many k is Hs of shape (1, dim H).

        Component j is the piece walk on U_j^K^* k_j, written in place in
        the flat rows: never kron(B, I_{n_j})."""
        K, T = self.K, self.module
        Hs, Ks = np.asarray(Hs, complex), np.asarray(Ks, complex)
        out = np.empty(np.broadcast_shapes(Hs.shape[:-1], Ks.shape[:-1])
                       + (T.dim,), complex)
        Kt = (U @ Ks[..., a:b].reshape(Ks.shape[:-1] + shape)
              for U, a, b, shape
              in zip(self._UKd, K.offsets, K.offsets[1:], K.shapes))
        views = [out[..., a:b].reshape(out.shape[:-1] + shape)
                 for a, b, shape in zip(T.offsets, T.offsets[1:], T.shapes)]
        self._walk(Hs, Kt, views)
        return out

    def components(self, h_flat):
        """k -> h (x) k by components: the matrices C_j of shape
        (rho_j, r^K_j), rho and r^K the right multiplicities of T and K,
        with T_j = C_j (K_j) for each component j, so the matrix of
        k -> h (x) k is the direct sum of kron(C_j, I_{n_j}).  C_j is the
        piece walk on U_j^K^*.  The leading axes of a stack of flat rows
        h_flat are kept: one C_j per sample."""
        return self._walk(h_flat, self._UKd, [
            np.empty(np.shape(h_flat)[:-1] + (rho, r), complex)
            for rho, r in zip(self.module.right_mult, self.K.right_mult)])

    def nonzeros(self):
        """The nonzero entries of the map S: kron(flat H, flat K) -> flat T,
        whose column (i, l) is e_i (x) e_l, as arrays (m, i, l, v) with
        S[m, (i, l)] = v, m a row of T.  No dense S is formed.

        A nonzero y of row (k, t, p) of U_j^K^* = `_UKd[j]` gives one entry
        for every row a of component k of H and column q of component j:
        m the row (k, t, a), column q of component j of T, i the entry
        (a, p) of H's component k, l the entry (y, q) of K's component j,
        and v = U_j^K^*[(k, t, p), y].  So row m holds v once for each of
        the n_k positions p, and the rows of S are orthogonal:
        S S* = diag(n_k), n_k the size of the base block k of the row's H
        component, since the rows of each left unitary of K are
        orthonormal."""
        H, K, T = self.H, self.K, self.module
        sizes = H.base.block_sizes
        parts = [(np.zeros(0, int),) * 3 + (np.zeros(0, complex),)]
        for j, n_j in enumerate(sizes):
            q = np.arange(n_j)
            for k, c, row, col in self._pieces[j]:
                r_k, n_k = H.right_mult[k], sizes[k]
                x, y = np.nonzero(self._UKd[j][col:col + c * n_k])
                v = self._UKd[j][col + x, y]
                t, p = np.divmod(x, n_k)
                a = np.arange(r_k)[:, None, None]
                # axes (a, nonzero, q)
                m = T.offsets[j] + (row + t[:, None] * r_k + a) * n_j + q
                i = H.offsets[k] + a * n_k + p[:, None]
                l = K.offsets[j] + y[:, None] * n_j + q
                parts.append([np.broadcast_to(z, m.shape).ravel()
                              for z in (m, i, l, v[:, None])])
        return tuple(np.concatenate(z) for z in zip(*parts))


# -- direct sums and augmentation ------------------------------------------

def direct_sum(H: HilbertBimodule, K: HilbertBimodule):
    """H + K in canonical form.  Returns (module, embed_H, embed_K), the
    embeddings as dim(sum) x dim(H) and dim(sum) x dim(K) flat matrices."""
    base = H.base
    if K.base != base:
        raise StructureError("direct sum over different base algebras")
    right = tuple(rh + rk for rh, rk in zip(H.right_mult, K.right_mult))
    left, unitaries = zip(*(_merged_left(
        [(H.left_mult[j], H.left_unitaries[j]),
         (K.left_mult[j], K.left_unitaries[j])], base.block_sizes)
        for j in range(len(base.block_sizes))))
    module = HilbertBimodule(base, right, left, unitaries)
    embed_H = np.zeros((module.dim, H.dim), complex)
    embed_K = np.zeros((module.dim, K.dim), complex)
    for j, n in enumerate(base.block_sizes):
        rH = H.right_mult[j]
        rK = K.right_mult[j]
        so = module.offsets[j]
        embed_H[so:so + rH * n, H.offsets[j]:H.offsets[j + 1]] = np.eye(rH * n)
        embed_K[so + rH * n:so + (rH + rK) * n,
                K.offsets[j]:K.offsets[j + 1]] = np.eye(rK * n)
    return module, embed_H, embed_K


def _merged_left(pieces, sizes):
    """The canonical left action on a direct sum of pieces, each a pair
    (left multiplicity row, left unitary): the rows summed, and the block
    diagonal of the unitaries with its columns ordered base block by base
    block, piece by piece within a block."""
    row = tuple(sum(c[s] for c, _ in pieces) for s in range(len(sizes)))
    starts = np.cumsum([0] + [len(u) for _, u in pieces])
    sigma = [start + sum(c[t] * sizes[t] for t in range(s)) + i
             for s, n_s in enumerate(sizes)
             for (c, _), start in zip(pieces, starts)
             for i in range(c[s] * n_s)]
    blk = place_copies([u for _, u in pieces], [1] * len(pieces), starts[-1])
    return row, blk[:, np.array(sigma, dtype=int)]


class AugmentedModule:
    """H~ = H + B with the distinguished unit vector xi = 0 + 1_B."""

    def __init__(self, H: HilbertBimodule):
        vac = trivial_module(H.base)
        self.plain = H
        self.module, self.embed_module, self.embed_base = direct_sum(H, vac)
        self.xi = self.module.from_flat(
            self.embed_base @ element_to_vector(vac, H.base.identity()).flat)


# -- GNS and CP-map bimodules ----------------------------------------------

def gns_bimodule(rho: ConditionalExpectation):
    """L^2(B, rho) (x) B, for a state rho on B viewed as the expectation onto
    the scalars: the quotient of B (x) B under
    <a(x)b, a'(x)b'> = b* rho(a* a') b', the bimodule of the completely
    positive map b -> rho(b) 1.  Returns (module, xi) with xi the class of
    1 (x) 1, satisfying <xi, b.xi> = rho(b) 1."""
    B = rho.algebra
    if not rho.has_faithful_gns:
        warnings.warn("state annihilates a central summand; the quotient "
                      "bimodule has a non-injective left action", stacklevel=2)
    return cp_bimodule(B, CPLinearMap(B, B, np.outer(B.identity().flat,
                                                     rho.matrix)))


def cp_bimodule(A: CStarAlgebra, eta):
    """Bimodule of a completely positive map: the quotient of A (x) A under
    <a1(x)a2, a1'(x)a2'> = a2* eta(a1* a1') a2', read off the Choi matrix of
    eta.  Returns (module, xi) with xi the class of 1 (x) 1.

    The Choi block C_jk of codomain block j and domain block k has entry
    ((a,p),(b,q)) = eta(E^k_pq)_j[a,b].  Each of its eigenpairs (lam, w)
    with lam > 0 gives a Kraus operator W = sqrt(lam) w of shape (n_j, n_k),
    and eta(x)_j = sum_k sum_W W x_k W*.  So a1 (x) a2 maps into component
    j as the row blocks (a1)_k W* (a2)_j, block k by block k and W by W: the
    inner product is kept, and the map is onto, since the W of one block
    pair are linearly independent.  The left action places copies of the
    blocks (identity unitaries), and xi stacks the W*.  A negative Choi
    eigenvalue below -1e-8 times the largest rejects eta as not CP."""
    if eta.domain != A or eta.codomain != A:
        raise StructureError("eta must map the algebra to itself")
    sizes = A.block_sizes
    off = np.cumsum((0,) + sizes)
    blk = [slice(a, b) for a, b in zip(off[:-1], off[1:])]
    choi = eta.choi_matrix().reshape((off[-1],) * 4)
    eig = [[np.linalg.eigh(0.5 * (C + C.conj().T)) for C in
            (choi[blk[j], blk[k], blk[j], blk[k]].reshape(n_j * n_k, -1)
             for k, n_k in enumerate(sizes))]
           for j, n_j in enumerate(sizes)]
    spectrum = np.concatenate([lam for row in eig for lam, _ in row])
    top = max(spectrum.max(), 0.0)
    if top == 0.0:
        raise StructureError("Choi matrix of eta has no positive eigenvalue: "
                             "the bimodule is zero")
    if spectrum.min() < -1e-8 * top:
        raise PreconditionError(
            "semi-inner product a2* eta(a1* a1') a2' is not positive; "
            "eta is not completely positive")
    left, comps = [], []
    for n_j, row in zip(sizes, eig):
        counts, V = [], []
        for n_k, (lam, w) in zip(sizes, row):
            keep = lam > RANK_CUTOFF * top
            W = (np.sqrt(lam[keep]) * w[:, keep]).T.reshape(-1, n_j, n_k)
            counts.append(int(keep.sum()))
            V.append(W.conj().transpose(0, 2, 1).reshape(-1, n_j))
        left.append(counts)
        comps.append(np.concatenate(V))
    module = HilbertBimodule(A, [len(c) for c in comps], left)
    return module, module.vector(comps)

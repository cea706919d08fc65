"""Finite-dimensional C*-algebras as direct sums of full matrix blocks.

An algebra is described by its ordered block sizes (n_1, ..., n_k); elements
are lists of complex square matrices, one per block.  `BlockSpace` and
`BlockValue` hold that layout once, for algebra elements and for the module
vectors of `hilbmod` alike.  Flat coordinates concatenate the blocks
row-major; with respect to the unnormalized block trace this identification
is isometric, which the module layer relies on.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .report import VerificationReport

DEFAULT_TOL = 1e-9
PSD_CUTOFF = 1e-10


class StructureError(ValueError):
    """Shape or algebraic-structure mismatch between operands."""


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold."""


class ResourceCapError(PreconditionError):
    """A configured dimension or time budget would be exceeded."""


class BlockValue:
    """A value of a `BlockSpace`: one complex matrix per block, or a stack
    of samples, blocks that share leading sample axes.  Arithmetic
    broadcasts over the samples, and `x[i]` takes samples; a subclass gives
    `norm`, one value per sample."""

    def __init__(self, parent, blocks):
        blocks = list(blocks)
        if len(blocks) != len(parent.shapes):
            raise StructureError(f"{len(blocks)} components, expected "
                                 f"{len(parent.shapes)}")
        self.parent = parent
        self.blocks = []
        lead = None
        for (r, c), b in zip(parent.shapes, blocks):
            b = np.asarray(b, complex)
            if lead is None:
                lead = b.shape[:-2]
            if b.shape != lead + (r, c):
                raise StructureError(f"block shape {b.shape}, expected ({r},{c})")
            self.blocks.append(b)

    def __getitem__(self, samples):
        """The samples of a stacked value."""
        return type(self)(self.parent, [b[samples] for b in self.blocks])

    @property
    def flat(self):
        return np.concatenate([b.reshape(b.shape[:-2] + (r * c,)) for (r, c), b
                               in zip(self.parent.shapes, self.blocks)],
                              axis=-1)

    def _same(self, other):
        if not isinstance(other, BlockValue) or other.parent != self.parent:
            raise StructureError("operands belong to different spaces")
        return other

    def __add__(self, other):
        other = self._same(other)
        return type(self)(self.parent, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        other = self._same(other)
        return type(self)(self.parent, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self):
        return type(self)(self.parent, [-a for a in self.blocks])

    def __mul__(self, z):
        """The value times the scalar z."""
        return type(self)(self.parent, [a * z for a in self.blocks])

    def __rmul__(self, z):
        return type(self)(self.parent, [z * a for a in self.blocks])

    def __repr__(self):
        lead = self.blocks[0].shape[:-2]
        norm = f"samples={lead}" if lead else f"norm={self.norm():.4g}"
        return f"{type(self).__name__}({self.parent!r}, {norm})"


class BlockSpace:
    """The layout of a block list: block j is a complex shapes[j] matrix.
    Flat coordinates concatenate the blocks row-major, block j from
    offsets[j] on.  A subclass names the class of its values as
    `value_type`."""

    def __init__(self, shapes):
        self.shapes = tuple(shapes)
        self.offsets = np.cumsum([0] + [r * c for r, c in self.shapes])
        self.dim = int(self.offsets[-1])

    def from_flat(self, vec):
        """The value of a flat vector, or the stacked value of the flat
        vectors on the last axis of an array."""
        vec = np.asarray(vec, complex)
        if vec.shape[-1:] != (self.dim,):
            raise StructureError(
                f"flat length {vec.shape[-1] if vec.ndim else 1}, "
                f"expected {self.dim}")
        return self.value_type(self, [
            vec[..., self.offsets[j]:self.offsets[j + 1]]
            .reshape(vec.shape[:-1] + shape)
            for j, shape in enumerate(self.shapes)])

    def basis(self):
        """The values of the flat unit vectors, in order."""
        return [self.from_flat(e) for e in np.eye(self.dim, dtype=complex)]

    def stack(self, values):
        """The values as one value stacked over them, in order."""
        return self.value_type(self, [np.stack(bs) for bs in
                                      zip(*(x.blocks for x in values))])


class AlgebraElement(BlockValue):
    """An element of a `CStarAlgebra`, or a stack of samples; `norm`,
    `trace`, `is_hermitian` and `is_positive` give one value per sample."""

    def __mul__(self, other):
        if np.isscalar(other):
            return BlockValue.__mul__(self, other)
        other = self._same(other)
        return AlgebraElement(self.parent, [a @ b for a, b in zip(self.blocks, other.blocks)])

    def adjoint(self):
        return AlgebraElement(self.parent,
                              [a.conj().swapaxes(-1, -2) for a in self.blocks])

    def trace(self):
        return sum(np.trace(b, axis1=-2, axis2=-1) for b in self.blocks)

    def norm(self):
        """Operator norm: max over blocks of the largest singular value, one
        value per sample."""
        return top_singular_value(self.blocks, self.blocks[0].ndim - 2)

    def is_hermitian(self):
        return ((self - self.adjoint()).norm()
                <= DEFAULT_TOL * np.maximum(1.0, self.norm()))

    def is_positive(self):
        scale = np.maximum(1.0, self.norm())
        h = 0.5 * (self + self.adjoint())
        return self.is_hermitian() & np.all(
            [np.linalg.eigvalsh(b).min(-1) >= -PSD_CUTOFF * scale
             for b in h.blocks], axis=0)


class CStarAlgebra(BlockSpace):
    """The direct sum of the full matrix algebras M_n, n in block_sizes."""

    value_type = AlgebraElement

    def __init__(self, block_sizes):
        block_sizes = tuple(int(n) for n in block_sizes)
        if not block_sizes or any(n < 1 for n in block_sizes):
            raise StructureError(f"block sizes must be positive: {block_sizes}")
        self.block_sizes = block_sizes
        super().__init__((n, n) for n in block_sizes)

    def __repr__(self):
        return f"CStarAlgebra{self.block_sizes}"

    def __eq__(self, other):
        return isinstance(other, CStarAlgebra) and self.block_sizes == other.block_sizes

    def __hash__(self):
        return hash(self.block_sizes)

    # -- constructors ------------------------------------------------------

    def element(self, blocks):
        return AlgebraElement(self, blocks)

    def zero(self):
        return AlgebraElement(self, [np.zeros((n, n), complex) for n in self.block_sizes])

    def identity(self):
        return AlgebraElement(self, [np.eye(n, dtype=complex) for n in self.block_sizes])

    def matrix_unit(self, j, p, q):
        blocks = [np.zeros((n, n), complex) for n in self.block_sizes]
        blocks[j][p, q] = 1.0
        return AlgebraElement(self, blocks)

    def unit_index_iter(self):
        for j, n in enumerate(self.block_sizes):
            for p in range(n):
                for q in range(n):
                    yield (j, p, q)

    def random_element(self, rng):
        return AlgebraElement(self, [
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for n in self.block_sizes])


def top_singular_value(mats, samples):
    """The largest singular value over a stack of blocks.  Each array in mats
    holds matrices on its last two axes; its first `samples` axes are sample
    axes, shared by all the arrays and kept in the result, and every other
    axis, like the list, is maximized over.  One batched SVD per matrix
    shape, but a 1 x 1 matrix's singular value is its modulus; an empty
    matrix has no singular value, and no matrix gives 0.0."""
    stacks = {}
    for x in mats:
        if x.shape[-1] and x.shape[-2]:
            stacks.setdefault(x.shape[-2:], []).append(x)
    top = 0.0
    for shape, xs in stacks.items():
        x = xs[0] if len(xs) == 1 else np.concatenate(
            [y.reshape(y.shape[:samples] + (prod(y.shape[samples:-2]),)
                       + y.shape[-2:]) for y in xs], samples)
        # each matrix's singular values descend: the first is the largest
        s = (np.abs(x[..., 0, 0]) if shape == (1, 1)
             else np.linalg.svd(x, compute_uv=False)[..., 0])
        if s.ndim > samples:
            s = s.reshape(s.shape[:samples] + (prod(s.shape[samples:]),)) \
                .max(-1)
        top = np.maximum(top, s)
    return top


def haar_unitary_matrix(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# -- linear and completely positive maps -----------------------------------

class LinearMap:
    """Linear map between block spaces (algebras or bimodules), stored as a
    matrix on flat coordinates."""

    def __init__(self, domain, codomain, matrix):
        matrix = np.asarray(matrix, complex)
        if matrix.shape != (codomain.dim, domain.dim):
            raise StructureError(
                f"action matrix {matrix.shape}, expected ({codomain.dim},{domain.dim})")
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix

    def __call__(self, x):
        if x.parent != self.domain:
            raise StructureError("element outside the map's domain")
        # a matrix-vector product per sample, the same arithmetic as for one
        # vector (a single product with all samples would round apart)
        return self.codomain.from_flat((self.matrix @ x.flat[..., None])[..., 0])


class CPLinearMap(LinearMap):
    """Linear map between algebras, with its Choi matrix for complete
    positivity."""

    @classmethod
    def from_callable(cls, domain, codomain, fn):
        cols = [fn(e).flat for e in domain.basis()]
        return cls(domain, codomain, np.array(cols).T)

    def choi_matrix(self):
        """Choi matrix of the map extended to the full matrix algebra
        containing the domain block-diagonally (extension by the block
        compression, which is completely positive both ways)."""
        dA = sum(self.domain.block_sizes)
        dC = sum(self.codomain.block_sizes)
        # kron ordering: (codomain) x (domain index pair)
        choi = np.zeros((dC, dA, dC, dA), complex)
        row_off = np.cumsum([0] + list(self.domain.block_sizes))
        for (j, p, q) in self.domain.unit_index_iter():
            out = self(self.domain.matrix_unit(j, p, q))
            choi[:, row_off[j] + p, :, row_off[j] + q] = place_copies(
                out.blocks, [1] * len(out.blocks), dC)
        return choi.reshape(dC * dA, dC * dA)

    def min_choi_eigenvalue(self):
        return float(np.linalg.eigvalsh(self.choi_matrix()).min())


# -- canonical multiplicity form --------------------------------------------

def multiplicity_form(sizes, col_sizes, mults, unitaries=None):
    """Validates a unital *-homomorphism of M_{col_sizes} into M_{sizes} in
    multiplicity + unitary form: row i holds nonnegative multiplicities
    c[i][k], one per column block, with sum_k c[i][k] n_k = sizes[i], and a
    unitary of size sizes[i] (the identity when unitaries is None) changes
    its basis.  Returns (rows as tuples, unitaries as complex arrays)."""
    mults = [tuple(int(c) for c in row) for row in mults]
    if len(mults) != len(sizes):
        raise StructureError("one multiplicity row per block required")
    for i, (m_i, row) in enumerate(zip(sizes, mults)):
        if len(row) != len(col_sizes):
            raise StructureError("multiplicity row length mismatch")
        if any(c < 0 for c in row):
            raise StructureError("negative multiplicity")
        if sum(c * n for c, n in zip(row, col_sizes)) != m_i:
            raise StructureError(
                f"multiplicity equation sum_k c[{i}][k] n_k = {m_i} fails")
    if unitaries is None:
        unitaries = [np.eye(m, dtype=complex) for m in sizes]
    if len(unitaries) != len(sizes):
        raise StructureError("one unitary per block required")
    out = []
    for m, u in zip(sizes, unitaries):
        u = np.asarray(u, complex)
        if u.shape != (m, m):
            raise StructureError("unitary shape mismatch")
        if m and np.linalg.norm(u.conj().T @ u - np.eye(m)) > DEFAULT_TOL * m:
            raise StructureError("basis change is not unitary")
        out.append(u)
    return mults, out


def place_copies(pieces, row, size):
    """The size x size block diagonal of row[k] copies of the square
    pieces[k], k in order: the direct sum of kron(I_{row[k]}, pieces[k]),
    padded with zeros, per sample of pieces that share leading axes.  The
    c copies of a q x q piece are written through one strided (c, q, q)
    view, copy t starting t q rows and columns after the first.  No pieces
    give the zero matrix."""
    lead = pieces[0].shape[:-2] if pieces else ()
    out = np.zeros(lead + (size, size), complex)
    rows, cols = out.strides[-2:]
    pos = 0
    for piece, c in zip(pieces, row):
        q = piece.shape[-1]
        if c and q:
            np.ndarray(lead + (c, q, q), complex, out, pos * (rows + cols),
                       out.strides[:-2] + (q * (rows + cols), rows, cols)
                       )[...] = piece[..., None, :, :]
            pos += c * q
    return out


# -- homomorphisms, embeddings, automorphisms ------------------------------

class UnitalHomomorphism:
    """Unital *-homomorphism B -> A in multiplicity + unitary canonical form.

    For each block i of A:  iota(b)_i = U_i (oplus_k  I_{c[i][k]} x b_k) U_i*,
    with sum_k c[i][k] n_k = m_i.
    """

    def __init__(self, domain, codomain, multiplicities, unitaries=None):
        self.domain = domain
        self.codomain = codomain
        self.multiplicities, self.unitaries = multiplicity_form(
            codomain.block_sizes, domain.block_sizes, multiplicities,
            unitaries)

    def block_image(self, i, x):
        """Image of element x in codomain block i, as an m_i x m_i matrix."""
        u = self.unitaries[i]
        return u @ place_copies(x.blocks, self.multiplicities[i],
                                self.codomain.block_sizes[i]) @ u.conj().T

    def __call__(self, x):
        if x.parent != self.domain:
            raise StructureError("element outside the embedding's domain")
        return AlgebraElement(self.codomain,
                              [self.block_image(i, x)
                               for i in range(len(self.codomain.block_sizes))])

    def as_linear_map(self):
        """The map's matrix on flat coordinates, from its images of a
        basis."""
        return CPLinearMap.from_callable(self.domain, self.codomain, self)


class AlgebraAutomorphism(UnitalHomomorphism):
    """Automorphism in permutation + inner canonical form.

    beta(x)_j = u_j x_{source[j]} u_j*, where source is a permutation of the
    block indices preserving block sizes: the unital homomorphism of the
    algebra into itself whose row j is one copy of block source[j].
    """

    def __init__(self, algebra, source=None, unitaries=None):
        self.algebra = algebra
        k = len(algebra.block_sizes)
        if source is None:
            source = tuple(range(k))
        self.source = tuple(int(s) for s in source)
        if sorted(self.source) != list(range(k)):
            raise StructureError("block map is not a permutation")
        super().__init__(algebra, algebra,
                         [[int(i == s) for i in range(k)]
                          for s in self.source], unitaries)

    def distance_to(self, other: "AlgebraAutomorphism"):
        """Max norm difference on the matrix-unit basis
        (`automorphism_distances`)."""
        if other.algebra != self.algebra:
            raise StructureError("automorphisms of different algebras")
        return float(automorphism_distances(self.source, self.unitaries,
                                            other.source, other.unitaries))


def _unit_images(u):
    """The images u e_pq u* = u[:, p] u[:, q]* of the matrix units of one
    block, as an (n^2, n, n) stack behind the leading axes of u."""
    ut = u.swapaxes(-1, -2)
    n = ut.shape[-1]
    return (ut[..., :, None, :, None] * ut.conj()[..., None, :, None, :]) \
        .reshape(u.shape[:-2] + (n * n, n, n))


def automorphism_distances(source_a, unitaries_a, source_b, unitaries_b):
    """`AlgebraAutomorphism.distance_to` over stacks of pairs: source_a[i]
    and unitaries_a[i] give block i of every automorphism a of the stack (a
    block index, and a unitary behind the same leading axes), likewise for
    b; returns one distance per pair.  The image of e^j_pq is nonzero only
    in the blocks i taken from block j, as the outer products of
    `_unit_images`.  A block i that a and b take from the same block gives
    the differences of their outer products; one they take from different
    blocks gives each stack against zero.  One batched SVD per block size."""
    stacks = []
    samples = np.ndim(source_a[0])
    for sa, ua, sb, ub in zip(source_a, unitaries_a, source_b, unitaries_b):
        same = np.equal(sa, sb)[..., None, None, None]
        images_b = _unit_images(ub)
        stacks.append(_unit_images(ua) - np.where(same, images_b, 0.0))
        if not same.all():
            stacks.append(np.where(same, 0.0, images_b))
    return top_singular_value(stacks, samples)


def identity_automorphism(algebra):
    return AlgebraAutomorphism(algebra)


def flip_automorphism(algebra):
    """Swap of two equal-size central summands (canonical instance on C + C)."""
    k = len(algebra.block_sizes)
    if k != 2 or algebra.block_sizes[0] != algebra.block_sizes[1]:
        raise StructureError("flip needs exactly two equal-size blocks")
    return AlgebraAutomorphism(algebra, (1, 0))


# -- conditional expectations ---------------------------------------------

class ConditionalExpectation(CPLinearMap):
    """Conditional expectation phi: A -> B, the completely positive map of
    its matrix, of size dim B x dim A, together with the unital embedding
    iota of B into A it projects onto.  `validate` checks the laws that make
    the pair an expectation."""

    def __init__(self, embedding: UnitalHomomorphism, matrix):
        super().__init__(embedding.codomain, embedding.domain, matrix)
        self.embedding = embedding
        self.algebra, self.base = self.domain, self.codomain

    @classmethod
    def from_densities(cls, algebra, densities):
        """The state rho(a) = sum_j tr(d_j a_j) of one positive density d_j
        per block, of total trace 1, as the expectation onto the scalars:
        its one row is the flat d_j^T."""
        if len(densities) != len(algebra.block_sizes):
            raise StructureError("one density per block required")
        checked = []
        total = 0.0
        for n, d in zip(algebra.block_sizes, densities):
            d = np.asarray(d, complex)
            if d.shape != (n, n):
                raise StructureError(f"density shape {d.shape}, expected ({n},{n})")
            if np.linalg.norm(d - d.conj().T) > DEFAULT_TOL * max(
                    1.0, np.linalg.norm(d)):
                raise PreconditionError("density block is not Hermitian")
            if np.linalg.eigvalsh(d).min() < -PSD_CUTOFF * max(
                    1.0, top_singular_value([d], 0)):
                raise PreconditionError("density block is not positive semidefinite")
            total += np.trace(d).real
            checked.append(d.T)
        if abs(total - 1.0) > DEFAULT_TOL:
            raise PreconditionError(f"total trace {total}, expected 1")
        return cls(scalar_embedding(algebra), algebra.element(checked).flat[None])

    @property
    def has_faithful_gns(self):
        """The GNS representation is faithful: no central summand of A is
        annihilated, so no block of A has only zero columns in the
        matrix."""
        return all(self.matrix[:, o:p].any() for o, p in
                   zip(self.algebra.offsets, self.algebra.offsets[1:]))

    @property
    def is_faithful(self):
        """phi(a* a) = 0 implies a = 0: the Gram matrix tr phi(b_u* b_v) on
        the matrix units b_u is positive definite.  That matrix is the direct
        sum of I_{n_j} (x) W_j, W_j[q, s] = tr phi(e^j_qs), so it has the
        eigenvalues of the W_j, read off the matrix of phi."""
        W = self.algebra.from_flat(sum(
            self.matrix[o + p * (n + 1)] for o, n in
            zip(self.base.offsets, self.base.block_sizes) for p in range(n)))
        lam = np.concatenate([np.linalg.eigvalsh((w + w.conj().T) / 2)
                              for w in W.blocks])
        return lam.min() > PSD_CUTOFF * max(1.0, lam.max())

    def validate(self, rng, tol=DEFAULT_TOL) -> VerificationReport:
        """The expectation laws; bimodularity and idempotence on five
        random samples."""
        report = VerificationReport(suite="conditional-expectation")
        report.add("unitality", "phi(1) = 1",
                   (self(self.algebra.identity())
                    - self.base.identity()).norm(), tol)
        res_bi = res_idem = 0.0
        for _ in range(5):
            b1 = self.base.random_element(rng)
            b2 = self.base.random_element(rng)
            a = self.algebra.random_element(rng)
            lhs = self(self.embedding(b1) * a * self.embedding(b2))
            res_bi = max(res_bi, (lhs - b1 * self(a) * b2).norm()
                         / max(1.0, b1.norm() * a.norm() * b2.norm()))
            res_idem = max(res_idem, (self(self.embedding(b1)) - b1).norm()
                           / max(1.0, b1.norm()))
        report.add("bimodularity", "phi(b1 a b2) = b1 phi(a) b2", res_bi, tol)
        report.add("idempotence", "phi . iota = id", res_idem, tol)
        report.add("complete-positivity", "Choi(phi) >= 0",
                   max(0.0, -self.min_choi_eigenvalue()), 1e-8)
        report.add_bool("faithful-gns", "phi(a* a) = 0 implies a = 0",
                        self.is_faithful)
        return report


def scalar_embedding(algebra):
    """The unital embedding of C into an arbitrary finite-dimensional algebra."""
    scalars = CStarAlgebra((1,))
    mults = [(n,) for n in algebra.block_sizes]
    return UnitalHomomorphism(scalars, algebra, mults)


def uniform_trace_state(algebra):
    """Normalized trace: densities I/(total dimension of the identity)."""
    total = sum(algebra.block_sizes)
    return ConditionalExpectation.from_densities(
        algebra, [np.eye(n) / total for n in algebra.block_sizes])

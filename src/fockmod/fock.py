"""Truncated full Fock spaces over a bimodule, creation operators, vacuum and
gauge expectations, words, the balanced-word filtration and its ideals, and
the tensor-regrouping factorization of the Fock module.

Truncation semantics: creation is compressed at the top level N (level N maps
to 0), annihilation is its adjoint.  Identities are checked either as
operator identities with the forced (1 - E_N) correction, or on the
overflow-free domain: vectors whose images under every factor of a word stay
below level N, determined by degree bookkeeping.
"""

from __future__ import annotations

import numpy as np

from .cstar import (AlgebraElement, PreconditionError, ResourceCapError,
                    StructureError, place_copies, top_singular_value,
                    DEFAULT_TOL)
from .hilbmod import (HilbertBimodule, ModuleVector, TensorStep, complex_rank,
                      element_to_vector, right_linear_matrix, trivial_module,
                      vector_to_element)
from .report import VerificationReport

DEFAULT_DIM_CAP = 20000


def power_dims(sizes, left_mult, m: int):
    """Yields the dimensions of the tensor powers 0..m of a bimodule over the
    blocks of the given sizes, from multiplicity arithmetic alone:
    r_{k+1} = C r_k with C the left multiplicities and r_0 the block sizes
    n, and dim_k = r_k . n.  Nothing is built."""
    r = list(sizes)
    for _ in range(m + 1):
        yield sum(rj * n for rj, n in zip(r, sizes))
        r = [sum(c * rk for c, rk in zip(row, r)) for row in left_mult]


def _check_cap(dims, dim_cap):
    """ResourceCapError as soon as the running total of dims passes the cap,
    so a huge truncation is refused without walking all of its levels."""
    total = 0
    for d in dims:
        total += d
        if total > dim_cap:
            raise ResourceCapError(
                f"localized dimension {total} exceeds the cap {dim_cap}")


class LevelOp:
    """A right B-linear operator by blocks and base components.  The labels
    0, 1, ... of the blocks are the levels of a truncated Fock space, or the
    group elements of l2(G) tensor V (`crossed.CrossedProduct`).

    blocks[i, m] maps label m into label i: the list of the matrices T_j,
    one per base block j, of shape (rmult[i][j], rmult[m][j]), rmult[k] the
    right multiplicities of label k.  The dense block is the direct sum of
    kron(T_j, I_{n_j}), n = sizes, in the components' flat layout, and a
    missing pair is a zero block.  Every operator of the Toeplitz algebra
    is adjointable, hence right B-linear, so creation, the left action,
    their words and the projections onto submodule towers have this form.
    Any other operator (a random matrix, a map twisted by an automorphism of
    B) lives on one component of size 1, where its blocks are dense level
    blocks (`FockSpace.random_placed`, `FockSpace.diagonal`); `placed`
    brings a right B-linear operator there.  A product sums only over
    matching middle levels and components, so it never meets a zero block.
    The matrices may carry a leading sample axis, one operator per sample:
    `@`, `+` and `-` broadcast over it, and `norm`, `spectral_norm` and
    `block` give one result per sample.
    """

    def __init__(self, rmult, sizes, blocks):
        self.rmult = tuple(tuple(int(r) for r in rk) for rk in rmult)
        self.sizes = tuple(int(n) for n in sizes)
        if any(len(rk) != len(self.sizes) for rk in self.rmult):
            raise StructureError("one right multiplicity per component")
        if any(len(X) != len(self.sizes) for X in blocks.values()):
            raise StructureError("one matrix per component in every block")
        self.dims = tuple(sum(r * n for r, n in zip(rk, self.sizes))
                          for rk in self.rmult)
        self.blocks = blocks

    def _new(self, blocks):
        """An operator on the same labels and components."""
        out = object.__new__(LevelOp)
        out.rmult, out.sizes, out.dims = self.rmult, self.sizes, self.dims
        out.blocks = blocks
        return out

    def __getitem__(self, samples):
        """The samples of an operator whose matrices carry a sample axis."""
        return self._new({key: [x[samples] for x in X]
                          for key, X in self.blocks.items()})

    @staticmethod
    def stack(ops):
        """Operators with the same blocks as one stacked over them."""
        return ops[0]._new({key: [np.stack(xs) for xs in
                                  zip(*(op.blocks[key] for op in ops))]
                            for key in ops[0].blocks})

    def _check(self, other):
        if other.sizes != self.sizes or other.rmult != self.rmult:
            raise StructureError("level operators on different components")

    def __add__(self, other):
        self._check(other)
        out = dict(self.blocks)
        for key, Y in other.blocks.items():
            X = out.get(key)
            out[key] = Y if X is None else [x + y for x, y in zip(X, Y)]
        return self._new(out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.blocks)
        for key, Y in other.blocks.items():
            X = out.get(key)
            out[key] = [-y for y in Y] if X is None \
                else [x - y for x, y in zip(X, Y)]
        return self._new(out)

    def __mul__(self, c):
        """The operator times the scalar c."""
        return self._new({key: [c * x for x in X]
                          for key, X in self.blocks.items()})

    def __matmul__(self, other):
        self._check(other)
        rows = {}
        for (m, j), Y in other.blocks.items():
            rows.setdefault(m, []).append((j, Y))
        out = {}
        for (i, m), X in self.blocks.items():
            for j, Y in rows.get(m, ()):
                Z = [x @ y for x, y in zip(X, Y)]
                S = out.get((i, j))
                out[i, j] = Z if S is None else [s + z for s, z in zip(S, Z)]
        return self._new(out)

    def adjoint(self):
        return self._new({(j, i): [x.conj().swapaxes(-1, -2) for x in X]
                          for (i, j), X in self.blocks.items()})

    def restrict(self, max_level):
        """The operator on inputs from levels <= max_level: the blocks whose
        input level is at most max_level.  Restricting the rightmost factor
        of a product first multiplies only those blocks."""
        return self._new({(i, j): X for (i, j), X in self.blocks.items()
                          if j <= max_level})

    def norm(self):
        """Frobenius norm, one value per sample: kron(T_j, I_{n_j}) has
        n_j ||T_j||_F^2 as its squared Frobenius norm: the conjugate dot
        product of T_j's flat row with itself, which `np.vecdot` rounds as
        np.vdot does, per sample."""
        sq = 0.0
        for X in self.blocks.values():
            for x, n in zip(X, self.sizes):
                f = x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))
                sq = sq + n * np.vecdot(f, f).real
        return np.sqrt(sq)

    def spectral_norm(self):
        """Exact spectral norm of an operator in which each input label and
        each output label meets at most one block (a level shift, or a
        permutation of group elements): up to an order of the labels it is
        the direct sum of its blocks and of their components, so its norm is
        the largest of the T_j's (`top_singular_value`).  Blocks that carry
        a leading sample axis give one norm per sample."""
        if any(len({key[e] for key in self.blocks}) < len(self.blocks)
               for e in (0, 1)):
            raise StructureError("a label meets more than one block")
        mats = [x for X in self.blocks.values() for x in X]
        return top_singular_value(mats, mats[0].ndim - 2 if mats else 0)

    def block(self, i, j):
        """The dense level block (i, j): kron(T_c, I_{n_c}) on the diagonal
        of the components' flat layout, one per sample.  A missing block is
        one zero matrix, without sample axes."""
        X = self.blocks.get((i, j))
        if X is None:
            return np.zeros((self.dims[i], self.dims[j]), complex)
        return right_linear_matrix(X, self.sizes)

    def placed(self):
        """The same operator over one component of size 1: its dense level
        blocks `block(i, j)`.  The explicit bridge to operators that are
        not right B-linear."""
        return LevelOp([(d,) for d in self.dims], (1,),
                       {key: [self.block(*key)] for key in self.blocks})

    def dense(self):
        offsets = np.cumsum((0,) + self.dims)
        out = np.zeros((offsets[-1], offsets[-1]), complex)
        for i, j in self.blocks:
            out[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]] = \
                self.block(i, j)
        return out


class FockSpace:
    """B + H + H(x)H + ... truncated at level N, one chain of tensor steps
    from the vacuum: level k+1 = H (x) level k, and H (x) B = H by h.b."""

    def __init__(self, H: HilbertBimodule, N: int, dim_cap=DEFAULT_DIM_CAP):
        if N < 0:
            raise PreconditionError("truncation level must be nonnegative")
        _check_cap(power_dims(H.base.block_sizes, H.left_mult, N), dim_cap)
        self.bimodule = H
        self.base = H.base
        self.N = N
        self.levels = [trivial_module(self.base)]
        self.maps = []          # maps[k]: H (x) level k  ->  level k+1
        for k in range(N):
            self.maps.append(TensorStep(H, self.levels[k]))
            self.levels.append(self.maps[k].module)
        self.level_dims = tuple(lv.dim for lv in self.levels)
        self.level_mult = tuple(lv.right_mult for lv in self.levels)
        # the zero operators over the base's components and over one
        # component of size 1: every builder's output shares the levels and
        # components of one of them, so they are checked once, here
        self._zero = LevelOp(self.level_mult, self.base.block_sizes, {})
        self._placed_zero = LevelOp([(d,) for d in self.level_dims], (1,), {})
        self.dim = sum(self.level_dims)

    def __repr__(self):
        return f"FockSpace(N={self.N}, level_dims={self.level_dims})"

    # -- operators over one component of size 1 -----------------------------

    def random_placed(self, rng, pairs):
        """A random operator that is not right B-linear: independent complex
        Gaussian dense level blocks (i, j), drawn one at a time in the order
        of pairs, over one component of size 1."""
        d = self.level_dims
        return self._placed_zero._new({
            (i, j): [rng.standard_normal((d[i], d[j]))
                     + 1j * rng.standard_normal((d[i], d[j]))]
            for i, j in pairs})

    def diagonal(self, blocks):
        """The degree-0 operator with the dense level blocks blocks[k] on
        levels k = 0, 1, ..., len(blocks) - 1 and zero above, over one
        component of size 1.  At most N + 1 blocks, block k of shape
        (d_k, d_k), d_k the dimension of level k."""
        blocks = [np.asarray(X) for X in blocks]
        if len(blocks) > self.N + 1:
            raise StructureError(f"{len(blocks)} level blocks, at most "
                                 f"{self.N + 1} levels")
        for d, X in zip(self.level_dims, blocks):
            if X.shape != (d, d):
                raise StructureError(f"level block shape {X.shape}, "
                                     f"expected ({d}, {d})")
        return self._placed_zero._new({(k, k): [X]
                                       for k, X in enumerate(blocks)})

    def _level_op(self, blocks):
        """A LevelOp over the components of the base's blocks."""
        return self._zero._new(blocks)

    # -- algebra actions ---------------------------------------------------

    def identity(self):
        return self._level_op({(k, k): [np.eye(r, dtype=complex) for r in rk]
                               for k, rk in enumerate(self.level_mult)})

    def left(self, b: AlgebraElement):
        """Left action of b, level by level and component by component.
        Level 0 is b itself: component j is b_j.  Level k+1 is H (x) level
        k in the tensor step's row order (s, t, a), where b acts on the row
        a of H alone: component j is R_j, block diagonal, c_js copies of
        lambda_s(b) for each base block s, c the left multiplicities of
        level k and lambda_s(b) the left action of b on component s of H,
        formed once.  No level is conjugated by its left unitary, and no
        level-size matrix is formed."""
        reps = self._left_reps(b)
        return self._level_op({(k, k): self._left_level(k, b, reps)
                               for k in range(self.N + 1)})

    def _left_reps(self, b):
        """lambda_s(b) for every base block s."""
        return [self.bimodule.left_rep_block(s, b)
                for s in range(len(self.base.block_sizes))]

    def _left_level(self, k, b, reps):
        """The components R_j of level k of `left(b)`, from reps =
        `_left_reps(b)`."""
        if k == 0:      # B over itself: one copy of b_j in component j
            pieces, rows = b.blocks, self.levels[0].left_mult
        else:
            pieces, rows = reps, self.levels[k - 1].left_mult
        return [place_copies(pieces, row, r)
                for row, r in zip(rows, self.level_mult[k])]

    # -- operators ---------------------------------------------------------

    def creation(self, h: ModuleVector):
        """l(h): level k -> level k+1 by k -> h (x) k; level N maps to 0.
        Block (k+1, k) holds the components of `TensorStep.components`."""
        if h.parent is not self.bimodule:
            raise StructureError("vector outside the base bimodule")
        return self._level_op({(k + 1, k): step.components(h.flat)
                               for k, step in enumerate(self.maps)})

    def vacuum_expectation(self, *factors) -> AlgebraElement:
        """Compression of the product of the factors to level 0, read as an
        element of B.  The level-0 columns of the last factor are pushed
        through the others from the right, so the product is never
        multiplied out."""
        y = factors[-1].restrict(0)
        for T in reversed(factors[:-1]):
            y = T @ y
        y0 = y.block(0, 0)
        one = element_to_vector(self.levels[0], self.base.identity()).flat
        return vector_to_element(self.levels[0].from_flat(y0 @ one))

    def gauge_expectation(self, T: LevelOp) -> LevelOp:
        """Exact projection onto the degree-0 part: keep diagonal level blocks."""
        return T._new({(i, j): X for (i, j), X in T.blocks.items()
                       if i == j})


# -- words ------------------------------------------------------------------

def word(F: FockSpace, coeffs, hs, top):
    """The balanced word b_0 l(h_1) b_1 ... l(h_m) b_m l(h_{m+1})* ...
    l(h_{2m})* b_{2m}, m = len(hs) / 2, on the levels <= top <= N: a LevelOp
    over the base's components with the diagonal blocks (k, k),
    m <= k <= top, and no block elsewhere.

    A balanced word has degree 0, so it maps each level into itself: its
    block on level k is zero for k < m, and otherwise the product, from the
    left, of the level blocks of the factors on the path k -> k - m -> k,
    which never reaches the top level's compressed creation.  The product is
    taken component by component (`FockSpace._left_level`,
    `TensorStep.components`), on the levels m..top only.  Stacked
    coefficients and vectors (`stack_words`) give one word per sample."""
    if len(hs) % 2 or len(coeffs) != len(hs) + 1:
        raise StructureError("need 2m vectors and 2m + 1 coefficients")
    if any(h.parent is not F.bimodule for h in hs):
        raise StructureError("vector outside the base bimodule")
    m = len(hs) // 2
    reps = {}

    def left(i, j):
        """Components of coefficient i on level j, its lambda_s(b_i) formed
        once."""
        if i not in reps:
            reps[i] = F._left_reps(coeffs[i])
        return F._left_level(j, coeffs[i], reps[i])

    blocks = {}
    for k in range(m, top + 1):
        M = left(0, k)
        for i, h in enumerate(hs):
            if i < m:       # l(h): level k-i-1 -> level k-i
                j = k - i - 1
                M = [x @ c @ y for x, c, y in zip(
                    M, F.maps[j].components(h.flat), left(i + 1, j))]
            else:           # l(h)*: level j+1 -> level j
                j = k - 2 * m + i
                M = [x @ c.conj().swapaxes(-1, -2) @ y for x, c, y in zip(
                    M, F.maps[j].components(h.flat), left(i + 1, j + 1))]
        blocks[k, k] = M
    return F._level_op(blocks)


def _vacuum_tensor(F: FockSpace, coeffs, hs):
    """b_0.(h_1 (x) b_1.(... (x) (h_p (x) b_p.1))) in level p, grown from the
    vacuum with one tensor step per vector: l(h) on level j is h (x) .,
    so this is b_0 l(h_1) b_1 ... l(h_p) b_p applied to the vacuum."""
    x = element_to_vector(F.levels[0], coeffs[-1])
    for j, (h, b) in enumerate(zip(hs[::-1], coeffs[-2::-1])):
        step = F.maps[j]
        x = step.module.from_flat(step.tensor(h.flat, x.flat)).lmul(b)
    return x


def random_word(F: FockSpace, rng, m):
    """Coefficients and vectors of a random balanced word with m creators:
    2m + 1 elements of B, then 2m vectors of H."""
    coeffs = [F.base.random_element(rng) for _ in range(2 * m + 1)]
    hs = [F.bimodule.random_vector(rng) for _ in range(2 * m)]
    return coeffs, hs


def stack_words(F: FockSpace, words):
    """Words of one length (`random_word`) as one stacked over them."""
    coeffs, hs = zip(*words)
    return ([F.base.stack(c) for c in zip(*coeffs)],
            [F.bimodule.stack(h) for h in zip(*hs)])


def _diagonal(x: LevelOp, levels, samples):
    """The dense level blocks (k, k), k in levels, of an operator stacked
    over samples, a missing block as zeros."""
    return [np.broadcast_to(x.block(k, k), (samples,) + (x.dims[k],) * 2)
            for k in levels]


def _rows(blocks):
    """Blocks stacked over samples as one flat row per sample."""
    return np.concatenate([b.reshape(len(b), -1) for b in blocks], axis=1)


# -- verification operations ------------------------------------

def masked_norm(M: LevelOp, max_level):
    """Norm of an operator restricted to inputs from levels <= max_level:
    the Frobenius norm of its blocks whose input level is <= max_level.

    The Frobenius norm dominates the operator norm, so residual checks only
    get stricter."""
    if max_level < 0:
        raise PreconditionError("no overflow-free room at this truncation")
    return M.restrict(max_level).norm()


def creation_relations_check(F: FockSpace, rng,
                             tol=DEFAULT_TOL) -> VerificationReport:
    """l(h)*l(g) = <h,g>(1 - E_N) and b1 l(h) b2 = l(b1 h b2).  Each
    difference shifts every level by the same amount (0 and +1), so its
    spectral norm is exactly the largest of its blocks'.  Five samples
    (h, g, b1, b2) are drawn one at a time and evaluated as one stack."""
    report = VerificationReport(suite="creation-relations")
    H, B = F.bimodule, F.base
    h, g, b1, b2 = zip(*[(H.random_vector(rng), H.random_vector(rng),
                          B.random_element(rng), B.random_element(rng))
                         for _ in range(5)])
    h, g, b1, b2 = H.stack(h), H.stack(g), B.stack(b1), B.stack(b2)
    lh = F.creation(h)
    # the factor (1 - E_N): no block on the top level
    rhs = F.left(H.inner(h, g)).restrict(F.N - 1)
    res_ls = ((lh.adjoint() @ F.creation(g) - rhs).spectral_norm()
              / np.maximum(1.0, h.norm() * g.norm()))
    lhs2 = F.left(b1) @ lh @ F.left(b2)
    rhs2 = F.creation(h.lmul(b1).rmul(b2))
    res_bimod = ((lhs2 - rhs2).spectral_norm()
                 / np.maximum(1.0, b1.norm() * h.norm() * b2.norm()))
    report.add("creation-adjoint-relation", "l(h)* l(g) = <h,g> (1 - E_N)",
               float(np.max(res_ls)), tol)
    report.add("creation-bimodularity", "b1 l(h) b2 = l(b1 h b2)",
               float(np.max(res_bimod)), tol)
    return report


def expectation_properties_check(F: FockSpace, rng,
                                 tol=DEFAULT_TOL) -> VerificationReport:
    """Vacuum expectation E and gauge expectation Phi: idempotent, unital,
    compatible (E = E . Phi), Phi kills unbalanced words and fixes balanced
    ones."""
    report = VerificationReport(suite="expectations")
    H = F.bimodule
    res = (F.vacuum_expectation(F.identity()) - F.base.identity()).norm()
    report.add("vacuum-unital", "E(1) = 1", res, tol)
    h = H.random_vector(rng)
    lh = F.creation(h)
    report.add("vacuum-kills-creation", "E(l(h)) = 0",
               F.vacuum_expectation(lh).norm() / max(1.0, h.norm()), tol)
    g = H.random_vector(rng)
    lg = F.creation(g)
    lhs = F.vacuum_expectation(lh.adjoint(), lg)
    # the factor (1 - E_N) of the adjoint relation: l = 0 at N = 0
    rhs = H.inner(h, g) if F.N >= 1 else F.base.zero()
    report.add("vacuum-pairing", "E(l(h)* l(g)) = <h,g>",
               (lhs - rhs).norm() / max(1.0, h.norm() * g.norm()), tol)
    # four samples of every level block, off the diagonal too, so that Phi
    # moves T, drawn one at a time and evaluated as one stack
    pairs = [(i, j) for i in range(F.N + 1) for j in range(F.N + 1)]
    T = LevelOp.stack([F.random_placed(rng, pairs) for _ in range(4)])
    PT = F.gauge_expectation(T)
    scale = np.maximum(1.0, T.norm())
    res_idem = (F.gauge_expectation(PT) - PT).norm() / scale
    res_ephi = ((F.vacuum_expectation(T) - F.vacuum_expectation(PT)).norm()
                / scale)
    report.add("gauge-idempotent", "Phi . Phi = Phi",
               float(np.max(res_idem)), 1e-12)
    report.add("vacuum-gauge-compatible", "E = E . Phi",
               float(np.max(res_ephi)), 1e-12)
    if F.N >= 1:
        report.add("gauge-kills-creation", "Phi(l(h)) = 0",
                   F.gauge_expectation(lh).norm() / max(1.0, h.norm()), tol)
        lw = lh @ lg.adjoint()
        report.add("gauge-fixes-balanced", "Phi(l(h) l(g)*) = l(h) l(g)*",
                   (F.gauge_expectation(lw) - lw).norm()
                   / max(1.0, h.norm() * g.norm()), 1e-12)
    return report


def _check_depth(F: FockSpace, n):
    if n < 1:
        raise PreconditionError("filtration depth must be at least 1")
    if F.N < n:
        raise PreconditionError("truncation below the requested filtration level")


def _word_scale(coeffs, hs):
    """max(1, product of the norms of a stacked word's coefficients and
    vectors) per sample, from one norm over each."""
    return np.maximum(1.0, np.prod(coeffs[0].parent.stack(coeffs).norm(), 0)
                      * np.prod(hs[0].parent.stack(hs).norm(), 0))


def ideal_structure_check(F: FockSpace, n, rng,
                          tol=DEFAULT_TOL) -> VerificationReport:
    """Generators of the n-th ideal of the balanced-word filtration:
    they kill levels below n, restrict to explicit finite-rank operators on
    level n, and absorb products of balanced words.  Everything is read off
    the words' level operators; residuals on levels below n are Frobenius
    norms, and the spectral norm of a block-diagonal operator is the largest
    of its blocks'.  Four generators x, each with a word a of one creator,
    are drawn one at a time and evaluated as one stack."""
    _check_depth(F, n)
    report = VerificationReport(suite="ideal-structure")
    draws = [(random_word(F, rng, n), random_word(F, rng, 1))
             for _ in range(4)]
    coeffs, hs = stack_words(F, [w for w, _ in draws])
    x = word(F, coeffs, hs, n)
    scale = _word_scale(coeffs, hs)
    res_kill = x.restrict(n - 1).norm() / scale
    # explicit finite-rank form on level n: x w = u <v, w> with
    # u = b_0 l(h_1) ... l(h_n) b_n 1 and v = b_2n* l(h_2n) ... l(h_n+1) 1
    u = _vacuum_tensor(F, coeffs[:n + 1], hs[:n])
    v = _vacuum_tensor(F, [c.adjoint() for c in coeffs[:n:-1]]
                       + [F.base.identity()], hs[:n - 1:-1])
    rank_one = F._level_op({(n, n): [uj @ vj.conj().swapaxes(-1, -2)
                                     for uj, vj in zip(u.blocks, v.blocks)]})
    res_rank = (x - rank_one).spectral_norm() / scale
    # ideal property: (balanced word) . x still kills levels < n, where
    # only the word's blocks on levels k < n act; they give its scale too
    a = word(F, *stack_words(F, [w for _, w in draws]), n - 1)
    res_prod = ((a @ x.restrict(n - 1)).norm()
                / (scale * np.maximum(1.0, a.spectral_norm())))
    report.add("ideal-kills-lower-levels", "x in I_n  =>  x|_{F_{n-1}} = 0",
               float(np.max(res_kill)), tol, n=n)
    report.add("ideal-finite-rank-form", "x|_{level n} = u<v,.>",
               float(np.max(res_rank)), tol, n=n)
    report.add("ideal-absorbs-products",
               "A_n . I_n subset I_n (vanishing on F_{n-1})",
               float(np.max(res_prod)), tol, n=n)
    return report


def quotient_dimension_check(F: FockSpace, n, rng,
                             tol=DEFAULT_TOL) -> VerificationReport:
    """The quotient of the depth-n word span by the n-th ideal is realized by
    compression to levels below n, and agrees there with the depth-(n-1)
    span.  The compression of a word is the word on levels < n; levels n
    and above are never evaluated.  A compressed word is read as the
    entries of its dense level blocks: the off-diagonal level blocks are
    zero, so the ranks are those of the dense corners.  The six words of
    each length are drawn one at a time and evaluated as one stack."""
    _check_depth(F, n)
    report = VerificationReport(suite="filtration-quotient")

    def words(m):
        return stack_words(F, [random_word(F, rng, m) for _ in range(6)])

    def compressed_span(depth):
        return np.concatenate([
            _rows(_diagonal(word(F, *words(m), n - 1), range(n), 6))
            for m in range(depth + 1)])

    coeffs, hs = words(n)
    res = word(F, coeffs, hs, n - 1).spectral_norm() / _word_scale(coeffs, hs)
    report.add("ideal-in-quotient-kernel",
               "I_n compresses to 0 on F_{n-1}", float(np.max(res)), tol, n=n)
    r_n = complex_rank(compressed_span(n))
    r_lower = complex_rank(compressed_span(n - 1))
    report.add_bool("quotient-rank",
                    "A_n and A_{n-1} have equal rank compressed to F_{n-1}",
                    r_n == r_lower, rank_n=r_n, rank_lower=r_lower, n=n)
    return report


def fock_factorization_check(M: HilbertBimodule, n, k, j, rng,
                             tol=DEFAULT_TOL,
                             dim_cap=DEFAULT_DIM_CAP) -> VerificationReport:
    """Tensor-regrouping factorization: the (k(n+1)+j)-fold power of a
    bimodule is isometrically the j-fold power tensored with the k-fold power
    of the (n+1)-fold power.  `_factorization` of this one shape, on towers
    built to the levels it reads."""
    if not (0 <= j <= n):
        raise PreconditionError("need 0 <= j <= n")
    m = k * (n + 1) + j
    if m < 1:
        raise PreconditionError("empty regrouping")
    tower = FockSpace(M, max(m, n + 1), dim_cap)
    powers = {n: FockSpace(tower.levels[n + 1], k, dim_cap)}
    return _factorization(tower, powers, [(n, k, j)], rng, tol)[0]


def _factorization(tower: FockSpace, powers, shapes, rng,
                   tol) -> list[VerificationReport]:
    """The report of `fock_factorization_check` for each shape (n, k, j), in
    order, on the tower of M, up to a level of at least max(k(n+1)+j, n+1)
    for every shape, and powers[n], the tower of its level n+1, up to a
    level of at least every k of that n.  Tensor steps are deterministic, so
    one tower of each serves every shape that fits in it.

    Shape by shape, dim + 8 samples, dim the dimension of the power, are
    drawn in one call and go through each tensor step at once, as stacked
    flat rows; the k groups of n+1 factors fold as one stack.  The B-valued
    Gram tables of the first 25 samples take one product per base block.
    Only their differences and diagonals are kept, and the spectral norms of
    every shape are taken together at the end."""
    M = tower.bimodule
    levels, maps = tower.levels, tower.maps
    triu, kept, done = {}, [], []

    def fold(X):
        """Rows h_1 (x) ... (x) h_p of the stacked vectors X[:, i]."""
        v = X[:, -1]
        for i in range(X.shape[1] - 1):
            v = maps[i + 1].tensor(X[:, -2 - i], v)
        return v

    def gram_pairs(mod, V, b, n_b):
        """Block b of <v_s, v_t> for the pairs s <= t of the first rows: the
        pair blocks of C* C, C the rows' components side by side."""
        r_b = mod.right_mult[b]
        C = V[:pairs, mod.offsets[b]:mod.offsets[b + 1]].reshape(
            pairs, r_b, n_b).transpose(1, 0, 2).reshape(r_b, pairs * n_b)
        return (C.conj().T @ C).reshape(pairs, n_b, pairs, n_b)[s, :, t]

    for n, k, j in shapes:
        m = k * (n + 1) + j
        Y = powers[n]
        report = VerificationReport(suite="fock-factorization",
                                    parameters={"n": n, "k": k, "j": j})
        left_mod = levels[m]
        # right side: levels[j] (x) ( levels[n+1] )^{(x) k}
        if k == 0:
            right_mod = levels[j]
        elif j == 0:
            right_mod = Y.levels[k]
        else:
            cross_step = TensorStep(levels[j], Y.levels[k])
            right_mod = cross_step.module
        report.add_bool(
            "dimension-equality",
            "dim of the regrouped power equals dim of the plain power",
            left_mod.dim == right_mod.dim,
            left=left_mod.dim, right=right_mod.dim)
        samples = left_mod.dim + 8
        # the draws of M.random_vector, sample by sample and factor by factor
        Z = rng.standard_normal((samples, m, 2, M.dim))
        X = Z[:, :, 0] + 1j * Z[:, :, 1]
        lefts = fold(X)
        if k == 0:
            rights = fold(X[:, :j])
        else:
            # the k groups of n+1 factors, one stack of k * samples rows
            ys = fold(X[:, j:].reshape(samples, k, n + 1, -1).swapaxes(0, 1)
                      .reshape(k * samples, n + 1, -1)).reshape(k, samples, -1)
            rights = ys[-1]
            for i in range(k - 2, -1, -1):
                rights = Y.maps[k - 1 - i].tensor(ys[i], rights)
            if j:
                rights = cross_step.tensor(fold(X[:, :j]), rights)
        pairs = min(samples, 25)
        if pairs not in triu:
            triu[pairs] = np.triu_indices(pairs)
        s, t = triu[pairs]
        kept.append([])
        for b, n_b in enumerate(M.base.block_sizes):
            gl = gram_pairs(left_mod, lefts, b, n_b)
            gr = gram_pairs(right_mod, rights, b, n_b)
            kept[-1].append(np.concatenate([gl - gr, gl[s == t]]))
        done.append((report, s, t, complex_rank(lefts), left_mod.dim))
    # per base block, every shape's differences and diagonals in one stack.
    # A 1 x 1 block's norm is |x|, far cheaper than an SVD each; it is taken
    # here and not in `top_singular_value`, since LAPACK's value can differ
    # from |x| in the last bit, and the other checks share that helper.
    stacks = [np.concatenate(x) for x in zip(*kept)]
    tops = top_singular_value([x for x in stacks if x.shape[1:] != (1, 1)], 1)
    for x in stacks:
        if x.shape[1:] == (1, 1):
            tops = np.maximum(tops, np.abs(x[:, 0, 0]))
    ends = np.cumsum([len(blocks[0]) for blocks in kept])
    for (report, s, t, rank, dim), top in zip(done, np.split(tops, ends)):
        diff, norms = top[:len(s)], np.sqrt(top[len(s):])
        res = float(np.max(diff / np.maximum(1.0, norms[s] * norms[t])))
        report.add("gram-equality",
                   "regrouping preserves the B-valued inner product", res, tol)
        report.add_bool("span-coverage",
                        "sampled simple tensors span the regrouped power",
                        rank == dim, rank=rank, dim=dim)
    return [report for report, *_ in done]


def isometric_vector(H: HilbertBimodule, rng) -> ModuleVector:
    """Random h with <h,h> = 1, so l(h) is a truncated isometry."""
    comps = []
    for r, n, raw in zip(H.right_mult, H.base.block_sizes,
                         H.random_vector(rng).blocks):
        if r < n:
            raise PreconditionError(
                "no isometric vector: a component is too small")
        q, _ = np.linalg.qr(raw)
        comps.append(q[:, :n])
    return H.vector(comps)


def toeplitz_endomorphism(F: FockSpace, a: LevelOp, L: LevelOp, rng,
                          tol=DEFAULT_TOL):
    """Psi(a) = L a L* for a degree-0 level operator a and a creation
    operator L = `F.creation(h)`; returns (operator, report).  The random
    degree-0 x and y are not right B-linear, so Psi is evaluated with L
    `placed`.  L* L - (1 - E_N) shifts no level: its spectral norm is
    exactly the largest of its blocks'."""
    report = VerificationReport(suite="toeplitz-endomorphism")
    if (F.gauge_expectation(a) - a).norm() > tol * max(1.0, a.norm()):
        raise PreconditionError("argument is not in the degree-0 part")
    Lp = L.placed()
    Lps = Lp.adjoint()
    out = Lp @ a.placed() @ Lps
    report.add("shifted-vacuum", "E(L a L*) = 0",
               F.vacuum_expectation(out).norm()
               / max(1.0, F.gauge_expectation(a).spectral_norm()), tol)
    one_below = F.identity().restrict(F.N - 1)     # 1 - E_N
    res_iso = (L.adjoint() @ L - one_below).spectral_norm()
    report.add("truncated-isometry", "L* L = 1 - E_N", res_iso, tol)
    # three pairs (x, y), drawn one at a time and evaluated as one stack
    diagonal = [(k, k) for k in range(F.N + 1)]
    x, y = (LevelOp.stack(ops) for ops in zip(*[
        (F.random_placed(rng, diagonal), F.random_placed(rng, diagonal))
        for _ in range(3)]))
    lhs = Lp @ x @ y @ Lps
    rhs = (Lp @ x @ Lps) @ (Lp @ y @ Lps)
    # difference is L x E_N y L*: vanishes below the truncation rim
    res = (masked_norm(lhs - rhs, F.N - 1)
           / np.maximum(1.0, x.norm() * y.norm()))
    report.add("multiplicative-on-degree-zero",
               "Psi(xy) = Psi(x)Psi(y) on the overflow-free domain",
               float(np.max(res)), 1e-7)
    return out, report


def endomorphism_injectivity_check(F: FockSpace, L: LevelOp, n,
                                   rng) -> VerificationReport:
    """Rank preservation of x -> L x L* on spans of balanced words, for a
    level operator L with blocks (k+1, k) only, such as a creation operator.

    A balanced word is block diagonal with blocks x_k, so L x L* is block
    diagonal with blocks C_k x_k C_k* on the levels k + 1 <= N, C_k the
    block (k+1, k) of L.  Both ranks are read off the stacked level blocks:
    no Fock-size word and no dense conjugation is formed.  The five words
    of each length are drawn one at a time and evaluated as one stack."""
    report = VerificationReport(suite="endomorphism-injectivity")
    if n < 0:
        raise PreconditionError("word depth must be nonnegative")
    if n > F.N - 1:
        raise PreconditionError("need n <= N - 1 for overflow-free words")
    words = [_diagonal(word(F, *stack_words(
        F, [random_word(F, rng, m) for _ in range(5)]), F.N),
        range(F.N + 1), 5) for m in range(n + 1)]
    C = [L.block(k + 1, k) for k in range(F.N)]
    r_in = complex_rank(np.concatenate([_rows(x) for x in words]))
    r_out = complex_rank(np.concatenate([
        _rows([c @ xk @ c.conj().T for c, xk in zip(C, x)]) for x in words]))
    report.add_bool("rank-preserved",
                    "x -> L x L* preserves the rank of balanced-word spans",
                    r_in == r_out, rank_in=r_in, rank_out=r_out)
    return report

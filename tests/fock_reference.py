"""The Fock-space checks and the bimodule validation as they were before
their samples were stacked: one sample, one level operator and one norm at a
time.  The loops are kept as they were, as the reference the stacked
evaluation is compared with; `make_bimodule` takes the flat norm, which
`ModuleVector` no longer has a method for, as np.linalg.norm of `flat`.

`_factorization` is the factorization check as it was before the shapes of
one tower were evaluated together, one shape per call with its own folds,
Gram tables and spectral norms, and `run_factorization` the suite's loop
over the shapes that called it."""

import warnings

import numpy as np

from fockmod.cstar import PreconditionError, StructureError, DEFAULT_TOL
from fockmod.fock import (FockSpace, LevelOp, _check_depth, _vacuum_tensor,
                          masked_norm, random_word, word)
from fockmod.hilbmod import HilbertBimodule, TensorStep, complex_rank
from fockmod.report import VerificationReport


def creation_relations_check(F: FockSpace, rng,
                             tol=DEFAULT_TOL) -> VerificationReport:
    """l(h)*l(g) = <h,g>(1 - E_N) and b1 l(h) b2 = l(b1 h b2).  Each
    difference shifts every level by the same amount (0 and +1), so its
    spectral norm is exactly the largest of its blocks'."""
    report = VerificationReport(suite="creation-relations")
    H = F.bimodule
    res_ls = res_bimod = 0.0
    for _ in range(5):
        h = H.random_vector(rng)
        g = H.random_vector(rng)
        b1 = F.base.random_element(rng)
        b2 = F.base.random_element(rng)
        lh = F.creation(h)
        # the factor (1 - E_N): no block on the top level
        rhs = F.left(H.inner(h, g)).restrict(F.N - 1)
        res_ls = max(res_ls, (lh.adjoint() @ F.creation(g) - rhs)
                     .spectral_norm() / max(1.0, h.norm() * g.norm()))
        lhs2 = F.left(b1) @ lh @ F.left(b2)
        rhs2 = F.creation(h.lmul(b1).rmul(b2))
        res_bimod = max(res_bimod, (lhs2 - rhs2).spectral_norm()
                        / max(1.0, b1.norm() * h.norm() * b2.norm()))
    report.add("creation-adjoint-relation", "l(h)* l(g) = <h,g> (1 - E_N)",
               res_ls, tol)
    report.add("creation-bimodularity", "b1 l(h) b2 = l(b1 h b2)",
               res_bimod, tol)
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
    res_idem = res_ephi = 0.0
    for _ in range(4):
        # every level block, off the diagonal too, so that Phi moves T
        T = F.random_placed(rng, [(i, j) for i in range(F.N + 1)
                                  for j in range(F.N + 1)])
        PT = F.gauge_expectation(T)
        res_idem = max(res_idem, (F.gauge_expectation(PT) - PT).norm()
                       / max(1.0, T.norm()))
        res_ephi = max(res_ephi,
                       (F.vacuum_expectation(T) - F.vacuum_expectation(PT)).norm()
                       / max(1.0, T.norm()))
    report.add("gauge-idempotent", "Phi . Phi = Phi", res_idem, 1e-12)
    report.add("vacuum-gauge-compatible", "E = E . Phi", res_ephi, 1e-12)
    if F.N >= 1:
        report.add("gauge-kills-creation", "Phi(l(h)) = 0",
                   F.gauge_expectation(lh).norm() / max(1.0, h.norm()), tol)
        lw = lh @ lg.adjoint()
        report.add("gauge-fixes-balanced", "Phi(l(h) l(g)*) = l(h) l(g)*",
                   (F.gauge_expectation(lw) - lw).norm()
                   / max(1.0, h.norm() * g.norm()), 1e-12)
    return report


def _word_scale(coeffs, hs):
    return max(1.0, np.prod([c.norm() for c in coeffs])
               * np.prod([h.norm() for h in hs]))


def ideal_structure_check(F: FockSpace, n, rng,
                          tol=DEFAULT_TOL) -> VerificationReport:
    """Generators of the n-th ideal of the balanced-word filtration:
    they kill levels below n, restrict to explicit finite-rank operators on
    level n, and absorb products of balanced words.  Everything is read off
    the words' level operators; residuals on levels below n are Frobenius
    norms, and the spectral norm of a block-diagonal operator is the largest
    of its blocks'."""
    _check_depth(F, n)
    report = VerificationReport(suite="ideal-structure")
    one = F.base.identity()
    res_kill = res_rank = res_prod = 0.0
    for _ in range(4):
        coeffs, hs = random_word(F, rng, n)
        x = word(F, coeffs, hs, n)
        scale = _word_scale(coeffs, hs)
        res_kill = max(res_kill, x.restrict(n - 1).norm() / scale)
        # explicit finite-rank form on level n: x w = u <v, w> with
        # u = b_0 l(h_1) ... l(h_n) b_n 1 and v = b_2n* l(h_2n) ... l(h_n+1) 1
        u = _vacuum_tensor(F, coeffs[:n + 1], hs[:n])
        v = _vacuum_tensor(F, [c.adjoint() for c in coeffs[:n:-1]] + [one],
                           hs[:n - 1:-1])
        rank_one = F._level_op(
            {(n, n): [uj @ vj.conj().T for uj, vj in zip(u.blocks, v.blocks)]})
        res_rank = max(res_rank, (x - rank_one).spectral_norm() / scale)
        # ideal property: (balanced word) . x still kills levels < n, where
        # only the word's blocks on levels k < n act; they give its scale too
        a = word(F, *random_word(F, rng, 1), n - 1)
        res_prod = max(res_prod, (a @ x.restrict(n - 1)).norm()
                       / (scale * max(1.0, a.spectral_norm())))
    report.add("ideal-kills-lower-levels",
               "x in I_n  =>  x|_{F_{n-1}} = 0", res_kill, tol, n=n)
    report.add("ideal-finite-rank-form",
               "x|_{level n} = u<v,.>", res_rank, tol, n=n)
    report.add("ideal-absorbs-products",
               "A_n . I_n subset I_n (vanishing on F_{n-1})", res_prod, tol, n=n)
    return report


def quotient_dimension_check(F: FockSpace, n, rng,
                             tol=DEFAULT_TOL) -> VerificationReport:
    """The quotient of the depth-n word span by the n-th ideal is realized by
    compression to levels below n, and agrees there with the depth-(n-1)
    span.  The compression of a word is the word on levels < n; levels n
    and above are never evaluated.  A compressed word is read as the
    entries of its dense level blocks: the off-diagonal level blocks are
    zero, so the ranks are those of the dense corners."""
    _check_depth(F, n)
    report = VerificationReport(suite="filtration-quotient")

    def compressed_span(depth):
        return [np.concatenate([x.block(k, k).ravel() for k in range(n)])
                for x in (word(F, *random_word(F, rng, m), n - 1)
                          for m in range(depth + 1) for _ in range(6))]

    res = 0.0
    for _ in range(6):
        coeffs, hs = random_word(F, rng, n)
        res = max(res, word(F, coeffs, hs, n - 1).spectral_norm()
                  / _word_scale(coeffs, hs))
    report.add("ideal-in-quotient-kernel",
               "I_n compresses to 0 on F_{n-1}", res, tol, n=n)
    r_n = complex_rank(compressed_span(n))
    r_lower = complex_rank(compressed_span(n - 1))
    report.add_bool("quotient-rank",
                    "A_n and A_{n-1} have equal rank compressed to F_{n-1}",
                    r_n == r_lower, rank_n=r_n, rank_lower=r_lower, n=n)
    return report


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
    res = 0.0
    diagonal = [(k, k) for k in range(F.N + 1)]
    for _ in range(3):
        x = F.random_placed(rng, diagonal)
        y = F.random_placed(rng, diagonal)
        lhs = Lp @ x @ y @ Lps
        rhs = (Lp @ x @ Lps) @ (Lp @ y @ Lps)
        # difference is L x E_N y L*: vanishes below the truncation rim
        res = max(res, masked_norm(lhs - rhs, F.N - 1)
                  / max(1.0, x.norm() * y.norm()))
    report.add("multiplicative-on-degree-zero",
               "Psi(xy) = Psi(x)Psi(y) on the overflow-free domain",
               res, 1e-7)
    return out, report


def endomorphism_injectivity_check(F: FockSpace, L: LevelOp, n,
                                   rng) -> VerificationReport:
    """Rank preservation of x -> L x L* on spans of balanced words, for a
    level operator L with blocks (k+1, k) only, such as a creation operator.

    A balanced word is block diagonal with blocks x_k, so L x L* is block
    diagonal with blocks C_k x_k C_k* on the levels k + 1 <= N, C_k the
    block (k+1, k) of L.  Both ranks are read off the stacked level blocks:
    no Fock-size word and no dense conjugation is formed."""
    report = VerificationReport(suite="endomorphism-injectivity")
    if n < 0:
        raise PreconditionError("word depth must be nonnegative")
    if n > F.N - 1:
        raise PreconditionError("need n <= N - 1 for overflow-free words")
    words = [[x.block(k, k) for k in range(F.N + 1)]
             for x in (word(F, *random_word(F, rng, m), F.N)
                       for m in range(n + 1) for _ in range(5))]
    C = [L.block(k + 1, k) for k in range(F.N)]
    r_in = complex_rank([np.concatenate([xk.ravel() for xk in x])
                         for x in words])
    r_out = complex_rank([np.concatenate([(c @ xk @ c.conj().T).ravel()
                                          for c, xk in zip(C, x)])
                          for x in words])
    report.add_bool("rank-preserved",
                    "x -> L x L* preserves the rank of balanced-word spans",
                    r_in == r_out, rank_in=r_in, rank_out=r_out)
    return report


def _flat_norm(x):
    return float(np.linalg.norm(x.flat))


def make_bimodule(base, right_mult, left_mult, left_unitaries=None,
                  rng=None) -> HilbertBimodule:
    """Validated construction; checks the bimodule laws on a seeded sample."""
    module = HilbertBimodule(base, right_mult, left_mult, left_unitaries)
    rng = rng if rng is not None else np.random.default_rng(0)
    for _ in range(3):
        b = base.random_element(rng)
        c = base.random_element(rng)
        x = module.random_vector(rng)
        y = module.random_vector(rng)
        scale = max(1.0, b.norm() * x.norm() * y.norm())
        res = (module.inner(x.lmul(b), y)
               - module.inner(x, y.lmul(b.adjoint()))).norm()
        if res > DEFAULT_TOL * scale:
            raise StructureError(f"<b.x, y> = <x, b*.y> fails: residual {res:.2e}")
        res = _flat_norm(x.lmul(b * c) - x.lmul(c).lmul(b))
        if res > DEFAULT_TOL * max(1.0, b.norm() * c.norm() * _flat_norm(x)):
            raise StructureError("left action is not multiplicative")
        gram = module.inner(x, x)
        if not gram.is_positive():
            raise StructureError("<x,x> is not positive")
    dead = module.annihilated_central_summands()
    if dead:
        warnings.warn(f"left action annihilates a central summand {dead}",
                      stacklevel=2)
    return module


def _factorization(tower: FockSpace, powers: FockSpace, n, k, j, rng,
                   tol) -> VerificationReport:
    """`fock_factorization_check` of the shape (n, k, j) on the tower of M,
    up to a level of at least max(k(n+1)+j, n+1), and the tower of its level
    n+1, up to a level of at least k.  Tensor steps are deterministic, so
    one tower of each serves every shape that fits in it."""
    m = k * (n + 1) + j
    M = tower.bimodule
    report = VerificationReport(suite="fock-factorization",
                                parameters={"n": n, "k": k, "j": j})
    levels, maps = tower.levels, tower.maps

    def fold(X):
        """Rows h_1 (x) ... (x) h_p of the stacked vectors X[:, i]."""
        v = X[:, -1]
        for i in range(X.shape[1] - 1):
            v = maps[i + 1].tensor(X[:, -2 - i], v)
        return v

    left_mod = levels[m]
    # right side: levels[j] (x) ( levels[n+1] )^{(x) k}
    if k == 0:
        right_mod = levels[j]
    elif j == 0:
        right_mod = powers.levels[k]
    else:
        cross_step = TensorStep(levels[j], powers.levels[k])
        right_mod = cross_step.module

    def embed_right(X):
        if k == 0:
            return fold(X[:, :j])
        ys = [fold(X[:, j + i * (n + 1): j + (i + 1) * (n + 1)])
              for i in range(k)]
        y = ys[-1]
        for i in range(k - 2, -1, -1):
            y = powers.maps[k - 1 - i].tensor(ys[i], y)
        if j == 0:
            return y
        return cross_step.tensor(fold(X[:, :j]), y)

    report.add_bool("dimension-equality",
                    "dim of the regrouped power equals dim of the plain power",
                    left_mod.dim == right_mod.dim,
                    left=left_mod.dim, right=right_mod.dim)
    samples = left_mod.dim + 8
    # the draws of M.random_vector, sample by sample and factor by factor
    Z = rng.standard_normal((samples, m, 2, M.dim))
    X = Z[:, :, 0] + 1j * Z[:, :, 1]
    lefts, rights = fold(X), embed_right(X)
    pairs = min(samples, 25)
    s, t = np.triu_indices(pairs)

    def gram_pairs(mod, V, b, n_b):
        """Block b of <v_s, v_t> for the pairs s <= t of the first rows."""
        C = V[:pairs, mod.offsets[b]:mod.offsets[b + 1]].reshape(
            pairs, mod.right_mult[b], n_b)
        return C.conj().transpose(0, 2, 1)[s] @ C[t]

    diff = np.zeros(len(s))
    sq_norms = np.zeros(pairs)
    for b, n_b in enumerate(M.base.block_sizes):
        gl = gram_pairs(left_mod, lefts, b, n_b)
        diff = np.maximum(diff, np.linalg.norm(
            gl - gram_pairs(right_mod, rights, b, n_b), 2, axis=(1, 2)))
        sq_norms = np.maximum(sq_norms, np.linalg.norm(gl[s == t], 2,
                                                       axis=(1, 2)))
    norms = np.sqrt(sq_norms)
    res = float(np.max(diff / np.maximum(1.0, norms[s] * norms[t])))
    report.add("gram-equality",
               "regrouping preserves the B-valued inner product", res, tol)
    rank_l = complex_rank(lefts)
    report.add_bool("span-coverage",
                    "sampled simple tensors span the regrouped power",
                    rank_l == left_mod.dim, rank=rank_l, dim=left_mod.dim)
    return report


def run_factorization(st, bimodules):
    """The suite's reports, one `_factorization` call per shape, on the
    towers the suite shares between the shapes of a module."""
    rng = st.rng()
    L = st.max_word_length
    shapes = [(n, k, j) for n in range(L) for k in range(L)
              for j in range(n + 1) if 0 < k * (n + 1) + j <= L]
    if not shapes:
        return []
    reports = []
    for H, _ in bimodules[:2]:
        tower = FockSpace(H, L, dim_cap=st.dim_cap)
        powers = {}
        for n, k, j in shapes:
            if n not in powers:
                k_top = max(kk for nn, kk, _ in shapes if nn == n)
                powers[n] = FockSpace(tower.levels[n + 1], k_top,
                                      dim_cap=st.dim_cap)
            reports.append(_factorization(tower, powers[n], n, k, j, rng,
                                          tol=st.tol))
    return reports

"""Inner-product-twisting linear maps on bimodules, their second-quantized
extensions on the truncated Fock space, growth subspaces K_p, the
compression Q x Q onto their Fock towers, and the rank-growth report."""

from math import prod

import numpy as np

from .cstar import (AlgebraAutomorphism, LinearMap, PreconditionError,
                    StructureError, DEFAULT_TOL)
from .hilbmod import (AugmentedModule, HilbertBimodule, ModuleVector,
                      SubmoduleSpan, _orthonormal_pieces, complex_rank,
                      projection_components)
from .fock import FockSpace, LevelOp, word
from .report import VerificationReport


class BogoliubovMap(LinearMap):
    """A complex-linear map U on a bimodule (`domain`) together with the base
    automorphism beta it twists by:

        <U h1, U h2> = beta(<h1, h2>),   U(b1 h b2) = beta(b1) U(h) beta(b2).
    """

    def __init__(self, module: HilbertBimodule, matrix,
                 beta: AlgebraAutomorphism):
        super().__init__(module, module, matrix)
        if beta.algebra != module.base:
            raise StructureError("automorphism of a different base algebra")
        self.beta = beta

    def power(self, k):
        return np.linalg.matrix_power(self.matrix, k)


def validate_bogoliubov(bog: BogoliubovMap, rng,
                        tol=DEFAULT_TOL) -> VerificationReport:
    """Both defining equations, on a vector basis and on random algebra
    coefficients, each over the stacked basis vectors at once: the inner
    products of all pairs i <= j in one Gram product per block, and the
    four coefficient pairs, drawn one at a time, as one stack against every
    basis vector.  A violation is an error in the map, not a warning."""
    H, beta = bog.domain, bog.beta
    report = VerificationReport(suite="twisted-linear-map")
    basis = H.from_flat(np.eye(H.dim))
    images = bog(basis)
    i, j = np.triu_indices(H.dim)
    lhs = H.inner(images[i], images[j])
    rhs = beta(H.inner(basis[i], basis[j]))
    report.add("inner-twist", "<U h1, U h2> = beta(<h1, h2>)",
               float(np.max((lhs - rhs).norm())), tol)
    b1, b2 = zip(*[(H.base.random_element(rng), H.base.random_element(rng))
                   for _ in range(4)])
    b1, b2 = H.base.stack(b1), H.base.stack(b2)
    scale = np.maximum(1.0, b1.norm()) * np.maximum(1.0, b2.norm())
    # axes (coefficient pair, basis vector)
    lhs = bog(basis.lmul(b1[:, None]).rmul(b2[:, None]))
    rhs = images.lmul(beta(b1)[:, None]).rmul(beta(b2)[:, None])
    res_act = np.max((lhs - rhs).norm(), 1) / scale
    report.add("bimodule-twist", "U(b1 h b2) = beta(b1) U(h) beta(b2)",
               float(np.max(res_act)), tol)
    return report


def augmented_bogoliubov(aug: AugmentedModule, bog: BogoliubovMap):
    """Extension to H + B acting as U on H and as beta on the unit summand;
    it fixes the distinguished vector xi."""
    if bog.domain is not aug.plain:
        raise StructureError("map lives on a different bimodule")
    EH, EB = aug.embed_module, aug.embed_base
    beta_vac = bog.beta.as_linear_map().matrix
    Ut = EH @ bog.matrix @ EH.conj().T + EB @ beta_vac @ EB.conj().T
    return BogoliubovMap(aug.module, Ut, bog.beta)


def _slots(key, size, *values):
    """Entries grouped by their key 0..size-1: for each of the values, an
    array of shape (size, w), w the most entries of one key, whose row q
    holds the entries of key q in their order, then zeros."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    counts = np.bincount(key, minlength=size)
    slot = np.arange(key.size) - np.repeat(np.cumsum(counts) - counts, counts)
    out = []
    for x in values:
        y = np.zeros((size, counts.max(initial=0)), x.dtype)
        y[key, slot] = x[order]
        out.append(y)
    return out


def fock_extension(F: FockSpace, bog: BogoliubovMap, xi: ModuleVector = None,
                   tol=DEFAULT_TOL):
    """Levelwise second quantization beta + U + (U x U) + ... on the
    truncation, obtained by solving the simple-tensor recursion

        F_{k+1}(h (x) y) = (U h) (x) F_k(y).

    With S_k the tensor-step matrix of level k and F_1 = U, each level
    k >= 1 is the least-squares solution of F_{k+1} S_k = Sp_k, with
    Sp_k = S_k (U (x) F_k).  The rows of S_k are orthogonal: S_k S_k* = E_k
    is diagonal (`TensorStep.nonzeros`).  So the solution is
    F_{k+1} = Sp_k S_k* E_k^-1, and no least-squares solve is made.
    Verifies the level solves by the defects D_k = F_{k+1} S_k - Sp_k,
    k >= 1, and the intertwining F(U) l(h) = l(U h) F(U) on basis vectors
    e_i, whose only nonzero blocks are the D_k[:, i, :].

    S_k is never formed, only its nonzero entries (m, i, l, v), a few per
    row:

        Sp_k[m, i, :] = sum_{e in row m} v_e U[i_e, i] F_k[l_e, :]
        F_{k+1}[:, m] = sum_{e in row m} conj(v_e) Sp_k[:, i_e, l_e] / E_m
        D_k[:, i, :]  = F_{k+1} S_k[:, i, :] - Sp_k[:, i, :],

    E_m = sum_{e in row m} |v_e|^2.  F_{k+1} gathers the columns of Sp_k it
    reads straight from U and F_k.  Sp_k[:, i, :] and D_k[:, i, :] are
    formed one basis index i of H at a time and never held whole: the
    norms of D_k and Sp_k, and each i's sum over k of ||D_k[:, i, :]||^2,
    are sums of squares accumulated along the way.  If the distinguished
    unit vector xi of an augmented bimodule is supplied, additionally
    verifies U xi = xi and that F(U) commutes with l(xi).

    F(U) is twisted by beta, so it is not right B-linear: it is returned as
    the level maps on one component of size 1 (`FockSpace.diagonal`).

    Returns (LevelOp, VerificationReport)."""
    if bog.domain is not F.bimodule:
        raise StructureError("map lives on a different bimodule")
    H, U = F.bimodule, bog.matrix
    report = VerificationReport(suite="second-quantization",
                                parameters={"N": F.N})
    level_maps = [bog.beta.as_linear_map().matrix]
    res_solve = 0.0
    defect_sq = np.zeros(H.dim)     # entry i: sum_k ||D_k[:, i, :]||^2
    for k, step in enumerate(F.maps):
        dT, dK = step.module.dim, step.K.dim
        m, i, l, v = step.nonzeros()
        # the entries of each row m side by side, and of each column (i, l)
        row_i, row_l, row_v = _slots(m, dT, i, l, v)
        col_m, col_v = (x.reshape(H.dim, dK, -1)
                        for x in _slots(i * dK + l, H.dim * dK, m, v))
        Fl = [level_maps[k][row_l[:, a]] for a in range(row_l.shape[1])]
        if k == 0:
            Fk1 = U
        else:
            Fk1 = np.zeros((dT, dT), complex)
            for b in range(row_i.shape[1]):
                # conj(v_e) Sp_k[:, i_e, l_e] for the entry e in slot b of
                # every row, term by term of Sp_k's sum over rows; in place,
                # so one dT x dT term is held beside F_{k+1}
                for a, Fa in enumerate(Fl):
                    X = U[np.ix_(row_i[:, a], row_i[:, b])]
                    X *= Fa[:, row_l[:, b]]
                    X *= row_v[:, a, None]
                    X *= row_v[:, b].conj()
                    Fk1 += X
            Fk1 /= np.einsum("ma,ma->m", row_v, row_v.conj()).real
        d_sq = sp_sq = 0.0
        for s in range(H.dim):
            W = row_v * U[row_i, s]
            Sp = np.zeros((dT, dK), complex)
            for a, Fa in enumerate(Fl):
                Sp += W[:, a, None] * Fa
            D = -Sp
            for b in range(col_m.shape[2]):
                D += Fk1[:, col_m[s, :, b]] * col_v[s, :, b]
            d_i = np.vdot(D, D).real
            defect_sq[s] += d_i
            d_sq += d_i
            sp_sq += np.vdot(Sp, Sp).real
        if k >= 1:
            res_solve = max(res_solve, float(np.sqrt(d_sq))
                            / max(1.0, float(np.sqrt(sp_sq))))
        level_maps.append(Fk1)
    report.add("tensor-consistency",
               "F_{k+1}(h (x) y) = (U h) (x) F_k(y)", res_solve, tol)
    M = F.diagonal(level_maps)
    report.add("creation-intertwining", "F(U) l(h) = l(U h) F(U)",
               float(np.sqrt(defect_sq.max(initial=0.0))), tol)
    if xi is not None:
        report.add("fixed-unit-vector", "U xi = xi",
                   (bog(xi) - xi).norm(), tol)
        L = F.creation(xi).placed()
        report.add("fixed-creation", "F(U) l(xi) = l(xi) F(U)",
                   (M @ L - L @ M).norm(), tol)
    return M, report


def kp_subspace(bog: BogoliubovMap, K: SubmoduleSpan, p, tol=DEFAULT_TOL):
    """The growth chain K_q = K + U(K) + ... + U^{q-1}(K), q = 1..p, as
    spans with their projections.

    Returns ([K_1, ..., K_p], VerificationReport) verifying for K_p the
    dimension inequality dim_C(K_p) <= p dim_C(K) and that K_p is closed
    under both algebra actions."""
    if p < 1:
        raise PreconditionError("power count must be at least 1")
    if K.parent is not bog.domain:
        raise StructureError("span lives on a different bimodule")
    if not K.basis:
        raise PreconditionError("growth subspace K is zero")
    H = bog.domain
    gens = []
    for i in range(p):
        Ui = bog.power(i)
        gens.extend(H.from_flat(Ui @ g.flat) for g in K.generators)
    r = len(K.generators)
    # each K_q is spanned by a prefix of gens, so one orthogonalization of
    # all of them serves the chain: K_q's basis comes from inputs below q r
    V, inputs = _orthonormal_pieces(H, [g.flat for g in gens])
    basis = [H.from_flat(v) for v in V]
    spans = [SubmoduleSpan(H, gens[:q * r],
                           basis[:np.searchsorted(inputs, q * r)])
             for q in range(1, p + 1)]
    span = spans[-1]
    report = VerificationReport(suite="growth-subspace",
                                parameters={"p": p})
    report.add_bool("dimension-inequality", "dim_C(K_p) <= p dim_C(K)",
                    span.complex_dim <= p * K.complex_dim,
                    dim=span.complex_dim, cap=p * K.complex_dim)
    Q = span.projection
    one = np.eye(H.dim)
    res_left = res_right = 0.0
    for b in H.base.basis():
        res_left = max(res_left, float(np.linalg.norm(
            (one - Q) @ H.left_matrix(b) @ Q)))
        res_right = max(res_right, float(np.linalg.norm(
            (one - Q) @ H.right_matrix(b) @ Q)))
    report.add("left-closure", "b . K_p inside K_p", res_left, tol)
    report.add("right-closure", "K_p . b inside K_p", res_right, tol)
    return spans, report


def _fock_level_spans(F: FockSpace, n, span: SubmoduleSpan):
    """The Fock tower of a growth subspace: per-level orthogonal bases of
    B + K_p + K_p (x) K_p + ... inside the levels of F, for levels 0..n.
    Level 0 is all of B."""
    if span.parent is not F.bimodule:
        raise StructureError("span lives outside the Fock bimodule")
    if n > F.N:
        raise PreconditionError("tower level exceeds the truncation")
    level_bases = [F.levels[0].basis()]
    G = V = np.array([v.flat for v in span.basis]).reshape(
        -1, F.bimodule.dim)
    for k, level in enumerate(F.levels[1:n + 1]):
        if k:
            # every g (x) v, g outer and v inner, in one broadcast call
            V = F.maps[k].tensor(G[:, None], V[None]).reshape(-1, level.dim)
        V, _ = _orthonormal_pieces(level, V)
        level_bases.append([level.from_flat(v) for v in V])
    return level_bases


def _tower_projection(F: FockSpace, level_bases):
    """The projection Q onto the tower, over the base's components: the
    identity on level 0, which the tower always contains whole, and the
    components of the projection onto each basis above it."""
    blocks = {(0, 0): [np.eye(r, dtype=complex) for r in F.level_mult[0]]}
    for k, basis in enumerate(level_bases[1:], start=1):
        blocks[k, k] = projection_components(F.levels[k], basis)
    return LevelOp(F.level_mult, F.base.block_sizes, blocks)


def _random_flat(basis, rng):
    """A random complex combination of the flat vectors of a basis."""
    coeffs = rng.standard_normal(len(basis)) \
        + 1j * rng.standard_normal(len(basis))
    return sum(c * v.flat for c, v in zip(coeffs, basis))


def compression_channels(F: FockSpace, span: SubmoduleSpan, level_bases, rng,
                         tol=DEFAULT_TOL):
    """Verifies the compression x -> Q x Q onto the Fock tower
    level_bases = `_fock_level_spans(F, n, span)` of a growth subspace:

      - the tower projection is an adjointable projection commuting with the
        left algebra action,
      - compressed annihilation does not leak: Q l(h)* (P_n - Q) = 0 for h
        in the subspace, with P_n the projection onto levels <= n,
      - reconstruction on vectors: Q x Q v = x v for sampled words x over
        the subspace and vectors v in the tower up to level n-1.

    Q lies under P_n, so Q x Q cuts x down both to the levels <= n and to
    the tower.  Q is right B-linear, so it and every operator it meets are
    level operators over the base's components.
    Returns (Q, VerificationReport), Q a LevelOp."""
    n = len(level_bases) - 1
    if n < 1:
        raise PreconditionError("compression level must be at least 1")
    Q = _tower_projection(F, level_bases)
    # kron(T_j, I_{n_j}) has trace n_j tr(T_j)
    tower_dim = int(round(sum(n_j * np.trace(t).real
                              for X in Q.blocks.values()
                              for t, n_j in zip(X, Q.sizes))))
    report = VerificationReport(suite="compression-channels",
                                parameters={"n": n, "tower_dim": tower_dim})
    report.add("projection-idempotent", "Q^2 = Q", (Q @ Q - Q).norm(), tol)
    report.add("projection-selfadjoint", "Q = Q*",
               (Q - Q.adjoint()).norm(), tol)
    res_comm = 0.0
    for b in F.base.basis():
        lb = F.left(b)
        res_comm = max(res_comm, (Q @ lb - lb @ Q).norm())
    report.add("left-action-commutes", "Q (b . ) = (b . ) Q", res_comm, tol)
    res_leak = 0.0
    # (1 - Q) P_n = P_n - Q: the complement on inputs from levels <= n
    complement = (F.identity() - Q).restrict(n)
    for h in span.basis:
        ann = F.creation(h).adjoint()
        res_leak = max(res_leak, (Q @ ann @ complement).norm())
    report.add("no-annihilation-leak", "Q l(h)* (1 - Q) = 0 for h in K_p",
               res_leak, tol)
    one = F.base.identity()
    res_rec = 0.0
    for _ in range(4):
        m = int(rng.integers(1, n + 1))
        # l(h_1) ... l(h_m) l(h_{m+1})* ... l(h_{2m})*, every h a random
        # combination over the span basis
        hs = [span.parent.from_flat(_random_flat(span.basis, rng))
              for _ in range(2 * m)]
        scale = prod(max(1.0, h.norm()) for h in hs)
        x = word(F, [one] * (2 * m + 1), hs, n - 1)
        d = Q @ x @ Q - x
        for (k, _), D in d.blocks.items():
            for v in level_bases[k]:
                res_rec = max(res_rec, float(np.linalg.norm(
                    [np.linalg.norm(Dj @ vj) for Dj, vj in zip(D, v.blocks)]))
                    / scale)
    report.add("vector-reconstruction",
               "Q P_n x P_n Q v = x v on the tower below level n",
               res_rec, tol)
    return Q, report


def localized_tensor_dim(module: HilbertBimodule, vectors):
    """dim of (span of the vectors) (x)_B V with V the defining
    representation: per central block, the rank of the stacked component
    columns, summed over blocks."""
    total = 0
    for j in range(len(module.base.block_sizes)):
        cols = [v.blocks[j] for v in vectors if v.blocks[j].size]
        if cols:
            total += complex_rank(np.hstack(cols).T)
    return total


def entropy_bound_report(F: FockSpace, bog: BogoliubovMap, spans, towers,
                         levels, rng, tol=DEFAULT_TOL):
    """One report per tower level n in levels, for the growth chain
    spans = [K_1, ..., K_{p_max}] and their Fock towers (`_fock_level_spans`,
    up to every level in levels): measures the dimension of the Fock tower
    of each K_p up to level n tensored with the defining representation,
    and compares it with the coarse bound n p^n dim(V) dim_C(K)^n; checks
    that vectors of conjugated sample words stay inside K_p.  The
    log(dim)/p ratio column must not increase past its peak; whether the
    growth subspace saturates is noted, not asserted."""
    if any(n >= len(tower) for n in levels for tower in towers):
        raise PreconditionError("tower level exceeds the towers")
    K = spans[0]
    dimV = sum(F.base.block_sizes)
    local_dims = [[localized_tensor_dim(F.levels[k], basis)
                   for k, basis in enumerate(tower)] for tower in towers]
    outsides = [np.eye(F.bimodule.dim) - span.projection for span in spans]
    powers = [bog.power(j) for j in range(len(spans))]
    reports = []
    for n in levels:
        sample_flats = [_random_flat(K.basis, rng) for _ in range(3)]
        rows = []       # (p, dim K_p, measured, bound, ratio)
        containment = 0.0
        for p, (span, dims, outside) in enumerate(
                zip(spans, local_dims, outsides), start=1):
            # level 0 alone gives measured >= sum of the block sizes >= 1
            measured = sum(dims[:n + 1])
            bound = n * p ** n * dimV * K.complex_dim ** n
            ratio = np.log(measured) / p
            rows.append((p, span.complex_dim, measured, bound, ratio))
            for Uj in powers[:p]:
                for flat in sample_flats:
                    v = Uj @ flat
                    containment = max(containment,
                                      float(np.linalg.norm(outside @ v))
                                      / max(1.0, float(np.linalg.norm(v))))
        ratios = [r for (*_, r) in rows]
        tail = ratios[int(np.argmax(ratios)):]
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
                        note=("saturating growth subspace"
                              if rows[-1][1] < len(spans) * K.complex_dim else
                              "growth subspace still expanding at p_max"))
        reports.append(report)
    return reports

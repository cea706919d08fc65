"""Reduced crossed products of a finite-dimensional C*-algebra by a finite
group, realized on l2(G) tensor the defining representation space, with
lifted automorphisms and the averaging channel over near-invariant subsets.
"""

from __future__ import annotations

import itertools

import numpy as np

from .cstar import (AlgebraAutomorphism, AlgebraElement, CPLinearMap,
                    CStarAlgebra, PreconditionError, StructureError,
                    automorphism_distances, identity_automorphism,
                    uniform_trace_state, DEFAULT_TOL)
from .fock import LevelOp
from .report import VerificationReport


class FiniteGroup:
    """Multiplication table with a designated identity; rows and columns are
    indexed by element number, table[g, h] = g*h."""

    def __init__(self, table, identity=0):
        table = np.asarray(table, dtype=int)
        n = table.shape[0]
        if table.shape != (n, n):
            raise StructureError("multiplication table must be square")
        if table.min() < 0 or table.max() >= n:
            raise StructureError("table entries out of range")
        e = int(identity)
        if any(table[e, g] != g or table[g, e] != g for g in range(n)):
            raise StructureError("designated identity is not an identity")
        inv = np.full(n, -1)
        for g in range(n):
            hits = np.flatnonzero(table[g] == e)
            if hits.size != 1 or table[hits[0], g] != e:
                raise StructureError(f"element {g} has no two-sided inverse")
            inv[g] = hits[0]
        for g in range(n):
            for h in range(n):
                if not np.array_equal(table[table[g, h]], table[g][table[h]]):
                    raise StructureError("table is not associative")
        self.table = table
        self.identity = e
        self.inverse = inv
        self.order = n

    def mul(self, g, h):
        return int(self.table[g, h])

    def inv(self, g):
        return int(self.inverse[g])

    def elements(self):
        return range(self.order)

    def members(self, labels):
        """The distinct elements among labels, sorted; PreconditionError on
        no label or on one outside range(order)."""
        if not len(labels) or any(t not in range(self.order) for t in labels):
            raise PreconditionError(f"{list(labels)} is not a nonempty set of "
                                    f"elements of a group of order {self.order}")
        return sorted({int(t) for t in labels})

    @staticmethod
    def cyclic(n):
        table = [[(g + h) % n for h in range(n)] for g in range(n)]
        return FiniteGroup(table)

    @staticmethod
    def symmetric(n):
        perms = list(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        table = [[index[tuple(p[q[i]] for i in range(n))] for q in perms]
                 for p in perms]
        return FiniteGroup(table, identity=index[tuple(range(n))])


class GroupAction:
    """Action of a finite group on a block algebra by automorphisms."""

    def __init__(self, group: FiniteGroup, algebra: CStarAlgebra, autos):
        if len(autos) != group.order:
            raise StructureError("need one automorphism per group element")
        self.group = group
        self.algebra = algebra
        self.autos = list(autos)
        if any(a.algebra != algebra for a in self.autos):
            raise StructureError("automorphisms of different algebras")
        e = group.identity
        if self.autos[e].distance_to(
                identity_automorphism(algebra)) > DEFAULT_TOL:
            raise StructureError("identity element must act as the identity")
        # _sources[j, g] and _unitaries[j][g]: block j of alpha_g
        self._sources = np.array([a.source for a in self.autos]).T
        self._unitaries = [np.stack([a.unitaries[j] for a in self.autos])
                           for j in range(len(algebra.block_sizes))]
        self._adjoints = [u.conj().transpose(0, 2, 1) for u in self._unitaries]
        # alpha_g . alpha_h against alpha_{gh} for every pair (g, h) at once:
        # block j of the composite comes from block src_h(src_g(j)) through
        # u^g_j u^h_{src_g(j)}
        S, gh = self._sources, group.table
        comp = [u[:, None] @ np.stack([self._unitaries[s] for s in src])
                for u, src in zip(self._unitaries, S)]
        dist = automorphism_distances(S[S], comp, S[:, gh],
                                      [u[gh] for u in self._unitaries])
        bad = np.argwhere(dist > DEFAULT_TOL)
        if bad.size:
            g, h = bad[0]
            raise StructureError(
                "action is not a homomorphism: "
                f"alpha_{g} . alpha_{h} != alpha_{group.mul(g, h)}")

    def orbit(self, a: AlgebraElement):
        """alpha_g(a) for every g, one batched product per stacked block:
        entry j holds over g the block u a_s u* of alpha_g(a), behind the
        sample axes of a stacked a."""
        if a.parent != self.algebra:
            raise StructureError("element belongs to a different algebra")
        return [u @ np.stack([a.blocks[s] for s in src], axis=-3) @ uh
                for u, uh, src in zip(self._unitaries, self._adjoints,
                                      self._sources)]

    def apply_each(self, labels, a: AlgebraElement) -> AlgebraElement:
        """alpha_g(a) sample by sample, g = labels[s] for sample s of a
        stacked a, with one batched product per block."""
        if a.parent != self.algebra:
            raise StructureError("element belongs to a different algebra")
        if len(labels):
            self.group.members(labels)
        labels = np.asarray(labels, dtype=int)
        rows = np.arange(len(labels)), labels
        return self.algebra.element([
            u[labels] @ np.stack([a.blocks[s] for s in src], axis=-3)[rows]
            @ uh[labels]
            for u, uh, src in zip(self._unitaries, self._adjoints,
                                  self._sources)])

    def commutation_defects(self, beta: AlgebraAutomorphism):
        """distance(beta . alpha_g, alpha_g . beta) for every g at once."""
        if beta.algebra != self.algebra:
            raise StructureError("automorphisms of different algebras")
        S, bs = self._sources, np.array(beta.source)
        return automorphism_distances(
            S[bs], [u @ self._unitaries[s]
                    for u, s in zip(beta.unitaries, bs)],
            bs[S], [u @ np.stack([beta.unitaries[s] for s in src])
                    for u, src in zip(self._unitaries, S)])


def rep_unitary(beta: AlgebraAutomorphism):
    """Unitary on V with V sigma(a) V* = sigma(beta(a))."""
    sizes = beta.algebra.block_sizes
    offs = np.cumsum([0] + list(sizes))
    dimV = offs[-1]
    V = np.zeros((dimV, dimV), complex)
    for j, src in enumerate(beta.source):
        V[offs[j]:offs[j + 1], offs[src]:offs[src + 1]] = beta.unitaries[j]
    return V


class CrossedProduct:
    """pi and lambda on l2(G) tensor V as level operators labelled by the
    group elements, over one component of size 1:
    (pi(a) xi)(h) = sigma(alpha_{h^-1}(a)) xi(h), the diagonal blocks (h, h),
    and (lambda_g xi)(h) = xi(g^-1 h), the identity blocks (h, g^-1 h)."""

    def __init__(self, action: GroupAction):
        self.action = action
        self.group = action.group
        self.algebra = action.algebra
        self.dimV = sum(self.algebra.block_sizes)
        offs = np.cumsum((0,) + self.algebra.block_sizes)
        self._slices = [slice(o, p) for o, p in zip(offs, offs[1:])]
        self._zero = LevelOp([(self.dimV,)] * self.group.order, (1,), {})
        self._eye = np.eye(self.dimV, dtype=complex)

    def diagonal(self, blocks):
        """The operator with blocks[h] on the copy of V at h."""
        return self._zero._new({(h, h): [X] for h, X in enumerate(blocks)})

    def pi(self, a: AlgebraElement):
        """sigma(alpha_{h^-1}(a)) at h, from one batched orbit of a; for a
        stacked a, blocks with its sample axes."""
        lead = a.blocks[0].shape[:-2]
        sigma = np.zeros((self.group.order,) + lead + (self.dimV,) * 2,
                         complex)
        for s, X in zip(self._slices, self.action.orbit(a)):
            sigma[..., s, s] = X.swapaxes(0, -3)[self.group.inverse]
        return self.diagonal(sigma)

    def lam(self, g):
        G = self.group
        G.members([g])
        return self._zero._new({(h, G.mul(G.inv(g), h)): [self._eye]
                                for h in G.elements()})

    def spanning_words(self, rng):
        """Two (a, g) pairs per group element g, a random."""
        out = []
        for g in self.group.elements():
            for _ in range(2):
                out.append((self.algebra.random_element(rng), g))
        return out


def _by_element(labels):
    """(g, the positions of g in labels) for each g, in order of first
    appearance."""
    labels = list(labels)
    return [(g, np.flatnonzero(np.equal(labels, g)))
            for g in dict.fromkeys(labels)]


def crossed_product(algebra: CStarAlgebra, action: GroupAction, rng,
                    tol=DEFAULT_TOL):
    """Builds the crossed product and verifies covariance and unitarity.
    The samples are drawn first, a then b, three per group element; each
    identity is then evaluated over all of them at once, the covariance of
    each g over its own.

    Returns (CrossedProduct, VerificationReport)."""
    if algebra is not action.algebra:
        raise PreconditionError("action is defined on a different algebra")
    C = CrossedProduct(action)
    report = VerificationReport(suite="crossed-product")
    G = action.group
    res_unit = res_rep = 0.0
    for g in G.elements():
        L = C.lam(g)
        res_unit = max(res_unit,
                       (L @ L.adjoint() - C.lam(G.identity)).norm())
        for h in G.elements():
            res_rep = max(res_rep,
                          (L @ C.lam(h) - C.lam(G.mul(g, h))).norm())
    report.add("lambda-unitary", "lambda_g lambda_g* = 1", res_unit, tol)
    report.add("lambda-representation", "lambda_g lambda_h = lambda_{gh}",
               res_rep, tol)
    gs, draws = [], []
    for g in G.elements():
        for _ in range(3):
            gs.append(g)
            draws += [algebra.random_element(rng), algebra.random_element(rng)]
    a, b = algebra.stack(draws[::2]), algebra.stack(draws[1::2])
    pa, na = C.pi(a), a.norm()
    pga = C.pi(action.apply_each(gs, a))
    res_cov = 0.0
    for g, i in _by_element(gs):
        L = C.lam(g)
        res_cov = max(res_cov, float(np.max(
            (L @ pa[i] @ L.adjoint() - pga[i]).spectral_norm()
            / np.maximum(1.0, na[i]))))
    res_hom = float(np.max((pa @ C.pi(b) - C.pi(a * b)).spectral_norm()
                           / np.maximum(1.0, na * b.norm())))
    report.add("covariance", "lambda_g pi(a) lambda_g* = pi(alpha_g(a))",
               res_cov, tol)
    report.add("pi-homomorphism", "pi(a) pi(b) = pi(ab)", res_hom, tol)
    return C, report


def lift_automorphism(C: CrossedProduct, beta: AlgebraAutomorphism, rng,
                      tol=DEFAULT_TOL):
    """Lifts a beta commuting with the action to the crossed product via
    conjugation by 1 tensor V_beta, the blocks (h, h) = V_beta.  The words
    pi(a) lambda_g of each g are evaluated at once, and a product xy is
    taken over the two words of one g.

    Returns (the level operator V implementing the lift, report)."""
    G = C.group
    bad = np.flatnonzero(C.action.commutation_defects(beta) > tol)
    if bad.size:
        raise PreconditionError(
            f"beta does not commute with the action at group element {bad[0]}")
    V = C.diagonal([rep_unitary(beta)] * G.order)
    report = VerificationReport(suite="lifted-automorphism")
    res_word = res_mult = res_adj = 0.0

    def hat(M):
        return V @ M @ V.adjoint()

    words = C.spanning_words(rng)
    a = C.algebra.stack([w for w, _ in words])
    pa, pb, norms = C.pi(a), C.pi(beta(a)), a.norm()
    even, odd = slice(0, None, 2), slice(1, None, 2)
    for g, i in _by_element([g for _, g in words]):
        L = C.lam(g)
        xs = pa[i] @ L
        hxs = hat(xs)
        res_word = max(res_word, float(np.max(
            (hxs - pb[i] @ L).spectral_norm() / np.maximum(1.0, norms[i]))))
        # the words in pairs (x, y): even and odd positions among g's words
        x, y, hx, hy = xs[even], xs[odd], hxs[even], hxs[odd]
        na, nb = norms[i[even]], norms[i[odd]]
        res_mult = max(res_mult, float(np.max(
            (hat(x @ y) - hx @ hy).spectral_norm()
            / np.maximum(1.0, na * nb))))
        res_adj = max(res_adj, float(np.max(
            (hat(x.adjoint()) - hx.adjoint()).spectral_norm()
            / np.maximum(1.0, na))))
    report.add("lift-on-words", "betahat(pi(a) lambda_g) = pi(beta(a)) lambda_g",
               res_word, tol)
    report.add("lift-multiplicative", "betahat(xy) = betahat(x) betahat(y)",
               res_mult, tol)
    report.add("lift-star", "betahat(x*) = betahat(x)*", res_adj, tol)
    return V, report


def folner_defect(G: FiniteGroup, F):
    """max_g (|F| - |F meet gF|) / |F|, F a nonempty set of elements."""
    F = G.members(F)
    return max((len(F) - len({G.mul(g, t) for t in F}.intersection(F)))
               / len(F) for g in G.elements())


def folner_average(C: CrossedProduct, F, m: CPLinearMap, rng,
                   tol=1e-12, words=None) -> VerificationReport:
    """Averaging channel pi(a) lambda_g -> (1/|F|) sum over t in F meet gF of
    pi(alpha_t(m(alpha_{t^-1}(a)))) lambda_g, formed as pi of the averaged
    algebra element, since pi is linear.  The terms of all words are
    evaluated at once, stacked word by word in increasing t, and the
    channel of the words of each g at once.

    With m the identity and F the whole group the channel is the identity on
    spanning words; in general the deviation is bounded by eta (norm(a) + 1)
    where eta dominates both the averaging-set defect and the defect of m on
    the orbit of a."""
    G = C.group
    F = G.members(F)
    report = VerificationReport(suite="folner-channel",
                                parameters={"F": F, "size": len(F)})
    if words is None:
        words = C.spanning_words(rng)
    set_defect = folner_defect(G, F)
    a = C.algebra.stack([w for w, _ in words])
    # the terms (word, t), t in F meet gF
    w, t = np.array([(k, t) for k, (_, g) in enumerate(words)
                     for t in sorted({G.mul(g, f) for f in F}.intersection(F))],
                    dtype=int).reshape(-1, 2).T
    at = C.action.apply_each(G.inverse[t], a[w])
    mat = m(at)
    m_defect = np.zeros(len(words))
    np.maximum.at(m_defect, w, (mat - at).norm())
    # each word's terms alpha_t(mat) summed in order, from zero
    total = C.algebra.element([np.zeros_like(X) for X in a.blocks])
    for X, Y in zip(total.blocks, C.action.apply_each(t, mat).blocks):
        np.add.at(X, w, Y)
    dev = np.zeros(len(words))
    channel, pa = C.pi(total * (1.0 / len(F))), C.pi(a)
    for g, i in _by_element([g for _, g in words]):
        L = C.lam(g)
        dev[i] = (channel[i] @ L - pa[i] @ L).spectral_norm()
    na = a.norm()
    eta = np.maximum(set_defect, m_defect)
    exact = eta == 0.0
    if exact.any():
        report.add("exact-recovery",
                   "m = id and F = G recover pi(a) lambda_g exactly",
                   float(np.max(dev[exact] / np.maximum(1.0, na[exact]))),
                   tol)
    if not exact.all():
        bound = eta[~exact] * (na[~exact] + 1.0)
        report.add_bool("deviation-bound",
                        "norm(channel(pi(a) lambda_g) - pi(a) lambda_g) "
                        "<= eta (norm(a) + 1)",
                        bool(np.all(dev[~exact] <= bound * (1 + 1e-9))),
                        worst_ratio=float(np.max(dev[~exact] / bound)))
    return report


def smearing_map(algebra: CStarAlgebra, eps) -> CPLinearMap:
    """Unital CP map (1 - eps) id + eps rho(.) 1, rho the normalized trace;
    defect on a is eps * norm(a - rho(a) 1)."""
    rho = uniform_trace_state(algebra)
    return CPLinearMap(algebra, algebra, (1 - eps) * np.eye(algebra.dim)
                       + eps * np.outer(algebra.identity().flat, rho.matrix))

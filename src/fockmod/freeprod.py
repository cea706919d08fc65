"""Free-product verification gadgets: the Toeplitz subalgebra generated by a
single creation operator and its scalar expectation, semicircular moments,
an approximate Haar unitary, moment-level freeness checks, and the
two-algebra amalgamated construction with its swap operator W.
"""

from __future__ import annotations

import numpy as np

from .cstar import (AlgebraAutomorphism, AlgebraElement, CPLinearMap,
                    CStarAlgebra, ConditionalExpectation, LinearMap,
                    PreconditionError, UnitalHomomorphism, DEFAULT_TOL)
from .fock import DEFAULT_DIM_CAP, FockSpace, masked_norm
from .hilbmod import cp_bimodule, gns_bimodule
from .report import VerificationReport


# -- Toeplitz subalgebra of a single creation operator ---------------------

def scalar_fit(b: AlgebraElement):
    """Best scalar s with b ~ s 1, plus the residual of the fit."""
    total = sum(algebra_blk.shape[0] for algebra_blk in b.blocks)
    s = sum(np.trace(blk) for blk in b.blocks) / total
    return s, (b - b.parent.identity() * s).norm()


def toeplitz_state_check(rho: ConditionalExpectation, N, rng,
                         tol=DEFAULT_TOL,
                         dim_cap=DEFAULT_DIM_CAP) -> VerificationReport:
    """The creation operator of the cyclic vector of the bimodule of a state
    rho on B, the expectation onto the scalars:
    l(xi)* b l(xi) = rho(b) 1 on 6 random b, the vacuum expectation is
    scalar on 12 random words in l(xi) of at most N letters, and the scalar
    state is supported on 1 - l(xi) l(xi)*.  A word of at most N letters
    climbs at most N levels, so the truncation never cuts it."""
    if not rho.has_faithful_gns:
        raise PreconditionError("state annihilates a central summand")
    B = rho.algebra
    module, xi = gns_bimodule(rho)
    F = FockSpace(module, N, dim_cap=dim_cap)
    L = F.creation(xi)
    Ls = L.adjoint()
    one = F.identity()
    report = VerificationReport(suite="toeplitz-state",
                                parameters={"N": N, "blocks": list(B.block_sizes)})
    res = 0.0
    for _ in range(6):
        b = B.random_element(rng)
        diff = Ls @ F.left(b) @ L - one * rho(b).flat[0]
        res = max(res, masked_norm(diff, N - 1) / max(1.0, b.norm()))
    report.add("compressed-state", "l(xi)* b l(xi) = rho(b) 1", res, tol)

    def random_toeplitz_word():
        word = one
        for _ in range(int(rng.integers(1, N + 1))):
            word = (L if rng.random() < 0.5 else Ls) @ word
        return word

    res_scalar = 0.0
    support = one - L @ Ls
    res_support = 0.0
    for _ in range(12):
        w = random_toeplitz_word()
        e = F.vacuum_expectation(w)
        _, fit = scalar_fit(e)
        res_scalar = max(res_scalar, fit)
        e2 = F.vacuum_expectation(support, w, support)
        res_support = max(res_support, (e - e2).norm())
    report.add("scalar-expectation",
               "E(w) is a scalar multiple of 1 for words w in C*(l(xi))",
               res_scalar, tol)
    report.add("support-projection",
               "E(w) = E((1 - l l*) w (1 - l l*)): the state lives on "
               "1 - l(xi) l(xi)*", res_support, tol)
    s, fit = scalar_fit(F.vacuum_expectation(support))
    report.add("support-mass", "psi(1 - l(xi) l(xi)*) = 1",
               abs(s - 1.0) + fit, tol)
    return report


# -- scalar Fock space: semicircular element and Haar unitary ---------------

def scalar_creation(N):
    """Creation matrix on the N-truncated Fock space of the scalar bimodule."""
    return np.diag(np.ones(N), -1).astype(complex)


def semicircular_moments(N, orders):
    """Vacuum moments of s = l + l* of the given orders, in increasing
    order; even moments are Catalan numbers."""
    orders = list(orders)
    if any(m > N for m in orders):
        raise PreconditionError(
            "moment order beyond the truncation would be corrupted")
    l = scalar_creation(N)
    s = l + l.conj().T
    out = []
    power = np.eye(N + 1)
    k = 0
    for m in sorted(orders):
        while k < m:
            power = power @ s
            k += 1
        out.append(float(power[0, 0].real))
    return out


def catalan(k):
    from math import comb
    return comb(2 * k, k) // (k + 1)


def semicircle_cdf(t):
    t = np.clip(t, -2.0, 2.0)
    return 0.5 + (t * np.sqrt(4.0 - t * t) + 4.0 * np.arcsin(t / 2.0)) \
        / (4.0 * np.pi)


def haar_unitary(N, tol=DEFAULT_TOL):
    """u = exp(2 pi i F(s)) for the semicircle distribution function F,
    applied to the truncated semicircular element by functional calculus.

    Returns (u, report); the report carries |psi(u^k)| for 1 <= k <= 6."""
    l = scalar_creation(N)
    s = l + l.conj().T
    lam, V = np.linalg.eigh(s)
    u = (V * np.exp(2j * np.pi * semicircle_cdf(lam))) @ V.conj().T
    report = VerificationReport(suite="haar-unitary", parameters={"N": N})
    report.add("unitarity", "u* u = 1",
               float(np.linalg.norm(u.conj().T @ u - np.eye(N + 1))), tol)
    moments = {}
    power = np.eye(N + 1, dtype=complex)
    worst = 0.0
    for k in range(1, 7):
        power = power @ u
        moments[k] = abs(complex(power[0, 0]))
        worst = max(worst, moments[k])
    report.add_bool("moment-decay-data",
                    "psi(u^k) = 0 for k != 0 (approximately, improving in N)",
                    True, moments={str(k): v for k, v in moments.items()},
                    max_abs=worst)
    return u, report


# -- generic moment-level freeness ------------------------------------------

def _moment_report(suite, anchor, budget, table, threshold, note):
    """The largest alternating-moment residual of a table, as one check."""
    report = VerificationReport(suite=suite, parameters={"budget": budget})
    report.add(suite + "-max-moment", anchor, max(table.values(), default=0.0),
               threshold, table=table, note=note)
    return report


def alternating_patterns(n_families, budget):
    out = []

    def extend(pat):
        if pat:
            out.append(tuple(pat))
        if len(pat) == budget:
            return
        for f in range(n_families):
            if not pat or pat[-1] != f:
                extend(pat + [f])

    extend([])
    return out


def _moment_table(n_families, budget, samples, draw, expectation, names):
    """The worst normalized expectation of each alternating pattern of at
    least two families, keyed by names[f] joined with '-'.  draw(f) gives
    the factors of one centered sample of family f and the norm it scales
    by; a product is scaled by the max(1, norm) of its samples."""
    table = {}
    for pat in alternating_patterns(n_families, budget):
        if len(pat) < 2:
            continue
        worst = 0.0
        for _ in range(samples):
            factors = []
            scale = 1.0
            for f in pat:
                fs, norm = draw(f)
                scale *= max(1.0, norm)
                factors.extend(fs)
            worst = max(worst, expectation(factors).norm() / scale)
        table["-".join(names[f] for f in pat)] = worst
    return table


def freeness_check(families, expectation, embed, budget, rng,
                   samples_per_pattern=4, threshold=DEFAULT_TOL, note="",
                   suite="freeness",
                   anchor="psi(alternating centered products) = 0"
                   ) -> VerificationReport:
    """Max norm of expectations of alternating products of centered samples.

    families: list of callables rng -> LevelOp; expectation: list of
    factors -> element with a norm; embed: value -> LevelOp.  Products are
    kept as factor lists and evaluated on the vacuum.  The report's one
    check, <suite>-max-moment, holds the residual of every pattern; a
    budget below 2 has no alternating pattern and is refused."""
    if len(families) < 2:
        raise PreconditionError("freeness needs at least two families")
    if budget < 2:
        raise PreconditionError(
            "freeness needs a word budget of at least 2")

    def draw(f):
        x = families[f](rng)
        x = x - embed(expectation([x]))
        return [x], x.norm()

    table = _moment_table(len(families), budget, samples_per_pattern, draw,
                          expectation, [str(f) for f in range(len(families))])
    return _moment_report(suite, anchor, budget, table, threshold, note)


# -- amalgamated two-algebra construction -----------------------------------

class AmalgSetup:
    """A = A1 + A2, D = B + B inside A, and three maps of A held as their
    matrices: phi = phi1 + phi2 onto D, eta_D, phi with its two B halves
    swapped, and the swap-twisted expectation eta = embed_D . eta_D (also
    `eta_map`).  Then the eta-creation operator L and its adjoint Ls on the
    truncated Fock space of the bimodule of eta, and the derived operators
    P and W, all as level operators."""

    def __init__(self, phi1: ConditionalExpectation,
                 phi2: ConditionalExpectation, N, dim_cap=DEFAULT_DIM_CAP):
        if phi1.base.block_sizes != phi2.base.block_sizes:
            raise PreconditionError("expectations target different bases")
        if not (phi1.is_faithful and phi2.is_faithful):
            raise PreconditionError("expectation is not faithful")
        self.phi1, self.phi2 = phi1, phi2
        self.B = phi1.base
        self.A1, self.A2 = phi1.algebra, phi2.algebra
        self.A = CStarAlgebra(tuple(self.A1.block_sizes)
                              + tuple(self.A2.block_sizes))
        self.D = CStarAlgebra(tuple(self.B.block_sizes) * 2)
        self.N = N
        nb = len(self.B.block_sizes)
        e1, e2 = phi1.embedding, phi2.embedding
        self.embed_D = UnitalHomomorphism(
            self.D, self.A,
            [row + (0,) * nb for row in e1.multiplicities]
            + [(0,) * nb + row for row in e2.multiplicities],
            e1.unitaries + e2.unitaries)
        self.alpha = AlgebraAutomorphism(
            self.D, tuple(range(nb, 2 * nb)) + tuple(range(nb)))
        mat = np.zeros((self.D.dim, self.A.dim), complex)
        mat[:self.B.dim, :self.A1.dim] = phi1.matrix
        mat[self.B.dim:, self.A1.dim:] = phi2.matrix
        self.phi = LinearMap(self.A, self.D, mat)
        self.eta_D = LinearMap(self.A, self.D, np.roll(mat, self.B.dim, 0))
        self.eta = self.eta_map = CPLinearMap(
            self.A, self.A,
            self.embed_D.as_linear_map().matrix @ self.eta_D.matrix)
        self.H, self.xi = cp_bimodule(self.A, self.eta_map)
        self.F = FockSpace(self.H, N, dim_cap=dim_cap)
        L = self.L = self.F.creation(self.xi)
        Ls = self.Ls = L.adjoint()
        self.P = self.F.identity() - L @ L @ Ls @ Ls
        self.W = self.P @ (L + Ls) @ self.P

    # element plumbing ------------------------------------------------------

    def pair(self, a1: AlgebraElement, a2: AlgebraElement) -> AlgebraElement:
        return self.A.element(list(a1.blocks) + list(a2.blocks))

    def dpair(self, b1: AlgebraElement, b2: AlgebraElement) -> AlgebraElement:
        return self.D.element(list(b1.blocks) + list(b2.blocks))

    # operators on the Fock space -------------------------------------------

    def op(self, a: AlgebraElement):
        return self.F.left(a)

    def op_d(self, d: AlgebraElement):
        return self.F.left(self.embed_D(d))

    def psi(self, *factors) -> AlgebraElement:
        """The D-valued expectation phi . E of the product of the factors."""
        return self.phi(self.F.vacuum_expectation(*factors))


def amalg_setup(phi1: ConditionalExpectation, phi2: ConditionalExpectation,
                N, rng, tol=DEFAULT_TOL, dim_cap=DEFAULT_DIM_CAP):
    """Builds the amalgamated gadget stack and verifies its defining
    identities, each on five random samples.  Returns (AmalgSetup,
    VerificationReport)."""
    S = AmalgSetup(phi1, phi2, N, dim_cap=dim_cap)
    report = VerificationReport(suite="amalgamated-setup",
                                parameters={"N": N})
    report.merge(phi1.validate(rng, tol=tol))
    report.merge(phi2.validate(rng, tol=tol))
    res_ep = res_d = 0.0
    for _ in range(5):
        a = S.A.random_element(rng)
        res_ep = max(res_ep,
                     (S.eta(S.embed_D(S.phi(a))) - S.eta(a)).norm()
                     / max(1.0, a.norm()))
        d = S.D.random_element(rng)
        res_d = max(res_d, (S.eta_D(S.embed_D(d)) - S.alpha(d)).norm()
                    / max(1.0, d.norm()))
    report.add("eta-phi-compatibility", "eta . phi = eta", res_ep, tol)
    report.add("eta-on-subalgebra", "eta(d) = alpha(d) for d in D",
               res_d, tol)
    res_inner = res_comp = 0.0
    for _ in range(5):
        a = S.A.random_element(rng)
        res_inner = max(res_inner,
                        (S.H.inner(S.xi, S.xi.lmul(a)) - S.eta(a)).norm()
                        / max(1.0, a.norm()))
        diff = S.Ls @ (S.op(a) @ S.L.restrict(N - 1)) \
            - S.op(S.eta(a)).restrict(N - 1)
        res_comp = max(res_comp, masked_norm(diff, N - 1)
                       / max(1.0, a.norm()))
    report.add("cyclic-vector", "<xi, a xi> = eta(a)", res_inner, tol)
    report.add("eta-compression", "L* a L = eta(a)", res_comp, tol)
    return S, report


def build_W(setup: AmalgSetup, tol=DEFAULT_TOL):
    """P = 1 - L^2 (L*)^2 and W = P (L + L*) P with their algebraic laws on
    the overflow-free domain (input levels <= N - 2); the rightmost factor of
    each masked product is restricted to that domain first.  P - P* and
    W - W* take the Frobenius norm, which is never below the spectral norm.

    Returns (P, W, VerificationReport)."""
    if setup.N < 3:
        raise PreconditionError(
            "need truncation at least 3 for overflow-free room")
    F, L, Ls = setup.F, setup.L, setup.Ls
    P, W = setup.P, setup.W
    dom = setup.N - 2
    Lc, Lsc, Pc, Wc = (X.restrict(dom) for X in (L, Ls, P, W))
    report = VerificationReport(suite="swap-operator",
                                parameters={"N": setup.N, "domain_level": dom})
    report.add("P-idempotent", "P^2 = P",
               masked_norm(P @ Pc - Pc, dom), tol)
    report.add("P-selfadjoint", "P = P*", (P - P.adjoint()).norm(), tol)
    expansion = Lc + Lsc - L @ (Ls @ Lsc) - L @ (L @ Lsc)
    report.add("W-expansion", "W = L + L* - L(L*)^2 - L^2 L*",
               masked_norm(Wc - expansion, dom), tol)
    report.add("W-selfadjoint", "W = W*", (W - W.adjoint()).norm(), tol)
    report.add("W-squared", "W^2 = P",
               masked_norm(W @ Wc - Pc, dom), tol)
    report.add("W-kills-complement", "W (1 - P) = 0",
               masked_norm(W @ (F.identity().restrict(dom) - Pc), dom),
               tol)
    report.add("W-expectation", "psi(W) = 0", setup.psi(W).norm(), tol)
    return P, W, report


def swap_commutation(setup: AmalgSetup, tol=DEFAULT_TOL) -> VerificationReport:
    """L d = alpha(d) L and its consequences, for d over a basis of D."""
    L, Ls = setup.L, setup.Ls
    P, W = setup.P, setup.W
    dom = setup.N - 2
    Lc, Lsc, Pc, Wc = (X.restrict(dom) for X in (L, Ls, P, W))
    res_l = res_ls = res_p = res_w = 0.0
    for d in setup.D.basis():
        dm = setup.op_d(d)
        dmc = dm.restrict(dom)
        am = setup.op_d(setup.alpha(d))
        res_l = max(res_l, masked_norm(L @ dmc - am @ Lc, dom))
        res_ls = max(res_ls, masked_norm(Ls @ dmc - am @ Lsc, dom))
        res_p = max(res_p, masked_norm(P @ dmc - dm @ Pc, dom))
        res_w = max(res_w, masked_norm(W @ dmc - am @ Wc, dom))
    report = VerificationReport(suite="swap-commutation")
    report.add("L-twist", "L d = alpha(d) L", res_l, tol)
    report.add("Lstar-twist", "L* d = alpha(d) L*", res_ls, tol)
    report.add("P-commutes", "P d = d P", res_p, tol)
    report.add("W-twist", "W d = alpha(d) W", res_w, tol)
    return report


def _coefficient_moment(setup: AmalgSetup, rng, between):
    """||psi(a_0 X_1 a_1 ... X_m a_m)|| / prod_i max(1, ||a_i||) for the
    factor lists between = [X_1, ..., X_m] and random coefficients a_i in
    A, drawn in order.  The word lives only in this call, so consecutive
    samples do not hold two words at once."""
    a = setup.A.random_element(rng)
    scale = max(1.0, a.norm())
    factors = [setup.op(a)]
    for X in between:
        a = setup.A.random_element(rng)
        scale *= max(1.0, a.norm())
        factors += X + [setup.op(a)]
    return setup.psi(*factors).norm() / scale


def wunitary_vanishing(setup: AmalgSetup, budget, rng,
                       tol=DEFAULT_TOL) -> VerificationReport:
    """The family of vanishing moments that kills 1 - P in the expectation
    representation, plus the swapped-corner expectation identities; six
    random samples per pattern and per identity."""
    if budget > setup.N:
        raise PreconditionError("word budget exceeds the truncation")
    F, W, P = setup.F, setup.W, setup.P
    one = F.identity()
    complement = one - P
    report = VerificationReport(suite="swap-unitary-moments",
                                parameters={"budget": budget})
    worst = 0.0
    table = {}
    for k in range(budget + 1):
        for el in range(budget + 1 - k):
            pat = 0.0
            for _ in range(6):
                qs = [int(rng.integers(1, 3)) for _ in range(k)]
                qps = [int(rng.integers(1, 3)) for _ in range(el)]
                if sum(qs) + sum(qps) > setup.N:
                    continue
                between = [[W] * q for q in qs] + [[complement]] \
                    + [[W] * q for q in reversed(qps)]
                pat = max(pat, _coefficient_moment(setup, rng, between))
            table[f"k={k},l={el}"] = pat
            worst = max(worst, pat)
    report.add("complement-moments",
               "psi(a1 W^q1 ... a_{k+1} (1-P) a'_{l+1} W^q'_l ... a'_1) = 0",
               worst, tol, table=table)
    res_centered = res_corner = 0.0
    for _ in range(6):
        a2 = setup.A2.random_element(rng)
        centered = a2 - setup.phi2.embedding(setup.phi2(a2))
        res_centered = max(res_centered, setup.psi(
            W, setup.op(setup.pair(setup.A1.zero(), centered)), W).norm()
            / max(1.0, a2.norm()))
        val = setup.psi(
            W, setup.op(setup.pair(setup.A1.zero(),
                                   setup.phi2.embedding(setup.phi2(a2)))), W)
        target = setup.dpair(setup.phi2(a2), setup.B.zero())
        res_corner = max(res_corner, (val - target).norm()
                         / max(1.0, a2.norm()))
    report.add("swapped-corner-centered", "psi(W (0, a2 - phi2(a2)) W) = 0",
               res_centered, tol)
    report.add("swapped-corner-value", "psi(W (0, phi2(a2)) W) = (phi2(a2), 0)",
               res_corner, tol)
    q = setup.op_d(setup.dpair(setup.B.identity(), setup.B.zero()))
    report.add("corner-swap", "W q W = alpha(q) P",
               masked_norm(W @ (q @ W.restrict(setup.N - 2))
                           - (one - q) @ P.restrict(setup.N - 2),
                           setup.N - 2), tol)
    return report


def la_freeness_check(setup: AmalgSetup, budget, rng,
                      threshold=DEFAULT_TOL) -> VerificationReport:
    """Moment freeness of {L, L*} and the coefficient algebra over D, four
    samples per pattern."""
    L, Ls = setup.L, setup.Ls
    words = [L, Ls, L @ Ls, Ls @ L, L + Ls]

    def family_toeplitz(r):
        # freeness_check centers samples into new arrays: no word is written
        return words[int(r.integers(len(words)))]

    def family_coeff(r):
        return setup.op(setup.A.random_element(r))

    return freeness_check([family_toeplitz, family_coeff],
                          lambda factors: setup.psi(*factors), setup.op_d,
                          budget, rng, samples_per_pattern=4,
                          threshold=threshold,
                          note="families: words in {L, L*}; coefficients",
                          suite="toeplitz-coefficient-freeness",
                          anchor="psi of alternating centered words in "
                                 "{L, L*} and A vanishes")


def corner_freeness_check(setup: AmalgSetup, budget, rng,
                          threshold=DEFAULT_TOL) -> VerificationReport:
    """Moment freeness of the two corner copies: products of centered
    (a1, 0) and W (0, a2) W factors alternate to zero expectation, four
    samples per pattern."""
    if 2 * budget > setup.N:
        raise PreconditionError("word budget exceeds the truncation")
    W = setup.W

    def draw(f):
        if f == 0:
            a1 = setup.A1.random_element(rng)
            a1 = a1 - setup.phi1.embedding(setup.phi1(a1))
            return [setup.op(setup.pair(a1, setup.A2.zero()))], a1.norm()
        a2 = setup.A2.random_element(rng)
        a2 = a2 - setup.phi2.embedding(setup.phi2(a2))
        return [W, setup.op(setup.pair(setup.A1.zero(), a2)), W], a2.norm()

    table = _moment_table(2, budget, 4, draw,
                          lambda factors: setup.psi(*factors), "12")
    return _moment_report("corner-freeness",
                         "psi of alternating centered corner words vanishes",
                         budget, table, threshold,
                         "corner copies of the two amalgamands")


def alpha_beta_conditions(setup: AmalgSetup, rng,
                          tol=DEFAULT_TOL) -> VerificationReport:
    """The two distributional conditions characterizing L over psi: vanishing
    of unmatched words, five samples per word length, and the
    compressed-expectation formula on five samples."""
    L = setup.L
    report = VerificationReport(suite="creation-distribution")
    worst = 0.0
    for k in range(1, min(3, setup.N) + 1):
        for _ in range(5):
            worst = max(worst, _coefficient_moment(setup, rng, [[L]] * k))
    report.add("unmatched-words", "psi(a1 L a2 ... L a_{k+1}) = 0",
               worst, tol)
    res = 0.0
    for _ in range(5):
        a = setup.A.random_element(rng)
        oa = setup.op(a)
        diff = setup.Ls @ (oa @ L.restrict(setup.N - 1)) \
            - setup.op_d(setup.eta_D(setup.embed_D(setup.psi(oa)))) \
            .restrict(setup.N - 1)
        res = max(res, masked_norm(diff, setup.N - 1) / max(1.0, a.norm()))
    report.add("compressed-expectation", "L* a L = eta(psi(a))", res, tol)
    return report

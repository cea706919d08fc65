"""The crossed-product checks and the Bogoliubov validation as they were
before their samples were stacked: one sample, one level operator and one
automorphism at a time.  The loops are kept as they were, as the reference
the stacked evaluation is compared with; `compose` is the composite of two
automorphisms, which the package forms for whole actions at once."""

from fockmod.cstar import (AlgebraAutomorphism, PreconditionError,
                          StructureError, DEFAULT_TOL)
from fockmod.crossed import CrossedProduct, folner_defect, rep_unitary
from fockmod.report import VerificationReport


def apply(action, g, a):
    """alpha_g(a), for g a label of the action's group."""
    action.group.members([g])
    return action.autos[g](a)


def compose(a, b):
    """The automorphism a after b: block j comes from block
    b.source[a.source[j]] through a.unitaries[j] b.unitaries[a.source[j]]."""
    if b.algebra != a.algebra:
        raise StructureError("automorphisms of different algebras")
    source = tuple(b.source[s] for s in a.source)
    unitaries = [u @ b.unitaries[s] for u, s in zip(a.unitaries, a.source)]
    return AlgebraAutomorphism(a.algebra, source, unitaries)


def check_action(group, autos):
    """The homomorphism check of `GroupAction.__init__`, pair by pair."""
    for g in group.elements():
        for h in group.elements():
            comp = compose(autos[g], autos[h])
            if comp.distance_to(
                    autos[group.mul(g, h)]) > DEFAULT_TOL:
                raise StructureError(
                    "action is not a homomorphism: "
                    f"alpha_{g} . alpha_{h} != alpha_{group.mul(g, h)}")


def crossed_product(algebra, action, rng, tol=DEFAULT_TOL):
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
    res_cov = res_hom = 0.0
    for g in G.elements():
        L = C.lam(g)
        for _ in range(3):
            a = algebra.random_element(rng)
            pa, na = C.pi(a), a.norm()
            res_cov = max(res_cov, (
                L @ pa @ L.adjoint() - C.pi(apply(action, g, a)))
                .spectral_norm() / max(1.0, na))
            b = algebra.random_element(rng)
            res_hom = max(res_hom, (pa @ C.pi(b) - C.pi(a * b))
                          .spectral_norm() / max(1.0, na * b.norm()))
    report.add("covariance", "lambda_g pi(a) lambda_g* = pi(alpha_g(a))",
               res_cov, tol)
    report.add("pi-homomorphism", "pi(a) pi(b) = pi(ab)", res_hom, tol)
    return C, report


def lift_automorphism(C, beta, rng, tol=DEFAULT_TOL):
    G = C.group
    for g in G.elements():
        d = compose(beta, C.action.autos[g]).distance_to(
            compose(C.action.autos[g], beta))
        if d > tol:
            raise PreconditionError(
                f"beta does not commute with the action at group element {g}")
    V = C.diagonal([rep_unitary(beta)] * G.order)
    report = VerificationReport(suite="lifted-automorphism")
    res_word = res_mult = res_adj = 0.0

    def hat(M):
        return V @ M @ V.adjoint()

    words = C.spanning_words(rng)
    xs = [C.pi(a) @ C.lam(g) for a, g in words]
    norms = [a.norm() for a, _ in words]
    for (a, g), x, na in zip(words, xs, norms):
        rhs = C.pi(beta(a)) @ C.lam(g)
        res_word = max(res_word, (hat(x) - rhs).spectral_norm() / max(1.0, na))
    for x, y, na, nb in zip(xs[::2], xs[1::2], norms[::2], norms[1::2]):
        res_mult = max(res_mult, (hat(x @ y) - hat(x) @ hat(y)).spectral_norm()
                       / max(1.0, na * nb))
        res_adj = max(res_adj, (hat(x.adjoint()) - hat(x).adjoint())
                      .spectral_norm() / max(1.0, na))
    report.add("lift-on-words", "betahat(pi(a) lambda_g) = pi(beta(a)) lambda_g",
               res_word, tol)
    report.add("lift-multiplicative", "betahat(xy) = betahat(x) betahat(y)",
               res_mult, tol)
    report.add("lift-star", "betahat(x*) = betahat(x)*", res_adj, tol)
    return V, report


def folner_average(C, F, m, rng, tol=1e-12, words=None):
    G = C.group
    F = G.members(F)
    report = VerificationReport(suite="folner-channel",
                                parameters={"F": F, "size": len(F)})
    if words is None:
        words = C.spanning_words(rng)
    set_defect = folner_defect(G, F)
    res_exact = 0.0
    any_exact = any_bounded = False
    bound_ok = True
    worst_ratio = 0.0
    for a, g in words:
        gF = {G.mul(g, t) for t in F}
        total = C.algebra.zero()
        m_defect = 0.0
        for t in sorted(gF.intersection(F)):
            at = apply(C.action, G.inv(t), a)
            mat = m(at)
            m_defect = max(m_defect, (mat - at).norm())
            total = total + apply(C.action, t, mat)
        L = C.lam(g)
        out = C.pi(total * (1.0 / len(F))) @ L
        dev = (out - C.pi(a) @ L).spectral_norm()
        eta = max(set_defect, m_defect)
        if eta == 0.0:
            any_exact = True
            res_exact = max(res_exact, dev / max(1.0, a.norm()))
        else:
            any_bounded = True
            bound = eta * (a.norm() + 1.0)
            worst_ratio = max(worst_ratio, dev / bound)
            bound_ok = bound_ok and dev <= bound * (1 + 1e-9)
    if any_exact:
        report.add("exact-recovery",
                   "m = id and F = G recover pi(a) lambda_g exactly",
                   res_exact, tol)
    if any_bounded:
        report.add_bool("deviation-bound",
                        "norm(channel(pi(a) lambda_g) - pi(a) lambda_g) "
                        "<= eta (norm(a) + 1)",
                        bound_ok, worst_ratio=worst_ratio)
    return report


def validate_bogoliubov(bog, rng, tol=DEFAULT_TOL):
    H, beta = bog.domain, bog.beta
    report = VerificationReport(suite="twisted-linear-map")
    basis = H.basis()
    images = [bog(e) for e in basis]
    res_inner = 0.0
    for i, ei in enumerate(basis):
        for j in range(i, len(basis)):
            lhs = H.inner(images[i], images[j])
            rhs = beta(H.inner(ei, basis[j]))
            res_inner = max(res_inner, (lhs - rhs).norm())
    report.add("inner-twist", "<U h1, U h2> = beta(<h1, h2>)",
               res_inner, tol)
    res_act = 0.0
    for _ in range(4):
        b1 = H.base.random_element(rng)
        b2 = H.base.random_element(rng)
        scale = max(1.0, b1.norm()) * max(1.0, b2.norm())
        for e, ue in zip(basis, images):
            lhs = bog(e.lmul(b1).rmul(b2))
            rhs = ue.lmul(beta(b1)).rmul(beta(b2))
            res_act = max(res_act, (lhs - rhs).norm() / scale)
    report.add("bimodule-twist", "U(b1 h b2) = beta(b1) U(h) beta(b2)",
               res_act, tol)
    return report

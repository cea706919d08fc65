"""End-to-end acceptance checks, one per criterion, each printing a single
pass or fail line."""

import time

import numpy as np
import pytest

from fockmod.bogoliubov import (_fock_level_spans, entropy_bound_report,
                                kp_subspace)
from fockmod.cstar import CPLinearMap, CStarAlgebra, ConditionalExpectation
from fockmod.crossed import (CrossedProduct, crossed_product, folner_average,
                             smearing_map)
from fockmod.fock import (FockSpace, creation_relations_check,
                          expectation_properties_check,
                          fock_factorization_check, ideal_structure_check,
                          quotient_dimension_check)
from fockmod.freeprod import (amalg_setup, build_W, catalan,
                              corner_freeness_check, freeness_check,
                              la_freeness_check,
                              semicircular_moments, swap_commutation,
                              wunitary_vanishing)
from fockmod.hilbmod import (gram_schmidt, make_bimodule,
                             projection_from_basis, submodule_projection,
                             trivial_module)
from fockmod.instances import (amalg_instances, creation_instances,
                               crossed_instances, multiplicity_shift_instance,
                               random_state, vector_families)

SEED = 2026
_cache = {}


def conclude(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {tag}{suffix}")
    assert ok, f"criterion {num:02d} {name} failed {suffix}"


def amalg_setups():
    if "amalg" not in _cache:
        rng = np.random.default_rng(SEED)
        setups = []
        for phi1, phi2 in amalg_instances(SEED):
            setup, rep = amalg_setup(phi1, phi2, 5, rng, tol=1e-9)
            P, W, wrep = build_W(setup, tol=1e-9)
            setups.append((setup, rep, wrep))
        _cache["amalg"] = setups
    return _cache["amalg"]


def test_criterion_01_creation_relations():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    instances = creation_instances(SEED, count=20)
    assert len(instances) >= 20
    ok = True
    for H, N in instances:
        assert max(H.base.block_sizes) <= 3 and len(H.base.block_sizes) <= 2
        assert H.dim <= 12 and N <= 4
        F = FockSpace(H, N)
        for rep in (creation_relations_check(F, rng, tol=1e-9),
                    expectation_properties_check(F, rng, tol=1e-9)):
            ok = ok and rep.passed
            worst = max(worst, max((c.residual for c in rep.checks
                                    if c.residual is not None), default=0.0))
    elapsed = time.time() - t0
    conclude(1, "creation-relations", ok and elapsed < 60.0,
             f"20 instances, max residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_orthogonalization():
    families = vector_families(SEED, count=50)
    assert len(families) >= 50
    worst_orth = worst_proj = worst_span = 0.0
    for H, vectors in families:
        basis = gram_schmidt(vectors)
        for i, v in enumerate(basis):
            g = H.inner(v, v)
            worst_proj = max(worst_proj, (g * g - g).norm(),
                             (g.adjoint() - g).norm(),
                             abs(g.trace() - 1.0))
            for w in basis[i + 1:]:
                worst_orth = max(worst_orth, H.inner(v, w).norm())
        P_gen = submodule_projection(vectors).projection
        P_basis = projection_from_basis(H, basis)
        worst_span = max(worst_span,
                         float(np.linalg.norm(P_gen - P_basis, 2)))
    ok = worst_orth <= 1e-9 and worst_proj <= 1e-9 and worst_span <= 1e-8
    conclude(2, "orthogonalization", ok,
             f"50 families, orth {worst_orth:.2e}, "
             f"minimal-projection {worst_proj:.2e}, span {worst_span:.2e}")


def test_criterion_03_submodule_projection():
    families = vector_families(SEED + 1, count=50)
    worst = 0.0
    norm_ok = True
    rng = np.random.default_rng(SEED)
    for H, vectors in families:
        span = submodule_projection(vectors)
        P = span.projection
        worst = max(worst, float(np.linalg.norm(P @ P - P, 2)),
                    float(np.linalg.norm(P - P.conj().T, 2)))
        norm_ok = norm_ok and np.linalg.norm(P, 2) <= 1.0 + 1e-9
        for v in vectors:
            w = v.rmul(H.base.random_element(rng))
            worst = max(worst, float(np.linalg.norm(P @ v.flat - v.flat)),
                        float(np.linalg.norm(P @ w.flat - w.flat))
                        / max(1.0, float(np.linalg.norm(w.flat))))
    conclude(3, "submodule-projection", worst <= 1e-9 and norm_ok,
             f"max residual {worst:.2e}")


def test_criterion_04_ideal_structure():
    rng = np.random.default_rng(SEED)
    B = CStarAlgebra((1, 1))
    H = make_bimodule(B, (1, 1), [(0, 1), (1, 0)])
    H2 = make_bimodule(CStarAlgebra((1,)), (2,), [(2,)])
    ok = True
    worst = 0.0
    for module in (H, H2):
        F = FockSpace(module, 4)
        for n in (1, 2):
            for rep in (ideal_structure_check(F, n, rng, tol=1e-9),
                        quotient_dimension_check(F, n, rng, tol=1e-9)):
                ok = ok and rep.passed
                worst = max(worst, max((c.residual for c in rep.checks
                                        if c.residual is not None),
                                       default=0.0))
    conclude(4, "ideal-structure", ok, f"max residual {worst:.2e}")


def test_criterion_05_factorization():
    rng = np.random.default_rng(SEED)
    B = CStarAlgebra((1, 1))
    H = make_bimodule(B, (1, 1), [(0, 1), (1, 0)])
    H2 = make_bimodule(CStarAlgebra((1,)), (2,), [(2,)])
    ok = True
    count = 0
    for module in (H, H2):
        for n in range(1, 5):
            for k in range(1, 6):
                for j in range(0, n + 1):
                    if k * (n + 1) + j > 5:
                        continue
                    rep = fock_factorization_check(module, n, k, j, rng,
                                                   tol=1e-9)
                    ok = ok and rep.passed
                    count += 1
    conclude(5, "factorization", ok and count > 0, f"{count} word shapes")


def test_criterion_06_semicircular_moments():
    even = semicircular_moments(8, orders=[2, 4, 6, 8])
    odd = semicircular_moments(8, orders=[1, 3, 5, 7])
    even_res = max(abs(m - catalan(k))
                   for m, k in zip(even, [1, 2, 3, 4]))
    odd_res = max(abs(m) for m in odd)
    conclude(6, "semicircular-moments",
             even_res <= 1e-9 and odd_res <= 1e-12,
             f"even {even_res:.2e}, odd {odd_res:.2e}")


def test_criterion_07_two_algebra_identities():
    setups = amalg_setups()
    ok = len(setups) >= 3
    worst = 0.0
    for setup, rep, wrep in setups:
        srep = swap_commutation(setup, tol=1e-9)
        for r in (rep, wrep, srep):
            ok = ok and r.passed
            worst = max(worst, max((c.residual for c in r.checks
                                    if c.residual is not None), default=0.0))
    conclude(7, "two-algebra-identities", ok,
             f"3 instances at truncation 5, max residual {worst:.2e}")


def test_criterion_08_amalgamated_freeness():
    rng = np.random.default_rng(SEED)
    setup = amalg_setups()[0][0]
    la = la_freeness_check(setup, 4, rng, threshold=1e-9)
    corner = corner_freeness_check(setup, 2, rng, threshold=1e-9)
    wrep = wunitary_vanishing(setup, 2, rng)
    ok = la.passed and corner.passed and wrep.passed
    conclude(8, "amalgamated-freeness", ok,
             f"moment residuals {la.checks[0].residual:.2e} / "
             f"{corner.checks[0].residual:.2e}")


def test_criterion_09_crossed_products():
    rng = np.random.default_rng(SEED)
    ok = True
    for G, A, action in crossed_instances(SEED):
        C, rep = crossed_product(A, action, rng=rng, tol=1e-9)
        ok = ok and rep.passed
        ident = CPLinearMap.from_callable(A, A, lambda a: a)
        exact = folner_average(C, list(G.elements()), ident, rng=rng,
                               tol=1e-12)
        ok = ok and exact.passed
        smeared = folner_average(C, [G.identity], smearing_map(A, 0.25),
                                 rng=rng)
        ok = ok and smeared.passed
    conclude(9, "crossed-products", ok,
             "Z/2, Z/3, symmetric(3); exact and smeared averaging")


def test_criterion_10_rank_growth_bound():
    t0 = time.time()
    H, K, U = multiplicity_shift_instance()
    F = FockSpace(H, 3)
    rng = np.random.default_rng(SEED)
    spans, _ = kp_subspace(U, K, 6, tol=1e-8)
    towers = [_fock_level_spans(F, 3, span) for span in spans]
    ok = all(rep.passed for rep in entropy_bound_report(
        F, U, spans, towers, (1, 2, 3), rng, tol=1e-8))
    elapsed = time.time() - t0
    conclude(10, "rank-growth-bound", ok and elapsed < 300.0,
             f"n in 1..3, p in 1..6, {elapsed:.1f}s")


def test_criterion_11_negative_controls():
    rng = np.random.default_rng(SEED)
    B = CStarAlgebra((1, 1))
    H = make_bimodule(B, (2, 2), [(1, 1), (1, 1)])
    F = FockSpace(H, 3)
    # corrupt the left action after the tensor chain is built, so the cached
    # creation maps disagree with the module's stated left action
    had = np.array([[1, 1], [1, -1]], complex) / np.sqrt(2)
    H.left_unitaries = [had, had]
    rep = creation_relations_check(F, rng, tol=1e-9)
    bad_action = (not rep.passed) and all(
        c.anchor in ("l(h)* l(g) = <h,g> (1 - E_N)",
                     "b1 l(h) b2 = l(b1 h b2)") for c in rep.failures)

    A = CStarAlgebra((2,))
    phi = ConditionalExpectation.from_state(random_state(rng, A))
    scalars = phi.embedding.domain
    Fm = np.diag([1.5, -0.5]).astype(complex)
    bad = ConditionalExpectation(
        phi.embedding, lambda a: scalars.scalar(np.trace(Fm @ a.blocks[0])))
    vrep = bad.validate(rng)
    bad_eta = (not vrep.passed) and any(
        c.anchor == "Choi(phi) >= 0" for c in vrep.failures)

    # the semicircular element l + l* on the Fock space of C over itself
    Fs = FockSpace(trivial_module(CStarAlgebra((1,))), 8)
    l = Fs.creation(Fs.bimodule.basis()[0])
    s = l + l.adjoint()

    def expectation(factors):
        return Fs.vacuum_expectation(*factors)

    frep = freeness_check([lambda r: s, lambda r: s], expectation, Fs.left,
                          budget=2, rng=rng, samples_per_pattern=2,
                          threshold=1e-6, suite="non-free-pair",
                          anchor="psi(alternating centered products) = 0")
    non_free = (not frep.passed) and any(
        c.anchor == "psi(alternating centered products) = 0"
        for c in frep.failures)

    conclude(11, "negative-controls", bad_action and bad_eta and non_free,
             "corrupted action, non-positive coefficient map, non-free pair")

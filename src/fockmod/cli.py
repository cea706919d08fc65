"""Command line runner: instance ingestion, suite orchestration, seeded
default instances, and report emission in text or JSON."""

import argparse
import json
import math
import sys
import time

import jsonschema
import numpy as np

from . import bogoliubov as bg
from . import crossed as cr
from . import fock as fk
from . import freeprod as fp
from . import instances as ins
from .cstar import (CPLinearMap, CStarAlgebra, ConditionalExpectation,
                    PreconditionError, ResourceCapError, StructureError,
                    identity_automorphism)
from .hilbmod import AugmentedModule, submodule_projection
from .report import VerificationReport, _jsonable

SUITES = ("fock", "ideal", "factorization", "toeplitz", "crossed", "free",
          "amalg", "bog")

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PRECONDITION = 2
EXIT_RESOURCE = 3

_COMPLEX = {"type": "array", "minItems": 2, "maxItems": 2,
            "items": {"type": "number"}}
_CVECTOR = {"type": "array", "items": _COMPLEX}
_CMATRIX = {"type": "array", "items": _CVECTOR}
_NAME = {"type": "string", "minLength": 1}
_AUTOMORPHISM = {
    "type": "object",
    "properties": {
        "source": {"type": "array", "items": {"type": "integer",
                                              "minimum": 0}},
        "unitaries": {"type": "array", "items": _CMATRIX},
    },
    "additionalProperties": False,
}

INSTANCE_SCHEMA = {
    "type": "object",
    "properties": {
        "name": _NAME,
        "parameters": {
            "type": "object",
            "properties": {
                "truncation": {"type": "integer", "minimum": 0},
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "seed": {"type": "integer", "minimum": 0},
                "max_word_length": {"type": "integer", "minimum": 1},
                "dim_cap": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "algebras": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["blocks"],
                "properties": {
                    "blocks": {"type": "array", "minItems": 1,
                               "items": {"type": "integer", "minimum": 1}},
                },
                "additionalProperties": False,
            },
        },
        "bimodules": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["base", "right_multiplicities",
                             "left_multiplicities"],
                "properties": {
                    "base": _NAME,
                    "right_multiplicities": {
                        "type": "array",
                        "items": {"type": "integer", "minimum": 0}},
                    "left_multiplicities": {
                        "type": "array",
                        "items": {"type": "array",
                                  "items": {"type": "integer",
                                            "minimum": 0}}},
                    "unitaries": {"type": "array", "items": _CMATRIX},
                },
                "additionalProperties": False,
            },
        },
        "states": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["algebra", "densities"],
                "properties": {
                    "algebra": _NAME,
                    "densities": {"type": "array", "items": _CMATRIX},
                },
                "additionalProperties": False,
            },
        },
        "groups": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["table"],
                "properties": {
                    "table": {"type": "array",
                              "items": {"type": "array",
                                        "items": {"type": "integer",
                                                  "minimum": 0}}},
                },
                "additionalProperties": False,
            },
        },
        "actions": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["group", "algebra", "automorphisms"],
                "properties": {
                    "group": _NAME,
                    "algebra": _NAME,
                    "automorphisms": {"type": "array",
                                      "items": _AUTOMORPHISM},
                },
                "additionalProperties": False,
            },
        },
        "amalgamated": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["state1", "state2"],
                "properties": {
                    "state1": _NAME,
                    "state2": _NAME,
                },
                "additionalProperties": False,
            },
        },
        "bogoliubov": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["bimodule", "matrix"],
                "properties": {
                    "bimodule": _NAME,
                    "matrix": _CMATRIX,
                    "beta": _AUTOMORPHISM,
                    "subspace": {"type": "array", "items": _CVECTOR},
                    "n": {"type": "integer", "minimum": 1},
                    "p_max": {"type": "integer", "minimum": 1},
                },
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
}


class InstanceError(Exception):
    """Schema violations or unresolved references, with their paths."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is not finite")
    return value


def parse_instance(path):
    """Load and validate an instance file; returns the raw dict.  A number
    that is not finite (NaN, Infinity, 1e400) is malformed JSON."""
    try:
        with open(path) as fh:
            data = json.load(fh, parse_float=_finite_float,
                             parse_constant=_finite_float)
    except OSError as exc:
        raise InstanceError([f"cannot read {path}: {exc}"])
    except ValueError as exc:   # JSONDecodeError is a ValueError
        raise InstanceError([f"malformed JSON in {path}: {exc}"])
    validator = jsonschema.Draft7Validator(INSTANCE_SCHEMA)
    errors = [f"{'/'.join(str(p) for p in e.absolute_path) or '<root>'}: "
              f"{e.message}"
              for e in validator.iter_errors(data)]
    if errors:
        raise InstanceError(sorted(errors))
    return data


def build_instance(data):
    """Construct the declared objects; unresolved names or invalid structures
    become InstanceError."""
    ctx = {"parameters": dict(data.get("parameters", {})),
           "name": data.get("name", "instance"),
           "algebras": {}, "bimodules": {}, "states": {}, "groups": {},
           "actions": {}, "amalgamated": {}, "bogoliubov": {}}
    errors = []

    def resolve(kind, name, path):
        if name not in ctx[kind]:
            errors.append(f"{path}: unresolved {kind[:-1]} '{name}'")
            return None
        return ctx[kind][name]

    for name, d in data.get("algebras", {}).items():
        ctx["algebras"][name] = ins.algebra_from_descriptor(d)
    for name, d in data.get("bimodules", {}).items():
        base = resolve("algebras", d["base"], f"bimodules/{name}/base")
        if base is None:
            continue
        try:
            ctx["bimodules"][name] = ins.bimodule_from_descriptor(d, base)
        except (StructureError, PreconditionError) as exc:
            errors.append(f"bimodules/{name}: {exc}")
    for name, d in data.get("states", {}).items():
        alg = resolve("algebras", d["algebra"], f"states/{name}/algebra")
        if alg is None:
            continue
        try:
            ctx["states"][name] = ins.state_from_descriptor(d, alg)
        except (StructureError, PreconditionError) as exc:
            errors.append(f"states/{name}: {exc}")
    for name, d in data.get("groups", {}).items():
        try:
            ctx["groups"][name] = ins.group_from_descriptor(d)
        except StructureError as exc:
            errors.append(f"groups/{name}: {exc}")
    for name, d in data.get("actions", {}).items():
        group = resolve("groups", d["group"], f"actions/{name}/group")
        alg = resolve("algebras", d["algebra"], f"actions/{name}/algebra")
        if group is None or alg is None:
            continue
        try:
            ctx["actions"][name] = ins.action_from_descriptor(d, group, alg)
        except (StructureError, PreconditionError) as exc:
            errors.append(f"actions/{name}: {exc}")
    for name, d in data.get("amalgamated", {}).items():
        rho1 = resolve("states", d["state1"], f"amalgamated/{name}/state1")
        rho2 = resolve("states", d["state2"], f"amalgamated/{name}/state2")
        if rho1 is None or rho2 is None:
            continue
        ctx["amalgamated"][name] = (ConditionalExpectation.from_state(rho1),
                                    ConditionalExpectation.from_state(rho2))
    for name, d in data.get("bogoliubov", {}).items():
        module = resolve("bimodules", d["bimodule"],
                         f"bogoliubov/{name}/bimodule")
        if module is None:
            continue
        try:
            beta = (ins.automorphism_from_descriptor(d["beta"], module.base)
                    if "beta" in d else identity_automorphism(module.base))
            bog = ins.bogoliubov_from_descriptor(d, module, beta)
            span = None
            if "subspace" in d:
                vs = [module.from_flat(ins.complex_array(v))
                      for v in d["subspace"]]
                span = submodule_projection(vs)
            ctx["bogoliubov"][name] = {
                "map": bog, "subspace": span,
                "n": int(d.get("n", 2)), "p_max": int(d.get("p_max", 4))}
        except (StructureError, PreconditionError) as exc:
            errors.append(f"bogoliubov/{name}: {exc}")
    if errors:
        raise InstanceError(errors)
    return ctx


# -- suite runners -----------------------------------------------------------

_PARAMETERS = jsonschema.Draft7Validator(
    INSTANCE_SCHEMA["properties"]["parameters"])


class Settings:
    """Run parameters within the bounds of the instance schema's `parameters`,
    tol also finite; a value outside them is a PreconditionError."""

    def __init__(self, truncation=None, tol=1e-9, seed=0, max_word_length=5,
                 dim_cap=fk.DEFAULT_DIM_CAP):
        self.truncation = None if truncation is None else int(truncation)
        self.tol = float(tol)
        self.seed = int(seed)
        self.max_word_length = int(max_word_length)
        self.dim_cap = int(dim_cap)
        values = {k: v for k, v in vars(self).items() if v is not None}
        errors = [f"{e.path[0]}: {e.message}"
                  for e in _PARAMETERS.iter_errors(values)]
        if not math.isfinite(self.tol):
            errors.append(f"tol: {self.tol} is not finite")
        if errors:
            raise PreconditionError("; ".join(sorted(errors)))

    def rng(self):
        return np.random.default_rng(self.seed)

    def N(self, default):
        return default if self.truncation is None else self.truncation


def _fock_bimodules(ctx, st):
    if ctx and ctx["bimodules"]:
        N = st.N(3)
        return [(H, N) for H in ctx["bimodules"].values()]
    return ins.creation_instances(st.seed, count=5)


def run_fock(ctx, st):
    rng = st.rng()
    reports = []
    for H, N in _fock_bimodules(ctx, st):
        F = fk.FockSpace(H, st.N(N), dim_cap=st.dim_cap)
        rep = fk.creation_relations_check(F, rng, tol=st.tol)
        rep.merge(fk.expectation_properties_check(F, rng, tol=st.tol))
        rep.parameters.update({"N": F.N, "dim": F.dim})
        reports.append(rep)
    return reports


def run_ideal(ctx, st):
    rng = st.rng()
    reports = []
    for H, _ in _fock_bimodules(ctx, st)[:3]:
        N = st.N(4)
        F = fk.FockSpace(H, max(N, 3), dim_cap=st.dim_cap)
        for n in (1, 2):
            if n + 1 > F.N:
                continue
            rep = fk.ideal_structure_check(F, n, rng, tol=st.tol)
            rep.merge(fk.quotient_dimension_check(F, n, rng, tol=st.tol))
            rep.parameters.update({"N": F.N, "n": n})
            reports.append(rep)
    return reports


def run_factorization(ctx, st):
    """Every shape (n, k, j) with 1 <= k(n+1) + j <= L = max_word_length.
    Per module, the tower of M is built once, to level L, which the shape
    (L - 1, 0, 1) reads and no shape passes, and the tower of its level
    n + 1 once per n, to the largest k of that n."""
    rng = st.rng()
    L = st.max_word_length
    shapes = [(n, k, j) for n in range(L) for k in range(L)
              for j in range(n + 1) if 0 < k * (n + 1) + j <= L]
    if not shapes:
        return []
    reports = []
    for H, _ in _fock_bimodules(ctx, st)[:2]:
        tower = fk.FockSpace(H, L, dim_cap=st.dim_cap)
        powers = {}
        for n, k, j in shapes:
            if n not in powers:
                k_top = max(kk for nn, kk, _ in shapes if nn == n)
                powers[n] = fk.FockSpace(tower.levels[n + 1], k_top,
                                         dim_cap=st.dim_cap)
            reports.append(fk._factorization(tower, powers[n], n, k, j, rng,
                                             samples=None, tol=st.tol))
    return reports


def run_toeplitz(ctx, st):
    rng = st.rng()
    candidates = [H for H, _ in _fock_bimodules(ctx, st)
                  if all(r >= n for r, n in
                         zip(H.right_mult, H.base.block_sizes))]
    if not candidates:
        B = CStarAlgebra((2,))
        candidates = [ins.random_bimodule(rng, B, max_copies=1, dim_cap=16)]
    reports = []
    for H in candidates[:2]:
        F = fk.FockSpace(H, st.N(3), dim_cap=st.dim_cap)
        L = F.creation(fk.isometric_vector(H, rng))
        a = fk.word(F, *fk.random_word(F, rng, 1), F.N)
        _, rep = fk.toeplitz_endomorphism(F, a, L, rng=rng, tol=st.tol)
        rep.merge(fk.endomorphism_injectivity_check(F, L, F.N - 1, rng))
        rep.parameters.update({"N": F.N, "dim": F.dim})
        reports.append(rep)
    if ctx and ctx["states"]:
        pairs = [(rho.algebra, rho) for rho in ctx["states"].values()]
    else:
        B = CStarAlgebra((1, 1))
        pairs = [(B, ins.random_state(rng, B))]
    for B, rho in pairs[:2]:
        reports.append(fp.toeplitz_state_check(B, rho, st.N(4), rng,
                                               tol=st.tol,
                                               dim_cap=st.dim_cap))
    return reports


def run_crossed(ctx, st):
    rng = st.rng()
    if ctx and ctx["actions"]:
        triples = [(a.group, a.algebra, a) for a in ctx["actions"].values()]
    else:
        triples = ins.crossed_instances(st.seed)
    reports = []
    for group, algebra, action in triples:
        C, rep = cr.crossed_product(algebra, action, rng, tol=st.tol)
        reports.append(rep)
        _, lift_rep = cr.lift_automorphism(
            C, identity_automorphism(algebra), rng, tol=st.tol)
        reports.append(lift_rep)
        ident = CPLinearMap.from_callable(algebra, algebra, lambda a: a)
        reports.append(cr.folner_average(C, list(group.elements()), ident,
                                         rng=rng))
        smear = cr.smearing_map(algebra, 0.25)
        reports.append(cr.folner_average(
            C, list(group.elements())[:-1] or [0], smear, rng=rng))
    return reports


def run_free(ctx, st):
    rng = st.rng()
    N = max(8, st.N(8))
    if N + 1 > st.dim_cap:
        raise ResourceCapError(
            f"scalar Fock dimension {N + 1} exceeds the cap {st.dim_cap}")
    report = VerificationReport(suite="scalar-semicircular",
                                parameters={"N": N})
    moments = fp.semicircular_moments(N, orders=range(0, 9))
    res_even = max(abs(moments[2 * k] - fp.catalan(k)) for k in range(0, 5))
    res_odd = max(abs(moments[2 * k + 1]) for k in range(0, 4))
    report.add("even-moments", "psi(s^{2k}) = catalan(k)", res_even, st.tol)
    report.add("odd-moments", "psi(s^{2k+1}) = 0", res_odd, 1e-12)
    _, haar_rep = fp.haar_unitary(N)
    B = CStarAlgebra((1,))
    rho = ins.random_state(rng, B)
    toep = fp.toeplitz_state_check(B, rho, min(st.N(4), 6), rng, tol=st.tol,
                                   dim_cap=st.dim_cap)
    return [report, haar_rep, toep]


def run_amalg(ctx, st):
    if st.max_word_length < 2:
        raise PreconditionError(
            "the amalg freeness checks need --max-word-length at least 2")
    rng = st.rng()
    if ctx and ctx["amalgamated"]:
        pairs = list(ctx["amalgamated"].values())
    else:
        pairs = ins.amalg_instances(st.seed)
    N = max(st.N(5), 3)
    budget = min(st.max_word_length, 4)
    reports = []
    for i, (phi1, phi2) in enumerate(pairs):
        setup, rep = fp.amalg_setup(phi1, phi2, N, rng, tol=st.tol,
                                    dim_cap=st.dim_cap)
        reports.append(rep)
        reports.append(fp.build_W(setup, tol=st.tol)[2])
        reports.append(fp.swap_commutation(setup, tol=st.tol))
        if i > 0:
            continue
        reports.append(fp.wunitary_vanishing(setup, min(budget, 2), rng,
                                             tol=st.tol))
        reports.append(fp.la_freeness_check(setup, budget, rng,
                                            threshold=st.tol))
        reports.append(fp.corner_freeness_check(
            setup, min(budget, N // 2), rng, threshold=st.tol))
        reports.append(fp.alpha_beta_conditions(setup, rng, tol=st.tol))
    return reports


def run_bog(ctx, st):
    rng = st.rng()
    reports = []
    if ctx and ctx["bogoliubov"]:
        entries = list(ctx["bogoliubov"].values())
    else:
        H, K, U = ins.multiplicity_shift_instance()
        n_top = min(3, st.N(3))
        entries = [{"map": U, "subspace": K, "n": n_top, "p_max": 6,
                    "levels": list(range(1, n_top + 1))}]
        entries.append({"map": ins.random_bogoliubov(rng), "subspace": None,
                        "n": 2, "p_max": 3})
        Hf, Uf = ins.flip_twisted_module()
        entries.append({"map": Uf, "subspace": None, "n": 1, "p_max": 2})
    for entry in entries:
        bog = entry["map"]
        rep = bg.validate_bogoliubov(bog, rng, tol=st.tol)
        reports.append(rep)
        if not rep.passed:
            continue
        n = entry["n"]
        F = fk.FockSpace(bog.module, max(n, st.N(n)), dim_cap=st.dim_cap)
        reports.append(bg.fock_extension(F, bog, tol=st.tol)[1])
        aug = AugmentedModule(bog.module)
        bog_t = bg.augmented_bogoliubov(aug, bog)
        Ft = fk.FockSpace(aug.module, min(F.N, 3), dim_cap=st.dim_cap)
        reports.append(bg.fock_extension(Ft, bog_t, xi=aug.xi,
                                         tol=st.tol)[1])
        span = entry["subspace"]
        if span is None:
            basis = bog.module.basis()
            span = submodule_projection([basis[0], basis[-1]])
        spans, rep = bg.kp_subspace(bog, span, entry["p_max"], tol=st.tol)
        reports.append(rep)
        # each K_p's tower is built once, up to level n, the highest level
        # either check reads
        towers = [bg._fock_level_spans(F, n, s) for s in spans]
        i = min(2, entry["p_max"]) - 1
        reports.append(bg.compression_channels(F, spans[i], towers[i], rng,
                                               tol=st.tol)[1])
        reports.extend(bg.entropy_bound_report(
            F, bog, spans, towers, entry.get("levels", [n]), rng,
            tol=st.tol))
    return reports


RUNNERS = {
    "fock": run_fock,
    "ideal": run_ideal,
    "factorization": run_factorization,
    "toeplitz": run_toeplitz,
    "crossed": run_crossed,
    "free": run_free,
    "amalg": run_amalg,
    "bog": run_bog,
}


def run_suites(ctx, names, st):
    reports = []
    for name in names:
        reports.extend(RUNNERS[name](ctx, st))
    for rep in reports:
        rep.seed = st.seed
    return reports


def emit(reports, fmt, out, elapsed):
    """Write the reports; returns whether the run passed, which needs at
    least one report and every report passing."""
    passed = bool(reports) and all(r.passed for r in reports)
    if fmt == "json":
        payload = {"passed": passed, "elapsed_seconds": round(elapsed, 3),
                   "reports": [r.as_dict() for r in reports]}
        text = json.dumps(payload, indent=2, default=_jsonable,
                          allow_nan=False)
    else:
        blocks = [r.to_text() for r in reports]
        blocks.append(f"overall: {'PASS' if passed else 'FAIL'}"
                      f" ({len(reports)} reports, {elapsed:.1f}s)")
        text = "\n\n".join(blocks)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return passed


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fockmod",
        description="Verify bimodule, Fock-space, crossed-product, "
                    "free-product and twisted-map identities numerically.")
    parser.add_argument("--instance", help="JSON instance file")
    parser.add_argument("--suite", default="all",
                        choices=SUITES + ("all",),
                        help="which verification suite to run")
    parser.add_argument("--truncation", type=int, default=None,
                        help="Fock truncation level override")
    parser.add_argument("--tol", type=float, default=None,
                        help="residual tolerance")
    parser.add_argument("--seed", type=int, default=None,
                        help="random seed for sampled checks")
    parser.add_argument("--max-word-length", type=int, default=None,
                        help="word length budget for moment checks")
    parser.add_argument("--format", dest="fmt", default="text",
                        choices=("text", "json"), help="report format")
    parser.add_argument("--out", help="write the report to this path")
    args = parser.parse_args(argv)

    try:
        ctx = None
        if args.instance:
            ctx = build_instance(parse_instance(args.instance))
        # a flag overrides the instance parameter, which overrides the
        # Settings default
        params = dict(ctx["parameters"]) if ctx else {}
        flags = {"truncation": args.truncation, "tol": args.tol,
                 "seed": args.seed, "max_word_length": args.max_word_length}
        params.update((k, v) for k, v in flags.items() if v is not None)
        st = Settings(**params)
        names = SUITES if args.suite == "all" else (args.suite,)
        t0 = time.time()
        reports = run_suites(ctx, names, st)
        passed = emit(reports, args.fmt, args.out, time.time() - t0)
        return EXIT_PASS if passed else EXIT_FAIL
    except InstanceError as exc:
        for line in exc.errors:
            print(f"instance error: {line}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (PreconditionError, StructureError) as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())

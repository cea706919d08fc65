"""Command line runner: instance ingestion, suite orchestration, seeded
default instances, and report emission in text or JSON."""

import argparse
import json
import math
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import bogoliubov as bg
from . import crossed as cr
from . import fock as fk
from . import freeprod as fp
from . import instances as ins
from .cstar import (AlgebraAutomorphism, CPLinearMap, CStarAlgebra,
                    ConditionalExpectation, PreconditionError,
                    ResourceCapError, StructureError, identity_automorphism)
from .hilbmod import AugmentedModule, make_bimodule, submodule_projection
from .report import VerificationReport, _jsonable

# last: resident while the package's modules compile, it raises peak RSS
import jsonschema

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
_INDEX = {"type": "integer", "minimum": 0}
_AUTOMORPHISM = {
    "type": "object",
    "properties": {
        "source": {"type": "array", "items": _INDEX},
        "unitaries": {"type": "array", "items": _CMATRIX},
    },
    "additionalProperties": False,
}


def _regular_array(data, dtype):
    """Nested lists into an ndarray; ragged nesting is a StructureError."""
    try:
        return np.asarray(data, dtype)
    except ValueError as exc:
        raise StructureError(f"ragged or non-numeric array: {exc}") from None


def _complex_array(data):
    """Nested lists with [re, im] leaves into a complex ndarray."""
    arr = _regular_array(data, float)
    if arr.shape and arr.shape[-1] == 2:
        return arr[..., 0] + 1j * arr[..., 1]
    return arr.astype(complex)


def _complex_arrays(d, key):
    """Field `key` of `d`, a list of complex arrays; None when absent."""
    return [_complex_array(m) for m in d[key]] if key in d else None


def _automorphism(d, algebra):
    source = [int(s) for s in d["source"]] if "source" in d else None
    return AlgebraAutomorphism(algebra, source=source,
                               unitaries=_complex_arrays(d, "unitaries"))


def _bogoliubov(d, module):
    beta = (_automorphism(d["beta"], module.base) if "beta" in d
            else identity_automorphism(module.base))
    bog = bg.BogoliubovMap(module, _complex_array(d["matrix"]), beta)
    span = None
    if "subspace" in d:
        span = submodule_projection([module.from_flat(_complex_array(v))
                                     for v in d["subspace"]])
    return {"map": bog, "subspace": span, "n": int(d.get("n", 2)),
            "p_max": int(d.get("p_max", 4))}


class _Kind(NamedTuple):
    """One kind of object in an instance file: `refs` maps each field that
    names an object of an earlier kind to that kind; those fields and
    `required` must be present, `optional` may be.  `build` takes the
    descriptor and the named objects, in the order of `refs`."""
    refs: dict
    required: dict
    optional: dict
    build: Callable


KINDS = {
    "algebras": _Kind(
        {}, {"blocks": {"type": "array", "minItems": 1,
                        "items": {"type": "integer", "minimum": 1}}}, {},
        lambda d: CStarAlgebra(tuple(int(n) for n in d["blocks"]))),
    "bimodules": _Kind(
        {"base": "algebras"},
        {"right_multiplicities": {"type": "array", "items": _INDEX},
         "left_multiplicities": {"type": "array", "items": {
             "type": "array", "items": _INDEX}}},
        {"unitaries": {"type": "array", "items": _CMATRIX}},
        lambda d, base: make_bimodule(
            base, tuple(int(r) for r in d["right_multiplicities"]),
            [tuple(int(c) for c in row) for row in d["left_multiplicities"]],
            _complex_arrays(d, "unitaries"))),
    "states": _Kind(
        {"algebra": "algebras"},
        {"densities": {"type": "array", "items": _CMATRIX}}, {},
        lambda d, algebra: ConditionalExpectation.from_densities(
            algebra, _complex_arrays(d, "densities"))),
    "groups": _Kind(
        {}, {"table": {"type": "array", "items": {"type": "array",
                                                  "items": _INDEX}}}, {},
        lambda d: cr.FiniteGroup(_regular_array(d["table"], int))),
    "actions": _Kind(
        {"group": "groups", "algebra": "algebras"},
        {"automorphisms": {"type": "array", "items": _AUTOMORPHISM}}, {},
        lambda d, group, algebra: cr.GroupAction(
            group, algebra, [_automorphism(m, algebra)
                             for m in d["automorphisms"]])),
    "amalgamated": _Kind(
        {"state1": "states", "state2": "states"}, {}, {},
        lambda d, rho1, rho2: (rho1, rho2)),
    "bogoliubov": _Kind(
        {"bimodule": "bimodules"}, {"matrix": _CMATRIX},
        {"beta": _AUTOMORPHISM, "subspace": {"type": "array",
                                             "items": _CVECTOR},
         "n": {"type": "integer", "minimum": 1},
         "p_max": {"type": "integer", "minimum": 1}},
        _bogoliubov),
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
        **{kind: {"type": "object", "additionalProperties": {
            "type": "object",
            "required": [*k.refs, *k.required],
            "properties": {**dict.fromkeys(k.refs, _NAME), **k.required,
                           **k.optional},
            "additionalProperties": False}}
           for kind, k in KINDS.items()},
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
    """Construct the declared objects, kind by kind in the order of KINDS;
    unresolved names or invalid structures become InstanceError.  Levels 0
    and 1 of each bimodule meet the instance's dim_cap before any build."""
    ctx = {"parameters": dict(data.get("parameters", {})),
           "name": data.get("name", "instance")}
    cap = int(ctx["parameters"].get("dim_cap", fk.DEFAULT_DIM_CAP))
    for d in data.get("bimodules", {}).values():
        blocks = data.get("algebras", {}).get(d["base"], {}).get("blocks")
        if blocks:
            left = [[int(c) for c in row] for row in d["left_multiplicities"]]
            fk._check_cap(fk.power_dims([int(n) for n in blocks], left, 1), cap)
    errors = []
    for kind, k in KINDS.items():
        ctx[kind] = {}
        for name, d in data.get(kind, {}).items():
            missing = [f"{kind}/{name}/{field}: unresolved {target[:-1]} "
                       f"'{d[field]}'" for field, target in k.refs.items()
                       if d[field] not in ctx[target]]
            if missing:
                errors += missing
                continue
            try:
                ctx[kind][name] = k.build(d, *(ctx[target][d[field]]
                                               for field, target
                                               in k.refs.items()))
            except (StructureError, PreconditionError) as exc:
                errors.append(f"{kind}/{name}: {exc}")
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


# the Fock-space suites, whose runners also take the (bimodule, N) pairs of
# `_fock_bimodules`
FOCK_SUITES = ("fock", "ideal", "factorization", "toeplitz")


def _fock_bimodules(ctx, st):
    if ctx and ctx["bimodules"]:
        N = st.N(3)
        return [(H, N) for H in ctx["bimodules"].values()]
    return ins.creation_instances(st.seed, count=5)


def run_fock(ctx, st, bimodules):
    rng = st.rng()
    reports = []
    for H, N in bimodules:
        F = fk.FockSpace(H, st.N(N), dim_cap=st.dim_cap)
        rep = fk.creation_relations_check(F, rng, tol=st.tol)
        rep.merge(fk.expectation_properties_check(F, rng, tol=st.tol))
        rep.parameters.update({"N": F.N, "dim": F.dim})
        reports.append(rep)
    return reports


def run_ideal(ctx, st, bimodules):
    rng = st.rng()
    reports = []
    for H, _ in bimodules[:3]:
        N = st.N(4)
        F = fk.FockSpace(H, max(N, 3), dim_cap=st.dim_cap)
        for n in (1, 2):
            rep = fk.ideal_structure_check(F, n, rng, tol=st.tol)
            rep.merge(fk.quotient_dimension_check(F, n, rng, tol=st.tol))
            rep.parameters.update({"N": F.N, "n": n})
            reports.append(rep)
    return reports


def run_factorization(ctx, st, bimodules):
    """Every shape (n, k, j) with 1 <= k(n+1) + j <= L = max_word_length,
    in one `_factorization` call per module."""
    rng = st.rng()
    L = st.max_word_length
    shapes = [(n, k, j) for n in range(L) for k in range(L)
              for j in range(n + 1) if 0 < k * (n + 1) + j <= L]
    if not shapes:
        return []
    reports = []
    for H, _ in bimodules[:2]:
        reports += fk._factorization(H, shapes, rng, st.tol, st.dim_cap)
    return reports


def run_toeplitz(ctx, st, bimodules):
    rng = st.rng()
    candidates = [H for H, _ in bimodules
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
        states = list(ctx["states"].values())
    else:
        states = [ins.random_state(rng, CStarAlgebra((1, 1)))]
    for rho in states[:2]:
        reports.append(fp.toeplitz_state_check(rho, st.N(4), rng, tol=st.tol,
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
        ident = CPLinearMap(algebra, algebra, np.eye(algebra.dim))
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
    _, haar_rep = fp.haar_unitary(N, tol=st.tol)
    rho = ins.random_state(rng, CStarAlgebra((1,)))
    toep = fp.toeplitz_state_check(rho, min(st.N(4), 6), rng, tol=st.tol,
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
        F = fk.FockSpace(bog.domain, max(n, st.N(n)), dim_cap=st.dim_cap)
        reports.append(bg.fock_extension(F, bog, tol=st.tol)[1])
        aug = AugmentedModule(bog.domain)
        bog_t = bg.augmented_bogoliubov(aug, bog)
        Ft = fk.FockSpace(aug.module, min(F.N, 3), dim_cap=st.dim_cap)
        reports.append(bg.fock_extension(Ft, bog_t, xi=aug.xi,
                                         tol=st.tol)[1])
        span = entry["subspace"]
        if span is None:
            basis = bog.domain.basis()
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
    """The reports of the named suites, in order.  The Fock-space suites
    share one list of bimodules, built when the first of them runs."""
    reports, bimodules = [], None
    for name in names:
        args = (ctx, st)
        if name in FOCK_SUITES:
            if bimodules is None:
                bimodules = _fock_bimodules(ctx, st)
            args += (bimodules,)
        reports.extend(RUNNERS[name](*args))
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
        if args.out:
            try:
                open(args.out, "a").close()
            except OSError as exc:
                raise PreconditionError(
                    f"cannot write --out {args.out}: {exc.strerror}")
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

import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fock_reference as fock_ref
from fockmod import cli, fock
from fockmod.cli import (EXIT_FAIL, EXIT_PASS, EXIT_PRECONDITION,
                         EXIT_RESOURCE, SUITES, InstanceError, Settings,
                         build_instance, emit, main, parse_instance,
                         run_suites)
from fockmod.cstar import PreconditionError
from fockmod.fock import FockSpace, LevelOp
from fockmod.hilbmod import TensorStep
from fockmod.instances import creation_instances
from fockmod.report import VerificationReport

EXAMPLE = "instances/example.json"


def write_instance(tmp_path, data, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_fock_suite_passes_on_example_instance(capsys):
    code = main(["--suite", "fock", "--instance", EXAMPLE])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "overall: PASS" in out


def test_crossed_suite_passes_on_example_instance():
    assert main(["--suite", "crossed", "--instance", EXAMPLE]) == EXIT_PASS


def test_json_output_written_to_file(tmp_path):
    out = tmp_path / "report.json"
    code = main(["--suite", "free", "--format", "json", "--out", str(out)])
    assert code == EXIT_PASS
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["reports"]


def test_flags_override_instance_parameters(tmp_path):
    # the instance sets tol 1e-9 and seed 1; no residual is below 1e-30
    out = tmp_path / "report.json"
    code = main(["--instance", EXAMPLE, "--suite", "fock", "--tol", "1e-30",
                 "--seed", "0", "--format", "json", "--out", str(out)])
    assert code == EXIT_FAIL
    reports = json.loads(out.read_text())["reports"]
    assert {r["seed"] for r in reports} == {0}
    assert {c["threshold"] for r in reports for c in r["checks"]} \
        <= {1e-30, 1e-12}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_json_output_is_strict(tmp_path):
    rep = VerificationReport(suite="strict")
    rep.add_bool("fails", "false claim", False)
    rep.add("holds", "x = x", 0.0, 1e-9)
    out = tmp_path / "report.json"
    assert emit([rep], "json", str(out), 0.0) is False
    payload = json.loads(out.read_text(), parse_constant=_reject_constant)
    failed = payload["reports"][0]["checks"][0]
    assert failed["residual"] is None
    assert failed["nonfinite"] == {"residual": "inf"}
    assert "nonfinite" not in payload["reports"][0]["checks"][1]


def test_every_check_in_json_has_its_margin(tmp_path):
    out = tmp_path / "report.json"
    code = main(["--suite", "all", "--truncation", "3", "--format", "json",
                 "--out", str(out)])
    assert code == EXIT_PASS
    payload = json.loads(out.read_text(), parse_constant=_reject_constant)
    checks = [c for r in payload["reports"] for c in r["checks"]]
    assert checks and all("margin" in c for c in checks)
    for c in checks:
        if c["threshold"] == 0:
            assert c["margin"] is None
        else:
            assert c["margin"] == c["residual"] / c["threshold"]


def test_margin_is_null_for_boolean_and_nonfinite_checks():
    rep = VerificationReport(suite="margins")
    rep.add_bool("holds", "true claim", True)
    rep.add("half", "x = x", 0.5e-9, 1e-9)
    rep.add("nan", "x = x", float("nan"), 1e-9)
    assert [c.as_dict()["margin"] for c in rep.checks] == [None, 0.5, None]


def test_empty_report_does_not_pass():
    assert not VerificationReport(suite="empty").passed


MAT2 = {"m2": {"blocks": [2]}}
TWICE_I2 = [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]

# (instance, text in the error output); each must exit 2 without a traceback
MALFORMED = [
    ({"name": "short-lists",
      "algebras": {"pair": {"blocks": [1, 1]}},
      "bimodules": {"swap": {"base": "pair",
                             "right_multiplicities": [1, 1],
                             "left_multiplicities": [[0, 1], [1, 0]],
                             "unitaries": [[[[1.0, 0.0]]]]}},
      "states": {"half": {"algebra": "pair",
                          "densities": [[[[1.0, 0.0]]]]}}},
     ["bimodules/swap", "states/half"]),
    ({"name": "ragged-density", "algebras": MAT2,
      "states": {"s": {"algebra": "m2", "densities": [
          [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]]}}},
     ["states/s"]),
    ({"name": "ragged-unitary", "algebras": MAT2,
      "bimodules": {"h": {"base": "m2", "right_multiplicities": [2],
                          "left_multiplicities": [[1]],
                          "unitaries": [[[[1.0, 0.0], [0.0, 0.0]],
                                         [[0.0, 0.0]]]]}}},
     ["bimodules/h"]),
    ({"name": "ragged-table", "groups": {"g": {"table": [[0, 1], [1]]}}},
     ["groups/g"]),
    ({"name": "nan-density", "algebras": {"c": {"blocks": [1]}},
      "states": {"s": {"algebra": "c",
                       "densities": [[[[float("nan"), 0.0]]]]}}},
     ["malformed JSON", "NaN"]),
    ({"name": "infinite-tol", "parameters": {"tol": float("inf")}},
     ["malformed JSON", "Infinity"]),
    ('{"name": "overflowing-tol", "parameters": {"tol": 1e400}}',
     ["malformed JSON", "1e400"]),
    ({"name": "non-unitary-bimodule", "algebras": MAT2,
      "bimodules": {"h": {"base": "m2", "right_multiplicities": [2],
                          "left_multiplicities": [[1]],
                          "unitaries": [TWICE_I2]}}},
     ["instance error: bimodules/h: basis change is not unitary"]),
    ({"name": "non-unitary-action", "algebras": MAT2,
      "groups": {"g": {"table": [[0]]}},
      "actions": {"act": {"group": "g", "algebra": "m2",
                          "automorphisms": [{"unitaries": [TWICE_I2]}]}}},
     ["instance error: actions/act: basis change is not unitary"]),
    ({"name": "non-unitary-beta", "algebras": MAT2,
      "bimodules": {"h": {"base": "m2", "right_multiplicities": [2],
                          "left_multiplicities": [[1]]}},
      "bogoliubov": {"u": {"bimodule": "h",
                           "matrix": [[[float(r == c), 0.0] for c in range(4)]
                                      for r in range(4)],
                           "beta": {"unitaries": [TWICE_I2]}}}},
     ["instance error: bogoliubov/u: basis change is not unitary"]),
]


def test_wrong_length_lists_are_input_errors(tmp_path, capsys):
    for i, (data, names) in enumerate(MALFORMED):
        path = tmp_path / f"inst{i}.json"
        path.write_text(data if isinstance(data, str) else json.dumps(data))
        code = main(["--suite", "toeplitz", "--instance", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_PRECONDITION, names
        assert all(name in err for name in names), err
        assert "Traceback" not in err


_NUM = st.integers(-2, 2) | st.floats(-2, 2, allow_nan=False)
_CMATRIX = st.lists(st.lists(st.lists(_NUM, min_size=2, max_size=2),
                             max_size=3), max_size=3)
_INDICES = st.lists(st.integers(0, 2), max_size=3)
_AUTOMORPHISM = st.fixed_dictionaries(
    {}, optional={"source": _INDICES,
                  "unitaries": st.lists(_CMATRIX, max_size=2)})
_DESCRIPTOR = st.fixed_dictionaries({
    "name": st.just("fuzz"),
    "algebras": st.fixed_dictionaries({"a": st.fixed_dictionaries({
        "blocks": st.lists(st.integers(1, 2), min_size=1, max_size=2)})}),
}, optional={
    "bimodules": st.fixed_dictionaries({"h": st.fixed_dictionaries({
        "base": st.just("a"),
        "right_multiplicities": _INDICES,
        "left_multiplicities": st.lists(_INDICES, max_size=3),
    }, optional={"unitaries": st.lists(_CMATRIX, max_size=2)})}),
    "states": st.fixed_dictionaries({"s": st.fixed_dictionaries({
        "algebra": st.just("a"),
        "densities": st.lists(_CMATRIX, max_size=2)})}),
    "groups": st.fixed_dictionaries({"g": st.fixed_dictionaries({
        "table": st.lists(_INDICES, max_size=3)})}),
    "actions": st.fixed_dictionaries({"act": st.fixed_dictionaries({
        "group": st.just("g"), "algebra": st.just("a"),
        "automorphisms": st.lists(_AUTOMORPHISM, max_size=2)})}),
    "amalgamated": st.fixed_dictionaries({"p": st.fixed_dictionaries({
        "state1": st.just("s"), "state2": st.just("s")})}),
    "bogoliubov": st.fixed_dictionaries({"u": st.fixed_dictionaries({
        "bimodule": st.just("h"), "matrix": _CMATRIX,
    }, optional={"beta": _AUTOMORPHISM,
                 "subspace": st.lists(st.lists(
                     st.lists(_NUM, min_size=2, max_size=2), max_size=4),
                     max_size=2)})}),
})


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_DESCRIPTOR)
def test_schema_valid_descriptors_build_or_report(tmp_path, data):
    # small schema-valid descriptors, ragged ones included: building either
    # succeeds or names what is wrong; no suite runs, so no Fock space
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(data))
    try:
        build_instance(parse_instance(str(path)))
    except InstanceError:
        pass


@pytest.mark.parametrize("flags", [
    ["--tol", "inf"], ["--tol", "nan"], ["--tol", "-1"], ["--tol", "0"],
    ["--max-word-length", "0"], ["--seed", "-1"], ["--truncation", "-1"],
])
def test_out_of_range_flags_are_input_errors(flags, capsys):
    code = main(["--suite", "factorization"] + flags)
    err = capsys.readouterr().err
    assert code == EXIT_PRECONDITION
    assert flags[0].lstrip("-").replace("-", "_") in err


def test_settings_bounds():
    with pytest.raises(PreconditionError):
        Settings(dim_cap=0)
    st_ = Settings(truncation=None, seed=4)
    assert (st_.truncation, st_.seed, st_.tol) == (None, 4, 1e-9)


def test_empty_run_does_not_pass(tmp_path):
    assert emit([], "json", str(tmp_path / "empty.json"), 0.0) is False



def test_schema_violation_names_the_field(tmp_path, capsys):
    path = write_instance(tmp_path, {
        "name": "bad",
        "algebras": {"a": {"blocks": [-1]}},
    })
    code = main(["--suite", "fock", "--instance", path])
    err = capsys.readouterr().err
    assert code == EXIT_PRECONDITION
    assert "blocks" in err


# an instance with one object of every kind; each reference resolves
_ALL_KINDS = {
    "name": "all-kinds",
    "algebras": {"c": {"blocks": [1]}, "pair": {"blocks": [1, 1]}},
    "bimodules": {"h": {"base": "pair", "right_multiplicities": [1, 1],
                        "left_multiplicities": [[0, 1], [1, 0]]}},
    "states": {"s": {"algebra": "c", "densities": [[[[1.0, 0.0]]]]}},
    "groups": {"g": {"table": [[0]]}},
    "actions": {"act": {"group": "g", "algebra": "c",
                        "automorphisms": [{}]}},
    "amalgamated": {"p": {"state1": "s", "state2": "s"}},
    "bogoliubov": {"u": {"bimodule": "h",
                         "matrix": [[[0.0, 0.0], [1.0, 0.0]],
                                    [[1.0, 0.0], [0.0, 0.0]]],
                         "beta": {"source": [1, 0]}}},
}


def test_every_kind_builds(tmp_path):
    ctx = build_instance(parse_instance(write_instance(tmp_path,
                                                       _ALL_KINDS)))
    assert all(ctx[kind] for kind in _ALL_KINDS if kind != "name")


@pytest.mark.parametrize("kind, name, field, target", [
    ("bimodules", "h", "base", "algebra"),
    ("states", "s", "algebra", "algebra"),
    ("actions", "act", "group", "group"),
    ("actions", "act", "algebra", "algebra"),
    ("amalgamated", "p", "state1", "state"),
    ("amalgamated", "p", "state2", "state"),
    ("bogoliubov", "u", "bimodule", "bimodule"),
])
def test_unresolved_reference_is_reported(tmp_path, capsys, kind, name,
                                          field, target):
    data = json.loads(json.dumps(_ALL_KINDS))
    data[kind][name][field] = "missing"
    path = write_instance(tmp_path, data)
    code = main(["--suite", "fock", "--instance", path])
    err = capsys.readouterr().err
    assert code == EXIT_PRECONDITION
    assert (f"instance error: {kind}/{name}/{field}: unresolved {target} "
            f"'missing'") in err.splitlines()
    assert "Traceback" not in err


def _integral_floats(data):
    """The example instance with every integer field written as a float."""
    data = json.loads(json.dumps(data))
    data["parameters"]["truncation"] = float(data["parameters"]["truncation"])
    for alg in data["algebras"].values():
        alg["blocks"] = [float(n) for n in alg["blocks"]]
    for mod in data["bimodules"].values():
        mod["right_multiplicities"] = [float(r)
                                       for r in mod["right_multiplicities"]]
        mod["left_multiplicities"] = [[float(c) for c in row] for row in
                                      mod["left_multiplicities"]]
    for group in data["groups"].values():
        group["table"] = [[float(g) for g in row] for row in group["table"]]
    for action in data["actions"].values():
        for auto in action["automorphisms"]:
            if "source" in auto:
                auto["source"] = [float(s) for s in auto["source"]]
    for bog in data["bogoliubov"].values():
        bog["beta"]["source"] = [float(s) for s in bog["beta"]["source"]]
        bog["n"], bog["p_max"] = float(bog["n"]), float(bog["p_max"])
    return data


def test_integral_floats_read_as_integers(tmp_path):
    """Integer fields written as 1.0, 2.0, ... are valid integers and give
    the example's checks, residuals and exit codes."""
    with open(EXAMPLE) as fh:
        data = json.load(fh)
    floats = write_instance(tmp_path, _integral_floats(data), "floats.json")
    assert "[1.0, 0.0]" in (tmp_path / "floats.json").read_text()

    def run(path, suite):
        out = tmp_path / "report.json"
        code = main(["--suite", suite, "--instance", path, "--format",
                     "json", "--out", str(out)])
        return code, [[(c["name"], c["passed"], c["residual"])
                       for c in r["checks"]]
                      for r in json.loads(out.read_text())["reports"]]

    for suite in ("fock", "toeplitz", "crossed", "bog"):
        assert run(floats, suite) == run(EXAMPLE, suite), suite


def test_unwritable_out_is_refused_before_any_suite(tmp_path, capsys,
                                                    monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "run_suites", refuse)
    out = str(tmp_path / "missing" / "x.json")
    code = main(["--suite", "free", "--out", out])
    err = capsys.readouterr().err
    assert code == EXIT_PRECONDITION
    assert len(err.splitlines()) == 1 and out in err
    assert "Traceback" not in err


def test_dimension_cap_exit_code(tmp_path):
    path = write_instance(tmp_path, {
        "name": "too-big",
        "parameters": {"truncation": 4, "dim_cap": 10},
        "algebras": {"c": {"blocks": [1]}},
        "bimodules": {"plane": {"base": "c",
                                "right_multiplicities": [2],
                                "left_multiplicities": [[2]]}},
    })
    assert main(["--suite", "fock", "--instance", path]) == EXIT_RESOURCE


def test_large_amalgamated_instance_hits_the_cap_fast(tmp_path, capsys):
    """Two normalized traces on M_5: the bimodule of eta is read off a
    10 x 10 Choi matrix, so the cap on the Fock space of A = M_5 + M_5 is
    reached at once."""
    trace = [[[0.2 if a == b else 0.0, 0.0] for b in range(5)]
             for a in range(5)]
    path = write_instance(tmp_path, {
        "name": "m5-traces",
        "algebras": {"m5": {"blocks": [5]}},
        "states": {"tr1": {"algebra": "m5", "densities": [trace]},
                   "tr2": {"algebra": "m5", "densities": [trace]}},
        "amalgamated": {"m5-m5": {"state1": "tr1", "state2": "tr2"}},
    })
    t0 = time.perf_counter()
    code = main(["--suite", "amalg", "--instance", path])
    elapsed = time.perf_counter() - t0
    err = capsys.readouterr().err
    assert code == EXIT_RESOURCE
    assert err == "resource cap: localized dimension 32550 exceeds the cap " \
        "20000\n"
    assert elapsed < 10.0


@pytest.mark.parametrize("copies", [2000, 2000.0])
def test_dimension_cap_is_checked_before_a_bimodule_is_built(tmp_path,
                                                            capsys, copies):
    """Levels 0 and 1 of a declared bimodule are held to the cap from its
    multiplicities, integral floats read as integers: right multiplicity
    2,000 over C is refused at once, not after building and validating
    the 2,000-dimensional module."""
    path = write_instance(tmp_path, {
        "name": "huge",
        "parameters": {"dim_cap": 10},
        "algebras": {"c": {"blocks": [1]}},
        "bimodules": {"wide": {"base": "c",
                               "right_multiplicities": [2000],
                               "left_multiplicities": [[copies]]}},
    })
    t0 = time.perf_counter()
    code = main(["--suite", "crossed", "--instance", path])
    elapsed = time.perf_counter() - t0
    err = capsys.readouterr().err
    assert code == EXIT_RESOURCE
    assert err == "resource cap: localized dimension 2001 exceeds the cap " \
        "10\n"
    assert elapsed < 5.0


@pytest.mark.parametrize("suite", ["free", "factorization"])
def test_dimension_cap_reaches_free_and_factorization(tmp_path, capsys,
                                                      suite):
    path = write_instance(tmp_path, {
        "name": "capped",
        "parameters": {"dim_cap": 10},
        "algebras": {"c": {"blocks": [1]}},
        "bimodules": {"plane": {"base": "c",
                                "right_multiplicities": [2],
                                "left_multiplicities": [[2]]}},
    })
    code = main(["--suite", suite, "--instance", path, "--truncation", "300"])
    err = capsys.readouterr().err
    assert code == EXIT_RESOURCE
    assert "exceeds the cap 10" in err
    assert "Traceback" not in err


def test_factorization_cap_counts_the_vacuum_level(tmp_path, capsys):
    # levels 1..3 of the plane have dimensions 2 + 4 + 8 = 14: within the
    # cap when only the levels above the vacuum counted, 15 with level 0
    path = write_instance(tmp_path, {
        "name": "vacuum-counts",
        "parameters": {"dim_cap": 14, "max_word_length": 3},
        "algebras": {"c": {"blocks": [1]}},
        "bimodules": {"plane": {"base": "c",
                                "right_multiplicities": [2],
                                "left_multiplicities": [[2]]}},
    })
    code = main(["--suite", "factorization", "--instance", path])
    err = capsys.readouterr().err
    assert code == EXIT_RESOURCE
    assert "15 exceeds the cap 14" in err


def test_factorization_cap_is_checked_before_any_tensor_step(tmp_path, capsys,
                                                            monkeypatch):
    # levels 0..5 of the plane have dimensions 1 + 2 + ... + 32 = 63: the
    # shapes below level 5 fit in the cap, the tower to level 5 does not
    path = write_instance(tmp_path, {
        "name": "one-below",
        "parameters": {"dim_cap": 62, "max_word_length": 5},
        "algebras": {"c": {"blocks": [1]}},
        "bimodules": {"plane": {"base": "c",
                                "right_multiplicities": [2],
                                "left_multiplicities": [[2]]}},
    })
    steps = []
    init = TensorStep.__init__

    def counted(self, *args, **kwargs):
        steps.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TensorStep, "__init__", counted)
    code = main(["--suite", "factorization", "--instance", path])
    assert code == EXIT_RESOURCE
    assert "63 exceeds the cap 62" in capsys.readouterr().err
    assert steps == []


def _factorization_shapes(L):
    return [(n, k, j) for n in range(L) for k in range(L)
            for j in range(n + 1) if 0 < k * (n + 1) + j <= L]


def test_factorization_builds_each_tower_once(monkeypatch):
    """Per module, one tower of M and one tower of each level n + 1: at most
    2 (1 + max_word_length) Fock spaces for the suite's two modules."""
    built = []
    init = FockSpace.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FockSpace, "__init__", counted)
    st = Settings(seed=25)
    reports = run_suites(None, ("factorization",), st)
    assert len(reports) == 2 * len(_factorization_shapes(st.max_word_length))
    assert all(r.passed for r in reports)
    assert len(built) <= 2 * (1 + st.max_word_length)


def test_shared_towers_give_the_per_shape_residuals():
    """The suite's reports are those of `fock_factorization_check` called
    shape by shape, with its own towers, on the same rng stream."""
    st = Settings(seed=25)
    got = run_suites(None, ("factorization",), st)
    rng = np.random.default_rng(st.seed)
    want = [fock_ref.fock_factorization_check(H, n, k, j, rng, tol=st.tol)
            for H, _ in creation_instances(st.seed, count=5)[:2]
            for n, k, j in _factorization_shapes(st.max_word_length)]

    def rows(reports):
        return [(r.parameters, [(c.name, c.passed, c.residual)
                                for c in r.checks]) for r in reports]

    assert rows(got) == rows(want)


def _factorization_run(run, seed, max_word_length, bimodules):
    """The reports of a factorization suite runner, and the state of the
    rng it drew from after the run."""
    st = Settings(seed=seed, max_word_length=max_word_length)
    rng = st.rng()
    st.rng = lambda: rng
    return run(st, bimodules), rng.bit_generator.state


@pytest.mark.parametrize("seed", [0, 3, 25, 50, 54])
def test_factorization_suite_matches_the_per_shape_reference(seed):
    """The suite, one `_factorization` call per tower, gives the reports of
    the per-shape reference loop in order, from the same rng stream, with
    the Gram residuals equal up to rounding."""
    bimodules = creation_instances(seed, count=5)
    for L in range(1, 6):
        got, got_state = _factorization_run(
            lambda st, b: cli.run_factorization(None, st, b), seed, L,
            bimodules)
        want, want_state = _factorization_run(fock_ref.run_factorization,
                                              seed, L, bimodules)
        assert got_state == want_state
        assert [(r.suite, r.parameters,
                 [(c.name, c.passed, c.details) for c in r.checks])
                for r in got] == \
            [(r.suite, r.parameters,
              [(c.name, c.passed, c.details) for c in r.checks])
             for r in want]
        for a, b in zip(got, want):
            for x, y in zip(a.checks, b.checks):
                if x.name == "gram-equality":
                    assert abs(x.residual - y.residual) <= 1e-15
                else:
                    assert x.residual == y.residual


def test_factorization_defect_in_one_shape_fails_that_shape_alone(
        monkeypatch):
    """A right side scaled by 2 in the cross step of the shape (2, 1, 2)
    fails that shape's Gram equality and moves no other shape's residual,
    so the norms taken together at the end go back to their own shapes."""
    st = Settings(seed=25)
    bimodules = creation_instances(st.seed, count=5)
    clean = cli.run_factorization(None, st, bimodules)
    tensor, built = TensorStep.tensor, []

    class Recorded(fock.FockSpace):
        """A Fock space that records itself once built."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    def towers():
        """The towers of M, one per module checked."""
        return [T for T in built if any(T.bimodule is H for H, _ in bimodules)]

    def planted(self, Hs, Ks):
        out = tensor(self, Hs, Ks)
        if any(self.H is T.levels[2] and self.K is Y.levels[1]
               for T in towers() for Y in built if Y.bimodule is T.levels[3]):
            return 2 * out
        return out

    monkeypatch.setattr(fock, "FockSpace", Recorded)
    monkeypatch.setattr(TensorStep, "tensor", planted)
    planted_run = cli.run_factorization(None, st, bimodules)
    assert len(towers()) == 2
    assert [r.parameters for r in planted_run] == \
        [r.parameters for r in clean]
    failed = [(r.parameters, c.name) for r in planted_run
              for c in r.checks if not c.passed]
    assert failed == [({"n": 2, "k": 1, "j": 2}, "gram-equality")] * 2
    for a, b in zip(planted_run, clean):
        if a.parameters != {"n": 2, "k": 1, "j": 2}:
            assert [(c.name, c.residual) for c in a.checks] == \
                [(c.name, c.residual) for c in b.checks]


def _traced_peak(run):
    """The tracemalloc peak, in bytes, of one call of run."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_factorization_suite_memory_stays_at_the_per_shape_loop():
    """Folding shape by shape keeps the suite's traced peak within a
    quarter of the per-shape reference loop's.  One untraced run first, so
    that neither peak holds what the first run of the process allocates
    once."""
    st = Settings(seed=54)
    run_suites(None, ("factorization",), st)
    want = _traced_peak(lambda: fock_ref.run_factorization(
        st, cli._fock_bimodules(None, st)))
    got = _traced_peak(lambda: run_suites(None, ("factorization",), st))
    assert got <= 1.25 * want


@pytest.mark.parametrize("truncation", ["0", "1"])
@pytest.mark.parametrize("suite", ["fock", "ideal", "factorization",
                                   "toeplitz", "free", "crossed", "bog"])
def test_lowest_truncations_never_fail(capsys, suite, truncation):
    """At N = 0 and 1 every suite passes or refuses the input (exit 2);
    none reports a failed identity or raises."""
    code = main(["--suite", suite, "--truncation", truncation])
    assert code in (EXIT_PASS, EXIT_PRECONDITION), capsys.readouterr().out


def test_no_suite_builds_a_dense_fock_operator(monkeypatch):
    """Every Fock-space operator of every suite stays a level operator:
    none is multiplied out into a Fock-size matrix."""
    def refuse(self):
        raise AssertionError("dense Fock-size operator built")

    monkeypatch.setattr(LevelOp, "dense", refuse)
    for suite in SUITES:
        reports = run_suites(None, (suite,), Settings(truncation=3))
        assert reports and all(r.passed for r in reports), suite


class _NoFockSizeDraws:
    """An rng that refuses a Gaussian draw of shape (d, d) for the
    dimension d of any Fock space with N >= 1 in `dims`, and otherwise
    draws as the generator it wraps."""

    def __init__(self, rng, dims):
        self._rng, self._dims = rng, dims

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def standard_normal(self, size=None, *args, **kwargs):
        shape = tuple(np.atleast_1d(size)) if size is not None else ()
        if len(shape) == 2 and shape[0] == shape[1] \
                and shape[0] in self._dims:
            raise AssertionError(f"Fock-size draw of shape {shape}")
        return self._rng.standard_normal(size, *args, **kwargs)


def test_no_suite_draws_a_fock_size_matrix(monkeypatch):
    """Every random operator on a Fock space is drawn level block by level
    block: no suite draws a (dim, dim) Gaussian matrix for a Fock space it
    built."""
    dims = set()
    init = FockSpace.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.N >= 1:
            dims.add(self.dim)

    monkeypatch.setattr(FockSpace, "__init__", recorded)
    monkeypatch.setattr(Settings, "rng", lambda self: _NoFockSizeDraws(
        np.random.default_rng(self.seed), dims))
    for suite in SUITES:
        dims.clear()
        reports = run_suites(None, (suite,), Settings(truncation=3))
        assert reports and all(r.passed for r in reports), suite


def test_dimension_cap_reaches_toeplitz_state(tmp_path, capsys):
    path = write_instance(tmp_path, {
        "name": "capped-state",
        "parameters": {"dim_cap": 10},
        "algebras": {"c": {"blocks": [1]}, "mat2": {"blocks": [2]}},
        "bimodules": {"line": {"base": "c",
                               "right_multiplicities": [1],
                               "left_multiplicities": [[1]]}},
        "states": {"trace": {"algebra": "mat2",
                             "densities": [[[[0.5, 0.0], [0.0, 0.0]],
                                            [[0.0, 0.0], [0.5, 0.0]]]]}},
    })
    code = main(["--suite", "toeplitz", "--instance", path,
                 "--truncation", "3"])
    err = capsys.readouterr().err
    assert code == EXIT_RESOURCE
    assert "exceeds the cap 10" in err
    assert "Traceback" not in err


def test_tol_flag_reaches_quotient_kernel_check(tmp_path):
    out = tmp_path / "report.json"
    for suite, name in [("ideal", "ideal-in-quotient-kernel"),
                        ("free", "unitarity")]:
        main(["--suite", suite, "--tol", "1e-30", "--format", "json",
              "--out", str(out)])
        checks = [c for r in json.loads(out.read_text())["reports"]
                  for c in r["checks"] if c["name"] == name]
        assert checks
        assert {c["threshold"] for c in checks} == {1e-30}


def test_invalid_twisted_map_fails(tmp_path, capsys):
    path = write_instance(tmp_path, {
        "name": "bad-twist",
        "parameters": {"truncation": 2},
        "algebras": {"pair": {"blocks": [1, 1]}},
        "bimodules": {"swap": {"base": "pair",
                               "right_multiplicities": [1, 1],
                               "left_multiplicities": [[0, 1], [1, 0]]}},
        "bogoliubov": {"stretch": {
            "bimodule": "swap",
            "matrix": [[[0.0, 0.0], [2.0, 0.0]], [[2.0, 0.0], [0.0, 0.0]]],
            "beta": {"source": [1, 0]},
        }},
    })
    code = main(["--suite", "bog", "--instance", path])
    out = capsys.readouterr().out
    assert code == EXIT_FAIL
    assert "overall: FAIL" in out
    assert "inner-twist" in out


def test_zero_growth_subspace_is_a_precondition_error(tmp_path, capsys):
    path = write_instance(tmp_path, {
        "name": "zero-subspace",
        "parameters": {"truncation": 2},
        "algebras": {"pair": {"blocks": [1, 1]}},
        "bimodules": {"swap": {"base": "pair",
                               "right_multiplicities": [1, 1],
                               "left_multiplicities": [[0, 1], [1, 0]]}},
        "bogoliubov": {"flip": {
            "bimodule": "swap",
            "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
            "beta": {"source": [1, 0]},
            "subspace": [[[0.0, 0.0], [0.0, 0.0]]],
        }},
    })
    code = main(["--suite", "bog", "--instance", path])
    err = capsys.readouterr().err
    assert code == EXIT_PRECONDITION
    assert "growth subspace K is zero" in err
    assert "Traceback" not in err


def test_amalg_refuses_word_length_below_two(monkeypatch, capsys):
    """At --max-word-length 1 the freeness checks have no pattern to
    check; the run is refused before anything is built."""
    from fockmod import freeprod

    def refuse(*args, **kwargs):
        raise AssertionError("amalgamated setup built")

    monkeypatch.setattr(freeprod, "amalg_setup", refuse)
    code = main(["--suite", "amalg", "--truncation", "3",
                 "--max-word-length", "1"])
    assert code == EXIT_PRECONDITION
    assert "max-word-length" in capsys.readouterr().err


def test_unknown_suite_rejected():
    try:
        main(["--suite", "nonsense"])
    except SystemExit as exc:
        assert exc.code == 2
    else:
        raise AssertionError("argparse should reject an unknown suite")

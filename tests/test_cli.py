import json

from fockmod.cli import (EXIT_FAIL, EXIT_PASS, EXIT_PRECONDITION,
                         EXIT_RESOURCE, emit, main)
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


def test_empty_report_does_not_pass():
    assert not VerificationReport(suite="empty").passed


def test_wrong_length_lists_are_input_errors(tmp_path, capsys):
    path = write_instance(tmp_path, {
        "name": "short-lists",
        "algebras": {"pair": {"blocks": [1, 1]}},
        "bimodules": {"swap": {"base": "pair",
                               "right_multiplicities": [1, 1],
                               "left_multiplicities": [[0, 1], [1, 0]],
                               "unitaries": [[[[1.0, 0.0]]]]}},
        "states": {"half": {"algebra": "pair",
                            "densities": [[[[1.0, 0.0]]]]}},
    })
    code = main(["--suite", "toeplitz", "--instance", path])
    err = capsys.readouterr().err
    assert code == EXIT_PRECONDITION
    assert "bimodules/swap" in err and "states/half" in err
    assert "Traceback" not in err


def test_schema_violation_names_the_field(tmp_path, capsys):
    path = write_instance(tmp_path, {
        "name": "bad",
        "algebras": {"a": {"blocks": [-1]}},
    })
    code = main(["--suite", "fock", "--instance", path])
    err = capsys.readouterr().err
    assert code == EXIT_PRECONDITION
    assert "blocks" in err


def test_unresolved_reference_is_reported(tmp_path, capsys):
    path = write_instance(tmp_path, {
        "name": "dangling",
        "algebras": {"a": {"blocks": [1]}},
        "bimodules": {"h": {"base": "missing",
                            "right_multiplicities": [1],
                            "left_multiplicities": [[1]]}},
    })
    code = main(["--suite", "fock", "--instance", path])
    err = capsys.readouterr().err
    assert code == EXIT_PRECONDITION
    assert "missing" in err


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


def test_unknown_suite_rejected():
    try:
        main(["--suite", "nonsense"])
    except SystemExit as exc:
        assert exc.code == 2
    else:
        raise AssertionError("argparse should reject an unknown suite")

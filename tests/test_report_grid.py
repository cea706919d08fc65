import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "report_grid.py"
_SPEC = importlib.util.spec_from_file_location("report_grid", _PATH)
report_grid = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_grid)


def _run(suite, seed, checks, error=None):
    request = {"suite": suite, "seed": seed, "truncation": None}
    if error:
        return {**request, "error": error}
    return {**request, "reports": [{
        "suite": suite + "-report", "parameters": {"N": 3}, "seed": seed,
        "checks": [{"name": name, "passed": passed, "residual": residual,
                    "threshold": "1e-09", "details": {}}
                   for name, passed, residual in checks]}]}


def test_compare_lists_fields_then_residual_moves(tmp_path, capsys):
    """Residuals that moved are counted, with the largest move; every other
    field that differs is named by its path, and makes the exit code 1."""
    a = [_run("fock", 0, [("x", True, "1e-16"), ("y", True, "0.0")]),
         _run("bog", 3, [], error=["PreconditionError", "too deep"])]
    b = [_run("fock", 0, [("x", True, "1.5e-16"), ("y", True, "2e-16")]),
         _run("bog", 3, [], error=["PreconditionError", "too deep"])]
    paths = []
    for name, dump in (("a", a), ("b", b)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(dump))
    assert report_grid.main(["compare", str(paths[0]), str(paths[1])]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "residuals moved: 2, largest move: 2e-16"]
    b[0]["reports"][0]["checks"][1]["passed"] = False
    b[1]["error"] = ["ResourceCapError", "too deep"]
    del b[0]["reports"][0]["parameters"]["N"]
    paths[1].write_text(json.dumps(b))
    assert report_grid.main(["compare", str(paths[0]), str(paths[1])]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "suite=fock seed=0 truncation=None/reports/0/checks/1/passed: "
        "True != False",
        "suite=fock seed=0 truncation=None/reports/0/parameters/N: only in A",
        "suite=bog seed=3 truncation=None/error/0: 'PreconditionError' != "
        "'ResourceCapError'",
        "residuals moved: 2, largest move: 2e-16"]
    assert report_grid.main(["compare", str(paths[0]), str(paths[0])]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "residuals moved: 0, largest move: 0.0"]

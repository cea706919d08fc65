"""Import hygiene of the package, checked with the standard library's ast:
every public name resolves, and no module imports a name it never uses."""

import ast
from pathlib import Path

import fockmod

SRC = Path(fockmod.__file__).parent


def test_public_names_resolve():
    assert [n for n in fockmod.__all__ if not hasattr(fockmod, n)] == []


def _imports(tree):
    """(bound name, line) for every import statement in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    """Names a module reads, plus the names its __all__ re-exports."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)}
    return used


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used(tree)
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in _imports(tree) if name not in used]
    assert unused == []


def _definitions(tree):
    """Module-level functions and classes, and the methods and properties
    of those classes, dunders apart."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (f"{node.name}.{item.name}" for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__"))


def test_every_definition_is_referenced():
    """Every module-level function and class of the package, and every
    method and property of such a class, is named somewhere in src/, tests/
    or bench/ outside its own definition: as a name, an attribute or an
    imported name."""
    root = SRC.parent.parent
    defined = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [(path.name, name) for name in _definitions(tree)]
    referenced = set()
    for part in ("src", "tests", "bench"):
        for path in (root / part).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, ast.alias):
                    referenced.add(node.name)
    assert [f"{module}: {name}" for module, name in defined
            if name.rsplit(".", 1)[-1] not in referenced] == []

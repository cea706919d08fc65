"""Import hygiene of the package, checked with the standard library's ast:
the package binds nothing but its submodules, no module imports a name it
never uses, singular values are taken in one place, and no map is written
by formula."""

import ast
from pathlib import Path

import fockmod

SRC = Path(fockmod.__file__).parent


def test_package_binds_only_its_submodules():
    """Every name is imported from the module that defines it: the package
    file holds its docstring alone, and the package binds no public name
    but its submodules."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert [ast.get_docstring(tree) is not None, len(tree.body)] == [True, 1]
    submodules = {path.stem for path in SRC.glob("*.py")}
    assert {n for n in vars(fockmod) if not n.startswith("_")} <= submodules


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


# Kept in src/ with no caller there, as the reference the tests compare
# level operators with.
TEST_REFERENCES = {("fock.py", "LevelOp.dense")}


def test_every_definition_is_referenced():
    """Every module-level function and class of the package, and every
    method and property of such a class, is named somewhere in src/, bench/
    or tools/ outside its own definition: as a name, an attribute or an
    imported name.  What only tests call lives in tests/, but for
    `TEST_REFERENCES`."""
    root = SRC.parent.parent
    defined = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [(path.name, name) for name in _definitions(tree)]
    referenced = set()
    for part in ("src", "bench", "tools"):
        for path in (root / part).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, ast.alias):
                    referenced.add(node.name)
    assert [f"{module}: {name}" for module, name in defined
            if name.rsplit(".", 1)[-1] not in referenced
            and (module, name) not in TEST_REFERENCES] == []


def _defaulted_parameters(tree):
    """(callable name, owning class or None, parameter, positional index or
    None) for every defaulted parameter of a module-level function or of a
    method of a module-level class; the index leaves self and cls out."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from _defaulted(node, None, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    yield from _defaulted(item, node.name, 0 if static else 1)


def _defaulted(fn, owner, bound):
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    for index, arg in enumerate(positional[first:], first):
        yield fn.name, owner, arg.arg, index - bound
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield fn.name, owner, arg.arg, None


def _calls():
    """(called name, enclosing class or None, call) for every call in src/,
    tests/ and bench/; the name is the bare name or the attribute."""
    root = SRC.parent.parent

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = (f.id if isinstance(f, ast.Name)
                        else f.attr if isinstance(f, ast.Attribute) else None)
                yield name, owner, child
            yield from visit(child, child.name
                             if isinstance(child, ast.ClassDef) else owner)

    for part in ("src", "tests", "bench"):
        for path in (root / part).rglob("*.py"):
            yield from visit(ast.parse(path.read_text()), None)


def _sets(call, param, index):
    """Whether a call passes the parameter: by keyword, by position, or
    through * or **."""
    return (any(k.arg in (param, None) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or (index is not None and len(call.args) > index))


def test_every_default_is_overridden_somewhere():
    """Every defaulted parameter of a function or method in src/ is passed by
    some call in src/, tests/ or bench/, matched by name; a call of the class,
    or of cls inside it, is a call of its __init__.  A default that no call
    overrides is a configuration no test or benchmark covers."""
    calls = {}
    for name, owner, call in _calls():
        key = (owner, "__init__") if name == "cls" else name
        calls.setdefault(key, []).append(call)
    unset = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn, owner, param, index in _defaulted_parameters(tree):
            found = (calls.get(owner, []) + calls.get((owner, "__init__"), [])
                     if fn == "__init__" else calls.get(fn, []))
            if not any(_sets(c, param, index) for c in found):
                unset.append(f"{path.name}: "
                             f"{owner + '.' if owner else ''}{fn}({param})")
    assert unset == []


def _singular_value_calls(node):
    """Lines of the calls under node that take singular values: an svd of
    a linalg module, or a linalg norm of order 2."""
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            name = ast.unparse(call.func)
            order = call.args[1] if len(call.args) > 1 else next(
                (k.value for k in call.keywords if k.arg == "ord"), None)
            if name.endswith("linalg.svd") or (
                    name.endswith("linalg.norm")
                    and isinstance(order, ast.Constant) and order.value == 2):
                yield call.lineno


def test_singular_values_go_through_one_helper():
    """The largest singular value is `cstar.top_singular_value`'s, one
    batched SVD per matrix shape; `hilbmod.complex_rank` is the one other
    SVD, for a numerical rank."""
    allowed = {("cstar.py", "top_singular_value"),
               ("hilbmod.py", "complex_rank")}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if (path.name, getattr(node, "name", None)) not in allowed:
                found += [f"{path.name}:{line}"
                          for line in _singular_value_calls(node)]
    assert found == []


def _formula_maps(tree):
    """Lines of the `from_callable` calls under tree that pass a lambda, or
    a function defined inside another function, as an argument."""
    nested = {node.name for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef)
              for node in ast.walk(fn)
              if isinstance(node, ast.FunctionDef) and node is not fn}
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and ast.unparse(call.func).endswith(
                "from_callable"):
            args = call.args + [k.value for k in call.keywords]
            if any(isinstance(a, ast.Lambda) or (isinstance(a, ast.Name)
                                                  and a.id in nested)
                   for a in args):
                yield call.lineno


def test_no_map_is_written_by_formula():
    """A map that `src/` writes from a formula is written as its matrix:
    `from_callable`, which evaluates a callable on a basis, only takes maps
    that are objects of their own (an automorphism, an embedding)."""
    planted = ast.parse("def f(A):\n"
                        "    def g(a):\n"
                        "        return a\n"
                        "    CPLinearMap.from_callable(A, A, g)\n"
                        "    return from_callable(A, A, fn=lambda a: a)\n")
    assert list(_formula_maps(planted)) == [4, 5]
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _formula_maps(tree)]
    assert found == []


def test_from_callable_has_one_caller():
    """In src/, only `UnitalHomomorphism.as_linear_map` evaluates a map on a
    basis; every other map is held as its matrix."""
    callers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            methods = (node.body if isinstance(node, ast.ClassDef)
                       else [node])
            for fn in methods:
                if any(isinstance(c, ast.Call) and ast.unparse(c.func)
                       .endswith("from_callable") for c in ast.walk(fn)):
                    callers.append((path.name, getattr(node, "name", None),
                                    getattr(fn, "name", None)))
    assert callers == [("cstar.py", "UnitalHomomorphism", "as_linear_map")]

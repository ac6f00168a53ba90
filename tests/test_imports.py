"""Every module of the package, the test suite and the benchmark uses each name
it imports, every module-level function or class of the package is used in
the package or exported from it, the package imports only at module top, no
function of the package defines a nested function that calls itself, no
class of the package mirrors a payload by a ``to_dict``, and the package
expands determinants of variables along one path."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path):
    """(line, name) for each name ``path`` imports but never reads.

    ``__future__`` imports are directives, not names, so they are skipped.
    """
    tree = ast.parse(path.read_text(), str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    # A package __init__ imports names to re-export them.
    paths = [
        p for d in (ROOT / "src" / "detring", ROOT / "tests", ROOT / "perfbench")
        for p in sorted(d.glob("*.py")) if p.name != "__init__.py"
    ]
    assert len(paths) > 20
    unused = [
        f"{p.relative_to(ROOT)}:{line}: {name}" for p in paths for line, name in _unused_imports(p)
    ]
    assert unused == []


def test_every_package_definition_is_used_or_exported():
    # The benchmark tracer looks kernels.system_holds up by name.
    package = ROOT / "src" / "detring"
    trees = {p: ast.parse(p.read_text(), str(p)) for p in sorted(package.glob("*.py"))}
    exported = {
        a.asname or a.name
        for node in ast.walk(trees[package / "__init__.py"])
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    }
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    unused = [
        f"{p.relative_to(ROOT)}:{node.lineno}: {node.name}"
        for p, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in exported | read
        and (p.name, node.name) != ("kernels.py", "system_holds")
    ]
    assert unused == []


def test_package_imports_only_at_module_top():
    # An import inside a function hides a dependency between modules (often
    # one worked round because it is a cycle) and runs again on every call.
    found = [
        f"{p.relative_to(ROOT)}:{node.lineno}"
        for p in sorted((ROOT / "src" / "detring").glob("*.py"))
        for tree in [ast.parse(p.read_text(), str(p))]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
    ]
    assert found == []


def _self_calling_nested_functions(tree):
    """(line, name) for each function nested in another that calls itself by name."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = set()
    for outer in ast.walk(tree):
        if isinstance(outer, functions):
            for inner in ast.walk(outer):
                if inner is not outer and isinstance(inner, functions) and any(
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == inner.name
                    for node in ast.walk(inner)
                ):
                    found.add((inner.lineno, inner.name))
    return sorted(found)


def test_no_package_function_nests_a_self_calling_function():
    # Such a closure holds the cell that holds itself: a reference cycle that
    # keeps its frames until the cyclic collector runs.  A module-level
    # recursion taking its state as arguments is freed on return.
    paths = sorted((ROOT / "src" / "detring").glob("*.py"))
    found = [
        f"{p.relative_to(ROOT)}:{line}: {name}"
        for p in paths
        for line, name in _self_calling_nested_functions(ast.parse(p.read_text(), str(p)))
    ]
    assert found == []


def test_no_package_class_defines_to_dict():
    # A check builds and returns its JSON-ready payload.  A class that mirrors
    # one names each field three times: in the class, at the constructor call
    # and in a hand-written to_dict.
    found = [
        f"{p.relative_to(ROOT)}:{node.lineno}: {node.name}"
        for p in sorted((ROOT / "src" / "detring").glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text(), str(p)))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "to_dict" for f in node.body)
    ]
    assert found == []


def test_package_expands_determinants_of_variables_along_one_path():
    # Each minor of variables is a signed sum of distinct monomials, built
    # packed by generic_point._det_keys (and _cauchy_binet, which passes it
    # one permutation list per minor); a Leibniz loop over Poly.variable
    # entries would be a second path.
    allowed = {"_det_keys", "_cauchy_binet"}
    found = [
        f"{p.relative_to(ROOT)}:{node.lineno}: {getattr(top, 'name', None)}"
        for p in sorted((ROOT / "src" / "detring").glob("*.py"))
        for top in ast.parse(p.read_text(), str(p)).body
        for node in ast.walk(top)
        if (isinstance(node, ast.Attribute) and node.attr == "variable"
            and isinstance(node.value, ast.Name) and node.value.id == "Poly")
        or (isinstance(node, ast.Name) and node.id == "_signed_permutations"
            and getattr(top, "name", None) not in allowed)
    ]
    assert found == []

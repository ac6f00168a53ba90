"""Every module of the package, the test suite and the benchmark uses each name
it imports."""

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

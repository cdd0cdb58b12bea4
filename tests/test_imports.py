"""No module of the package or of its tests imports a name it never uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(source):
    """(line, name) of every import binding in source that no expression
    reads.  A name listed in the module's __all__ counts as used;
    `from __future__` imports are exempt."""
    tree = ast.parse(source)
    bound, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in used]


def test_checker_rules():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from x import a, b as c, d\n"
              "__all__ = ['a']\n"
              "print(os, d)\n")
    assert _unused_imports(source) == [(3, "c")]


def test_no_unused_imports():
    files = sorted((ROOT / "src" / "nlslab").glob("*.py"))
    files += sorted((ROOT / "tests").glob("*.py"))
    unused = ["%s:%d %s" % (p.relative_to(ROOT), line, name)
              for p in files for line, name in _unused_imports(p.read_text())]
    assert unused == []

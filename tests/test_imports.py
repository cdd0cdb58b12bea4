"""No module of the package or of its tests imports a name it never uses,
the package defines no private top-level name that it never reads, every
function the benchmark measures per layer is public, and no keyword option
of the package, nor any parameter of a private function, takes the same
literal value at every call."""

import ast
import importlib
import inspect
import json
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


def _private_definitions(source):
    """(line, name) of every private function, class or constant that
    source defines at its top level; dunder names are exempt."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return [(line, name) for line, name in found
            if name.startswith("_") and not name.startswith("__")]


def _references(source):
    """Every name that source reads: bare names, attributes and imported names."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(a.name for a in node.names)
    return refs


def test_private_checker_rules():
    source = ("__all__ = ['f']\n"
              "_A = 1\n"
              "_B: int = 2\n"
              "def _f():\n"
              "    return _A + mod._g\n"
              "class _C:\n"
              "    _D = 3\n"
              "def f():\n"
              "    _E = _f\n")
    assert _private_definitions(source) == [(2, "_A"), (3, "_B"), (4, "_f"), (6, "_C")]
    assert {"_A", "_f", "_g"} <= _references(source)
    assert not {"_B", "_C", "_E"} & _references(source)


def test_no_unreferenced_private_definitions():
    # a private helper that nothing in the package reads is dead code,
    # even when a test still calls it
    files = sorted((ROOT / "src" / "nlslab").glob("*.py"))
    refs = set().union(*(_references(p.read_text()) for p in files))
    dead = ["%s:%d %s" % (p.relative_to(ROOT), line, name) for p in files
            for line, name in _private_definitions(p.read_text()) if name not in refs]
    assert dead == []


def test_benchmark_layer_functions_are_public():
    # a per-layer metric `module.function.quantity` is measured on the
    # function only while the module defines it and lists it in __all__
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    named = {tuple(m["name"].split(".")[:2]) for m in metrics if m["name"].count(".") == 2}
    assert len(named) >= 12
    missing = []
    for module, name in sorted(named):
        mod = importlib.import_module("nlslab." + module)
        fn = getattr(mod, name, None)
        if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                and name in mod.__all__):
            missing.append("%s.%s" % (module, name))
    assert missing == []


def _one_value_keywords(sources):
    """(function, parameter, value) for every keyword parameter of a function
    defined in sources, and every parameter of a private one, that every
    call in sources passes, as one literal value: an option that only one
    value ever reaches.  A call is matched by the bare or attribute name of
    the function; names defined more than once are skipped, and a call that
    leaves the parameter out, or may pass it through *args or **kwargs,
    reaches some other value."""
    defs, seen = {}, set()
    trees = [ast.parse(source) for source in sources]
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                if node.name in seen:
                    defs.pop(node.name, None)
                    continue
                seen.add(node.name)
                a = node.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                private = node.name.startswith("_") and not node.name.startswith("__")
                keywords = positional[0 if private else len(positional) - len(a.defaults):]
                keywords += [p.arg for p in a.kwonlyargs]
                if keywords:
                    defs[node.name] = (positional, keywords)
    passed = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in defs:
                continue
            positional, keywords = defs[name]
            given = {k.arg: k.value for k in node.keywords if k.arg is not None}
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                if i < len(positional):
                    given[positional[i]] = arg
            for param in keywords:
                try:
                    value = repr(ast.literal_eval(given.get(param)))
                except ValueError:  # left out (None), or not a literal
                    value = None
                passed.setdefault((name, param), []).append(value)
    return sorted((name, param, values[0]) for (name, param), values in passed.items()
                  if values[0] is not None and values.count(values[0]) == len(values))


def test_one_value_checker_rules():
    source = ("def f(x, pad=1, *, conj=None):\n"
              "    return g(x, n=2) + g(x, n=2) + h(x, 3) + h(x, m=3)\n"
              "def g(x, n=0):\n"
              "    return f(x, 2) + f(x, pad=2, conj=c)\n"
              "def h(x, m=1):\n"
              "    return k(x, *x) + k(x, 4) + obj.k(x, 4) + k(x, 4, **x)\n"
              "def k(x, y=0):\n"
              "    return e(x, q=5) + e(x)\n"
              "def e(x, q=0):\n"
              "    return d(x, r=6) + d(x, r=6)\n"
              "def d(x, r=0):\n"
              "    return x\n"
              "class C:\n"
              "    def d(self, r=0):\n"
              "        return self\n"
              "def _p(u, v, w=0):\n"
              "    return _p(u, 1.0, w=2) + _p(x, v=1.0, w=3) + q(4) + q(4)\n"
              "def q(z):\n"
              "    return z\n")
    # f's pad: 2 at both calls; g's n: 2 twice; h's m: 3 positionally and
    # by keyword; the private _p's positional v: 1.0 positionally and by
    # keyword.  k may take y through *x or **x, e's q is once left out,
    # f's conj is once a name, d is defined twice, _p's u is once a name
    # and its w takes two values, and q is public, so its positional z is
    # not an option.
    assert _one_value_keywords([source]) == [("_p", "v", "1.0"), ("f", "pad", "2"),
                                             ("g", "n", "2"), ("h", "m", "3")]


def test_no_keyword_option_takes_one_value():
    # a keyword option that every caller in the package sets to the same
    # literal, or a parameter of a private function that every caller
    # passes as one literal, is a constant: it belongs in the function, not
    # in its signature
    files = sorted((ROOT / "src" / "nlslab").glob("*.py"))
    assert _one_value_keywords([p.read_text() for p in files]) == []

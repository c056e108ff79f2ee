"""Every name a sinet module imports is used in that module, every public
function or class it defines is used by some sinet module, and every
parameter of its functions is read; every reference function of
tests/oracles.py is read by some test or by another reference. No lint tool
ships with the project, so the checks walk each module's syntax tree."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sinet"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = ("import os\nimport numpy as np\nfrom a.b import c, d as e\n"
              "import x.y\nprint(np.pi, e, x.y)\n")
    assert unused_imports(source) == [(1, "os"), (3, "c")]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def unreferenced_public_names(sources):
    """Public top-level functions and classes of the modules in `sources`
    ({module: source}) that no expression in any of them reads by bare name.
    A name only a test or a package re-export reads is reported."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = {node.id for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    return sorted(f"{module}:{node.name}" for module, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in used)


def test_unreferenced_public_names_are_found():
    sources = {"a.py": "def f():\n    return g()\n\ndef g():\n    pass\n\nclass C:\n    pass\n",
               "b.py": "from a import C\n\ndef _h():\n    return f\n"}
    assert unreferenced_public_names(sources) == ["a.py:C"]


def test_every_public_name_is_used_by_the_package():
    sources = {module: (SRC / module).read_text(encoding="utf-8") for module in MODULES}
    assert unreferenced_public_names(sources) == []


def unread_parameters(source):
    """Parameters of every def that its body never reads by bare name, as
    (line, function, parameter). *args, **kwargs and a method's self are
    exempt, since every call passes them; lambdas are not defs."""
    tree = ast.parse(source)
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            a = node.args
            params = (a.posonlyargs + a.args)[id(node) in methods:] + a.kwonlyargs
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [(node.lineno, node.name, p.arg) for p in params if p.arg not in read]
    return sorted(unread)


def test_unread_parameters_are_found():
    source = ("def f(a, b, *args, c=1, **kw):\n    return a + c\n"
              "def g(x, y=lambda z: 0):\n    x = 2\n"
              "def h(p):\n    def inner(q):\n        return p\n    return inner\n"
              "class C:\n    def m(self, r):\n        return 0\n")
    assert unread_parameters(source) == [(1, "f", "b"), (3, "g", "x"), (3, "g", "y"),
                                         (6, "inner", "q"), (10, "m", "r")]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_parameter(module):
    assert unread_parameters((SRC / module).read_text(encoding="utf-8")) == []


TESTS = pathlib.Path(__file__).resolve().parent


def unnamed_oracles(oracles, tests):
    """Top-level functions of the oracle module source `oracles` that no
    test module of `tests` ({module: source}) reads, by bare name (under
    its own name or the alias it is imported as) or as an attribute, and
    that no other top-level statement of the oracle module reads by bare
    name."""
    tree = ast.parse(oracles)
    defs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    named = {node.id for stmt in tree.body for node in ast.walk(stmt)
             if isinstance(node, ast.Name) and not (isinstance(stmt, ast.FunctionDef)
                                                    and stmt.name == node.id)}
    for source in tests.values():
        nodes = list(ast.walk(ast.parse(source)))
        read = {n.id for n in nodes if isinstance(n, ast.Name)}
        named |= read | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        named |= {alias.name for n in nodes
                  if isinstance(n, ast.ImportFrom) and n.module == "oracles"
                  for alias in n.names if alias.asname in read}
    return sorted(node.name for node in defs if node.name not in named)


def test_unnamed_oracles_are_found():
    oracles = ("def f(x):\n    return f(x)\n\ndef g():\n    return h()\n\n"
               "def h():\n    pass\n\ndef k():\n    pass\n\ndef m():\n    pass\n")
    tests = {"test_a.py": "from oracles import k as kk, m\nimport oracles\n\n"
                          "def test_one():\n    assert kk() == oracles.g()\n"}
    assert unnamed_oracles(oracles, tests) == ["f", "m"]


def test_every_oracle_is_named_by_a_test_or_another_oracle():
    tests = {p.name: p.read_text(encoding="utf-8") for p in TESTS.glob("*.py")
             if p.name != "oracles.py"}
    oracles = (TESTS / "oracles.py").read_text(encoding="utf-8")
    assert unnamed_oracles(oracles, tests) == []

"""Every name a sinet module imports is used in that module, and every public
function or class it defines is used by some sinet module. No lint tool ships
with the project, so the checks walk each module's syntax tree."""

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

"""Static check, in place of a linter: every import in the package
modules is used; and generation imports no module it does not need."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "polycat"


def unused_imports(source):
    """Names bound by import statements that the module never reads;
    imports from __future__ are left out."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, re\nre.compile\n"
    assert unused_imports(source) == [(2, "os")]


# __init__ imports only to re-export
@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_imports(path):
    assert unused_imports((SRC / path).read_text()) == []


def test_generation_does_not_import_numpy_ma():
    # numpy imports numpy.ma lazily, with inspect and re work, on the
    # first call that needs it; a pool worker would pay that on its
    # first task
    code = ("import sys\n"
            "from polycat import enumerate_all, generate_next\n"
            "generate_next(enumerate_all(3, 2)[3])\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out == "False\n"

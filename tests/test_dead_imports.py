"""No library module imports a name it never uses; ``__init__.py``, which
imports names to re-export them, is left out."""

import ast
from pathlib import Path

import pytest

import entdyn

MODULES = sorted(p for p in Path(entdyn.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree: ast.Module) -> list[str]:
    """``line N: name`` for each name an import binds that no expression reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # "import a.b" binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_guard_finds_a_dead_import():
    source = "import os\nimport os.path as osp\nfrom math import inf, pi\n\ndef f():\n    return osp, pi\n"
    assert unused_imports(ast.parse(source)) == ["line 1: os", "line 3: inf"]

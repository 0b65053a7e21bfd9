"""Values from outside the program become numbers in one place: the field
reader of ``states.py`` (``_field``, and ``_read`` for a mapping's fields),
which refuses ``true``, ``null`` and ``2.5`` as an int. No other library
module converts a mapping's value or a CSV row's cell with a bare ``int`` or
``float``, so a new file reader cannot bypass those rules unnoticed."""

import ast
from pathlib import Path

import pytest

import entdyn

LIBRARY = Path(entdyn.__file__).parent
MODULES = sorted(p for p in LIBRARY.glob("*.py") if p.name != "states.py")


def _reads_a_mapping(node: ast.expr) -> bool:
    """A subscript by a key (a string, an f-string or a variable, not a
    number or a tuple of them) or a ``.get`` call: how mappings, JSON
    objects and ``csv.DictReader`` rows are read."""
    if isinstance(node, ast.Subscript):
        key = node.slice
        return isinstance(key, (ast.Name, ast.JoinedStr)) or (
            isinstance(key, ast.Constant) and isinstance(key.value, str))
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get")


def bare_conversions(tree: ast.Module) -> list[str]:
    """``line N: <call>`` for each ``int(...)`` or ``float(...)`` of a value
    read from a mapping."""
    return [f"line {node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("int", "float") and node.args and _reads_a_mapping(node.args[0])]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_converts_no_mapping_value_itself(path):
    assert bare_conversions(ast.parse(path.read_text())) == []


def test_guard_finds_a_bare_conversion():
    source = ("a = int(row['count'])\nb = float(r[name])\nc = float(obj.get('p'))\n"
              "d = float(lam[0])\ne = int(x.count)\nf = float(m[i, 0])\ng = float(t[f'{k}'])\n")
    assert bare_conversions(ast.parse(source)) == [
        "line 1: int(row['count'])", "line 2: float(r[name])", "line 3: float(obj.get('p'))",
        "line 7: float(t[f'{k}'])"]

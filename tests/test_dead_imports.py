"""No library module imports a name it never uses (``__init__.py``, which
imports names to re-export them, is left out), and no library function or
class, exported or not, goes unread: each is read by a library module that
defines or imports it, or reached by the benchmark (``perfbench/``)."""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

import entdyn

LIBRARY = Path(entdyn.__file__).parent
MODULES = sorted(p for p in LIBRARY.glob("*.py") if p.name != "__init__.py")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


# ---------------------------------------------------------------------------
# Dead definitions. A read is matched through imports, never by bare name: a
# local variable ``ket`` is not a read of a function ``ket`` in another module.

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _entdyn_module(node: ast.ImportFrom, relative: bool) -> str | None:
    """The library module a ``from ... import`` reads (``__init__`` for the
    package); relative imports count only inside the library."""
    if node.level:
        return (node.module or "__init__") if relative and node.level == 1 else None
    if node.module == "entdyn":
        return "__init__"
    if node.module and node.module.startswith("entdyn."):
        return node.module.removeprefix("entdyn.")
    return None


class Census:
    """Each library module's top-level functions and classes, and every
    ``from <library module> import name [as alias]`` it makes."""

    def __init__(self, trees: dict[str, ast.Module]):
        self.definitions = {m: {n.name for n in tree.body if isinstance(n, _DEFINITIONS)}
                            for m, tree in trees.items()}
        self.imports = {}  # (module, alias) -> (source module, name)
        for module, tree in trees.items():
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and (source := _entdyn_module(node, True)):
                    for alias in node.names:
                        self.imports[module, alias.asname or alias.name] = (source, alias.name)

    def home(self, module: str, name: str):
        """(defining module, name) of what ``name`` means at the top of
        ``module``, following imports and re-exports; None if no library
        definition."""
        seen = set()
        while name not in self.definitions.get(module, ()):
            if (module, name) in seen or (module, name) not in self.imports:
                return None
            seen.add((module, name))
            module, name = self.imports[module, name]
        return module, name

    def reads(self, module: str, tree: ast.Module) -> set:
        """The definitions ``module`` reads: every loaded name that no
        enclosing function, lambda or comprehension binds itself."""
        found = set()

        def visit(node, local):
            if isinstance(node, _SCOPES):
                local = local | _bound(node)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id not in local:
                    found.add(self.home(module, node.id))
            for child in ast.iter_child_nodes(node):
                visit(child, local)

        visit(tree, frozenset())
        return found - {None}


def _bound(scope) -> set[str]:
    """Names a function, lambda or comprehension binds other than by import."""
    names, stack = set(), list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        if isinstance(node, _DEFINITIONS):
            names.add(node.name)
        if not isinstance(node, _SCOPES + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))
    return names


def _dotted(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and (owner := _dotted(node.value)):
        return f"{owner}.{node.attr}"
    return None


def perfbench_reach(census: Census) -> set:
    """Definitions the benchmark reaches: a name it imports from entdyn, one
    it reads as an attribute of an entdyn module, and each traced name."""
    reached = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}  # local dotted name -> library module
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("entdyn."):
                        modules[alias.asname or alias.name] = alias.name.removeprefix("entdyn.")
            elif isinstance(node, ast.ImportFrom) and (source := _entdyn_module(node, False)):
                for alias in node.names:
                    if alias.name in census.definitions:  # from entdyn import channels
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        reached.add(census.home(source, alias.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _dotted(node.value) in modules:
                reached.add(census.home(modules[_dotted(node.value)], node.attr))
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = [(module, name) for _, module, names in tracing.TRACED for name in names]
    traced.append(tracing.MINIMIZE[1:])
    reached.update(census.home(module.removeprefix("entdyn."), name) for module, name in traced)
    return reached - {None}


def unread_definitions(trees: dict[str, ast.Module], reached=frozenset()) -> list[str]:
    """``module.name`` of each top-level function or class that no module of
    ``trees`` reads and ``reached`` does not hold."""
    census = Census(trees)
    read = set(reached).union(*(census.reads(m, tree) for m, tree in trees.items()))
    return sorted(f"{m}.{n}" for m, names in census.definitions.items() for n in names
                  if (m, n) not in read)


TREES = {p.stem: ast.parse(p.read_text()) for p in sorted(LIBRARY.glob("*.py"))}
CENSUS = Census(TREES)
REACHED = perfbench_reach(CENSUS)


def test_every_definition_is_read():
    assert unread_definitions(TREES, REACHED) == []


def test_every_export_is_read():
    read = REACHED.union(*(CENSUS.reads(m, tree) for m, tree in TREES.items()))
    exports = [name for name in entdyn.__all__ if not inspect.ismodule(getattr(entdyn, name))]
    assert [name for name in exports if CENSUS.home("__init__", name) not in read] == []


def test_guard_finds_an_unread_definition():
    trees = {
        "a": ast.parse("def used():\n    pass\n\ndef shadowed():\n    pass\n\n"
                       "def ket():\n    pass\n\nclass Traced:\n    pass\n"),
        "b": ast.parse("from .a import used, shadowed\n\n"
                       "def f(shadowed):\n    return used(), shadowed, [ket for ket in ()]\n"),
    }
    assert unread_definitions(trees, {("a", "Traced")}) == ["a.ket", "a.shadowed", "b.f"]

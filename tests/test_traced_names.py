"""The benchmark's span tracer (perfbench/tracing.py) wraps entdyn functions
by module and name; a rename or removal must fail here, not in the
benchmark's ``Patches`` with an ``AttributeError``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("span, module, names", tracing.TRACED, ids=[t[0] for t in tracing.TRACED])
def test_traced_functions_resolve(span, module, names):
    home = importlib.import_module(module)
    for name in names:
        assert callable(getattr(home, name, None)), f"{span}: {module}.{name} is gone"


def test_minimize_resolves():
    span, module, name = tracing.MINIMIZE
    assert callable(getattr(importlib.import_module(module), name, None)), f"{span}: {module}.{name}"


def test_patches_build():
    assert tracing.Patches(tracing.Tracer())._entries

"""The README's library example runs as printed and gives the values its
comments state, so the docs cannot name a removed export."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_stated_concurrences():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    exact, closed_form, reconstructed = out.getvalue().splitlines()
    assert float(exact) == pytest.approx(0.6, abs=1e-12)
    assert float(closed_form) == pytest.approx(0.6, abs=1e-12)
    assert reconstructed.startswith("reconstructed C = ")

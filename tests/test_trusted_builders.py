"""A channel is validated once, where its values enter the library. The
library's own builders, ``channel_for`` (once it has read ``p``) and the two
samplers, make values that are valid by construction and build through
``channels._trusted``, the classes' fill step without their constructors'
checks. Rebuilt through the public constructor, each of their channels is
the same channel, bit for bit; and no other code calls the fill step alone,
so a file or flag value cannot skip the checks. Seeded loops, not
Hypothesis, so the file draws the same values alone or in the full run."""

import ast
from pathlib import Path

import numpy as np
import pytest

import entdyn
from entdyn.channels import (
    PAULI_FAMILIES,
    PauliChannel,
    UnitalChannel,
    channel_for,
    pauli_transfer_matrix,
)
from entdyn.sampling import random_pauli_channel, random_unital_channel

FIELDS = {PauliChannel: ("chi_diag", "family", "p"),
          UnitalChannel: ("pre_rotation", "post_rotation", "radii")}


def assert_rebuilds_the_same(channel):
    """The public constructor, given the channel's own fields, accepts them
    and builds a channel of the same field and PTM bytes, all read-only."""
    cls = type(channel)
    rebuilt = cls(**{name: getattr(channel, name) for name in FIELDS[cls]})
    for name in FIELDS[cls]:
        a, b = getattr(channel, name), getattr(rebuilt, name)
        if isinstance(a, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
            assert not a.flags.writeable and not b.flags.writeable, name
        else:
            assert a == b, name
    a, b = pauli_transfer_matrix(channel), pauli_transfer_matrix(rebuilt)
    assert a.tobytes() == b.tobytes()
    assert not a.flags.writeable and not b.flags.writeable


@pytest.mark.parametrize("sample", [random_unital_channel, random_pauli_channel])
def test_sampled_channels_rebuild_to_the_same_bits(sample):
    rng = np.random.default_rng(45)
    for _ in range(1000):
        assert_rebuilds_the_same(sample(rng))


@pytest.mark.parametrize("family", PAULI_FAMILIES)
def test_named_channels_rebuild_to_the_same_bits(family):
    grid = np.linspace(0.0, 1.0, 101)
    assert grid[0] == 0.0 and grid[-1] == 1.0
    for p in grid:
        channel = channel_for(family, p)
        assert (channel.family, channel.p) == (family, float(p))
        assert_rebuilds_the_same(channel)


LIBRARY = Path(entdyn.__file__).parent
TRUSTED_BUILDERS = {("channels.py", "channel_for"), ("sampling.py", "random_pauli_channel"),
                    ("sampling.py", "random_unital_channel")}


def trusted_uses(tree: ast.Module) -> set[str]:
    """The name of the function around each use of ``_trusted`` in ``tree``:
    a call or any other reference, by name or as an attribute, or an import
    that renames it (``<module>`` outside any function)."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Name) and child.id == "_trusted"
                    or isinstance(child, ast.Attribute) and child.attr == "_trusted"
                    or isinstance(child, ast.alias) and child.name == "_trusted" and child.asname):
                found.add(owner)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(tree, "<module>")
    return found


def test_only_the_library_builders_skip_the_checks():
    # so never channel_from_json, decompose_unital, cli.py or harness.py
    uses = {(path.name, owner) for path in sorted(LIBRARY.glob("*.py"))
            for owner in trusted_uses(ast.parse(path.read_text()))}
    assert uses == TRUSTED_BUILDERS


def test_guard_finds_a_planted_use():
    source = ("from .channels import _trusted as build\n"
              "def channel_from_json(obj):\n    return _trusted(UnitalChannel, **obj)\n"
              "def main(argv):\n    return channels._trusted(PauliChannel, chi_diag=argv)\n"
              "def run(rows):\n    make = _trusted\n    return make(PauliChannel, chi_diag=rows)\n"
              "def channel_for(family, p):\n    return PauliChannel(family_weights(family, p))\n")
    assert trusted_uses(ast.parse(source)) == {"<module>", "channel_from_json", "main", "run"}

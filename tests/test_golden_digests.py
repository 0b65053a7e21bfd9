"""Golden digests: every output byte of the three benchmark workloads, pinned.

For each op of the ``tomo_bootstrap``, ``law_sweep`` and ``channel_tomo``
schedules at seeds 0, 1 and 401, ``golden_digests.json`` holds the exit code,
a SHA-256 of stdout and one of each file the op wrote; for the library-only
``unital`` ops it holds a SHA-256 of the returned arrays' bytes. The test
replays the schedules (through :func:`test_bench_gates._play`) and names
every op and file whose bytes moved. A change that moves an output on
purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden_digests.py

and lists the moved ops in CHANGES.md. The file records the numpy, BLAS,
Python and platform it was made on; a failure says when they differ from
this run's, since another build may round some results differently.
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from test_bench_gates import _play, workloads

DIGESTS = Path(__file__).with_name("golden_digests.json")
SEEDS = (0, 1, 401)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _contents(root: Path) -> dict:
    """Relative path -> SHA-256 of every file under ``root``."""
    return {p.relative_to(root).as_posix(): _sha(p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "python": platform.python_version(),
            "platform": f"{platform.system()}-{platform.machine()}"}


def digests(workload: str, seed: int, tmp_path: Path, monkeypatch) -> dict:
    """``"workload/seed/index"`` -> the digest of what that op returned or wrote."""
    out = {}
    before = _contents(tmp_path)
    for index, op, code, stdout, _, result in _play(workload, tmp_path, monkeypatch, seed):
        record = {"verb": op["check"]["verb"]}
        if result is None:
            after = _contents(tmp_path)
            record.update(exit=code, stdout=_sha(stdout.encode()),
                          files={path: sha for path, sha in after.items()
                                 if before.get(path) != sha})
            before = after
        else:
            arrays = (np.asarray(value, dtype=float).tobytes() for row in result for value in row)
            record["arrays"] = _sha(b"".join(arrays))
        out[f"{workload}/{seed}/{index}"] = record
    return out


def _order(key: str) -> tuple:
    workload, seed, index = key.split("/")
    return workload, int(seed), int(index)


def _moved(key: str, want: dict, got: dict) -> list[str]:
    """Lines naming what moved between two digests of the op ``key``."""
    name = f"{key} ({want['verb']})"
    lines = [f"{name}: {field} {want.get(field)!r} -> {got.get(field)!r}"
             for field in ("verb", "exit") if want.get(field) != got.get(field)]
    for field in ("stdout", "arrays"):
        if want.get(field) != got.get(field):
            lines.append(f"{name}: {field} moved")
    files, new = want.get("files", {}), got.get("files", {})
    for path in sorted(files.keys() | new.keys()):
        if path not in new:
            lines.append(f"{name}: {path} not written")
        elif path not in files:
            lines.append(f"{name}: {path} written, not in the digests")
        elif files[path] != new[path]:
            lines.append(f"{name}: {path} moved")
    return lines


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_outputs_match_golden_digests(workload, tmp_path_factory, monkeypatch):
    golden = json.loads(DIGESTS.read_text())
    got = {}
    for seed in SEEDS:
        with monkeypatch.context() as patch:
            got.update(digests(workload, seed, tmp_path_factory.mktemp(f"seed{seed}"), patch))
    want = {key: record for key, record in golden["ops"].items()
            if key.startswith(f"{workload}/")}
    moved = [f"{key}: not in the digests" for key in sorted(got.keys() - want.keys(), key=_order)]
    moved += [f"{key}: op missing from the schedule"
              for key in sorted(want.keys() - got.keys(), key=_order)]
    for key in sorted(want.keys() & got.keys(), key=_order):
        moved += _moved(key, want[key], got[key])
    if moved:
        made, here = golden["environment"], environment()
        note = ("same environment as the digests" if made == here
                else f"digests made on {made}, this run on {here}")
        pytest.fail(f"{len(moved)} outputs moved ({note}):\n" + "\n".join(moved), pytrace=False)


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--check"], [""]])
def test_main_refuses_arguments_and_writes_nothing(argv, tmp_path, monkeypatch, capsys):
    target = tmp_path / "golden_digests.json"
    monkeypatch.setattr(sys.modules[__name__], "DIGESTS", target)
    assert main(argv) == 2
    assert not target.exists()
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage:")


def main(argv: list[str]) -> int:
    """Regenerate ``DIGESTS``; any argument is refused (usage on stderr,
    exit 2) and nothing is written."""
    if argv:
        print("usage: PYTHONPATH=src python tests/test_golden_digests.py  (takes no arguments)",
              file=sys.stderr)
        return 2
    ops = {}
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as patch:
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                run_dir = Path(root) / f"{workload}-{seed}"
                run_dir.mkdir()
                ops.update(digests(workload, seed, run_dir, patch))
    DIGESTS.write_text(json.dumps({"environment": environment(), "ops": ops}, indent=1) + "\n")
    print(f"wrote {len(ops)} op digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

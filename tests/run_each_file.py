"""Run each test file in its own pytest process, one at a time.

    PYTHONPATH=src python tests/run_each_file.py [FILE ...]

With no arguments it runs every ``test_*.py`` under the pytest testpaths
(``tests`` and ``perfbench/tests``). A test can pass in the full run and
fail alone (or the other way round) when its outcome depends on what other
modules were imported first: Hypothesis, for one, adds the constants of every
imported local module to its draw pool. Prints one table row per file (exit
code, pytest's summary line, seconds) and exits 1 if any file failed.
"""

import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TESTPATHS = ("tests", "perfbench/tests")


def main(argv: list[str]) -> int:
    files = argv or [str(path.relative_to(ROOT)) for testpath in TESTPATHS
                     for path in sorted((ROOT / testpath).glob("test_*.py"))]
    print("| file | exit | result | seconds |")
    print("|---|---|---|---|")
    failed = 0
    for name in files:
        start = time.perf_counter()
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", name],
                             cwd=ROOT, capture_output=True, text=True)
        seconds = time.perf_counter() - start
        lines = run.stdout.strip().splitlines()
        summary = lines[-1].strip("= ") if lines else run.stderr.strip()[-80:]
        print(f"| `{name}` | {run.returncode} | {summary} | {seconds:.1f} |", flush=True)
        failed += run.returncode != 0
    print(f"\n{failed} of {len(files)} files failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

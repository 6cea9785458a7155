"""Re-record the golden files that ``tests/test_cli_golden.py`` compares with.

Usage: ``PYTHONPATH=src python tests/record_golden.py [CASE ...]``

Runs each named case, or every case if none is named, in a fresh temporary
directory and replaces ``tests/golden/<case>/`` with the files it writes.
"""

import qeep.cli  # noqa: F401  (first, so numpy loads under the CLI's one-BLAS-thread pin)

import os
import shutil
import sys
import tempfile
from pathlib import Path

from test_cli_golden import CASES, GOLDEN, run_case


def record(names) -> None:
    unknown = sorted(set(names) - CASES.keys())
    if unknown:
        raise SystemExit(f"unknown case: {', '.join(unknown)}; cases: {', '.join(sorted(CASES))}")
    for name in names or sorted(CASES):
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                written = run_case(name, Path(tmp))
            finally:
                os.chdir(cwd)
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
        for path, data in written.items():
            target = GOLDEN / name / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)
        print(f"{name}: {', '.join(sorted(written))}")


if __name__ == "__main__":
    record(sys.argv[1:])

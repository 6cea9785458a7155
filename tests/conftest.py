import qeep.cli  # noqa: F401  (first, so numpy loads under the CLI's one-BLAS-thread pin)
import contextlib
import functools
import importlib.util
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import pytest

import qeep
from qeep import TruncationMode, build_filterbank, choose_truncation


def run_python(args, cwd=None, env=None, drop=(), path=(), stdout=subprocess.PIPE):
    """``python args`` in a child interpreter started in ``cwd``, its standard
    error and, unless ``stdout`` is given, its output read back as text. Its
    environment is this process's without the variables ``drop`` and with those
    of ``env`` set; its ``PYTHONPATH`` holds ``path`` ahead of this checkout's
    ``src``."""
    src = str(Path(qeep.__file__).resolve().parents[1])
    kept = {k: v for k, v in os.environ.items() if k not in drop}
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env={**kept, **(env or {}), "PYTHONPATH": os.pathsep.join([*path, src])},
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )


@functools.cache
def benchmark_workloads():
    """The benchmark's ``perfbench/workloads.py``, read for its command lines only."""
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.fixture(scope="session")
def bank_paper():
    """The 201 x 566 table used by the reference experiments (eps = 0.005)."""
    return build_filterbank(0.005, 566)


@pytest.fixture(scope="session")
def bank_quarter_strict():
    """eps = 0.25 at its strict truncation order (N = 414)."""
    n = choose_truncation(0.25, TruncationMode.STRICT)
    return build_filterbank(0.25, n)


@pytest.fixture(scope="session")
def bank_mid_strict():
    """eps = 0.05 at its strict truncation order (N = 4469)."""
    n = choose_truncation(0.05, TruncationMode.STRICT)
    return build_filterbank(0.05, n)


@pytest.fixture(scope="session")
def bank_paper_strict():
    """The paper's eps = 0.005 at its strict truncation order (N = 95896)."""
    n = choose_truncation(0.005, TruncationMode.STRICT)
    return build_filterbank(0.005, n)


@pytest.fixture
def usage():
    """``with usage() as used:`` records in ``used`` the block's wall
    ``seconds`` and the ``peak_bytes`` that tracemalloc, to which numpy reports
    its arrays, saw allocated while it ran."""

    @contextlib.contextmanager
    def measure():
        used = {}
        tracemalloc.start()
        start = time.perf_counter()
        try:
            yield used
        finally:
            used["seconds"] = time.perf_counter() - start
            used["peak_bytes"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    return measure


# Run by `process_growth` in a fresh interpreter: `qeep.cli` first, so numpy
# loads with one BLAS thread as in the CLI. `getrusage`'s ru_maxrss would start
# at the test process's own peak, which Linux carries over fork and exec, so
# the script reads the peak of its own memory, VmHWM, in KiB.
_GROWTH_SCRIPT = """\
import qeep.cli


def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


{setup}
before = peak()
{measured}
print(peak() - before)
"""


@pytest.fixture
def process_growth():
    """``process_growth(setup, measured)`` runs the statements ``setup`` and
    then ``measured`` in a fresh ``python`` process that imports ``qeep.cli``
    first, and returns the bytes by which the process's peak resident set grew
    while ``measured`` ran. tracemalloc sees only numpy's arrays; this also
    sees LAPACK's workspace and the copies numpy's linalg routines make
    outside them. It needs Linux's ``/proc/self/status``."""
    if not Path("/proc/self/status").exists():
        pytest.skip("the peak resident set is read from Linux's /proc/self/status")

    def measure(setup: str, measured: str) -> int:
        script = _GROWTH_SCRIPT.format(
            setup=textwrap.dedent(setup), measured=textwrap.dedent(measured)
        )
        proc = run_python(["-c", script])
        proc.check_returncode()
        return 1024 * int(proc.stdout)

    return measure

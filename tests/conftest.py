import qeep.cli  # noqa: F401  (first, so numpy loads under the CLI's one-BLAS-thread pin)
import contextlib
import time
import tracemalloc

import pytest

from qeep import TruncationMode, build_filterbank, choose_truncation


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

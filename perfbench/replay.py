"""Traced in-process replay of one qeep CLI invocation.

Runs ``qeep.cli.main(argv)`` in this interpreter, so the replay makes the same
public calls as the CLI in the same order, with a span around each call into
a layer. The spans come from wrappers defined here that replace the module
attributes the CLI and the library look up at call time; nothing inside the
package changes. Spans stay in memory and are written as JSON at the end.

    python3 perfbench/replay.py SPANS.json -- <qeep CLI arguments>

Exits with the CLI's own exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# (module, attribute, span name). The span name's prefix is the layer. An
# attribute the package does not have is skipped, so the replay keeps working
# when a function is removed or renamed; its time then shows as unattributed.
HOOKS = [
    ("qeep.cli", "cached_filterbank", "filterbank.cached_filterbank"),
    ("qeep.cli", "build_filterbank", "filterbank.build_filterbank"),
    ("qeep.filterbank", "build_filterbank", "filterbank.build_filterbank"),
    ("qeep.filterbank", "save_filterbank", "filterbank.save_filterbank"),
    ("qeep.filterbank", "load_filterbank", "filterbank.load_filterbank"),
    ("qeep.cli", "estimate_bins", "ts_estimator.estimate_bins"),
    ("qeep.cli", "estimate_moment", "ts_estimator.estimate_moment"),
    ("qeep.cli", "mp_estimate", "matrix_pencil.mp_estimate"),
    ("qeep.cli", "mp_moment", "matrix_pencil.mp_moment"),
    ("qeep.matrix_pencil", "build_hankel", "matrix_pencil.build_hankel"),
    ("qeep.matrix_pencil", "solve_pencil", "matrix_pencil.solve_pencil"),
    ("qeep.matrix_pencil", "_eigenphase_pairs", "matrix_pencil.eigenphases"),
    ("qeep.matrix_pencil", "pencil_eigenphases", "matrix_pencil.eigenphases"),
    ("qeep.matrix_pencil", "solve_amplitudes", "matrix_pencil.solve_amplitudes"),
    ("qeep.cli", "generate_clean", "signal.generate_clean"),
    ("qeep.cli", "add_noise", "signal.add_noise"),
    ("qeep.cli", "random_spectrum", "spectrum.random_spectrum"),
    ("qeep.cli", "exact_moment", "spectrum.exact_moment"),
    ("qeep.cli", "_read_json", "records.read_json"),
    ("qeep.cli", "_write_json", "records.write_json"),
    ("qeep.cli", "_write_delta_csv", "records.write_csv"),
    ("qeep.cli", "write_bins_csv", "records.write_csv"),
    ("qeep.signal", "TimeSeries.from_dict", "records.from_dict"),
    ("qeep.spectrum", "Spectrum.from_dict", "records.from_dict"),
    ("qeep.spectrum", "Spectrum.to_dict", "records.to_dict"),
    ("qeep.ts_estimator", "BinDistribution.to_dict", "records.to_dict"),
    ("qeep.matrix_pencil", "MpEstimate.to_dict", "records.to_dict"),
]


class Tracer:
    """Spans as ``[name, start, end, parent index, bytes of arrays returned]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None, 0])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index][1:3] = [start, end]
        self.spans[index][4] = array_bytes(result)
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced


def array_bytes(obj) -> int:
    """Computed bytes of the numpy arrays returned: the array itself, or the
    array fields of a record such as a filter bank."""
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    fields = getattr(obj, "__dict__", None) or {}
    return sum(v.nbytes for v in fields.values() if isinstance(getattr(v, "nbytes", None), int))


def install(tracer: Tracer) -> None:
    for module_name, attr, span in HOOKS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, leaf):
            continue
        raw = inspect.getattr_static(owner, leaf)
        if isinstance(raw, classmethod):
            setattr(owner, leaf, classmethod(tracer.wrap(span, raw.__func__)))
        else:
            setattr(owner, leaf, tracer.wrap(span, raw))


def main() -> int:
    out, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: replay.py SPANS.json -- <qeep CLI arguments>")
    import qeep.cli

    tracer = Tracer()
    install(tracer)
    code = tracer.call("cli.main", qeep.cli.main, (argv,), {})
    with open(out, "w") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

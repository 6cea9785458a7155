"""Time-series eigenvalue estimation with smooth bin filters, plus
matrix-pencil and DFT baselines and a seeded experiment CLI.

The public names load lazily (PEP 562): ``import qeep`` imports no submodule
and so no numpy, and each name imports its submodule on first use. This lets
``python -m qeep.cli`` and the ``qeep`` script reach the CLI module before
numpy loads, so the CLI can pin numpy's BLAS to one thread (see
:mod:`qeep.cli`).
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    "moment_error_bound": "_plan",
    "DftResult": "dft_baseline",
    "dft": "dft_baseline",
    "FilterBank": "filterbank",
    "TruncationMode": "filterbank",
    "bin_centers": "filterbank",
    "build_filterbank": "filterbank",
    "bump": "filterbank",
    "bump_fourier": "filterbank",
    "choose_truncation": "filterbank",
    "filter_values": "filterbank",
    "tail_bound": "filterbank",
    "MpEstimate": "matrix_pencil",
    "build_hankel": "matrix_pencil",
    "mp_estimate": "matrix_pencil",
    "mp_moment": "matrix_pencil",
    "solve_amplitudes": "matrix_pencil",
    "solve_pencil": "matrix_pencil",
    "Provenance": "signal",
    "TimeSeries": "signal",
    "add_noise": "signal",
    "generate_clean": "signal",
    "hoeffding_shots": "signal",
    "hoeffding_shots_per_point": "signal",
    "sample_shots": "signal",
    "Spectrum": "spectrum",
    "exact_moment": "spectrum",
    "fig6_spectrum": "spectrum",
    "random_spectrum": "spectrum",
    "BinDistribution": "ts_estimator",
    "BinKind": "ts_estimator",
    "estimate_bins": "ts_estimator",
    "estimate_moment": "ts_estimator",
    "exact_bins": "ts_estimator",
    "truncated_bins": "ts_estimator",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value

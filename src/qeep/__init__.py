"""Time-series eigenvalue estimation with smooth bin filters, plus
matrix-pencil and DFT baselines and a seeded experiment CLI."""

from .dft_baseline import DftResult, dft
from .errors import NumericError
from .filterbank import (
    FilterBank,
    TruncationMode,
    bin_centers,
    build_filterbank,
    bump,
    bump_fourier,
    bump_norm,
    choose_truncation,
    decay_onset,
    evaluate_filter,
    filter_coefficient,
    tail_bound,
)
from .matrix_pencil import (
    MpEstimate,
    build_hankel,
    filter_estimate,
    mp_estimate,
    mp_moment,
    solve_amplitudes,
    solve_pencil,
)
from .signal import (
    Provenance,
    TimeSeries,
    add_noise,
    generate_clean,
    hoeffding_shots,
    sample_shots,
)
from .spectrum import Spectrum, exact_moment, fig6_spectrum, random_spectrum
from .ts_estimator import (
    BinDistribution,
    BinKind,
    estimate_bins,
    estimate_moment,
    exact_bins,
    expectation_from_function,
    moment_error_bound,
    rescale_physical,
    truncated_bins,
)

__version__ = "0.1.0"

__all__ = [
    "BinDistribution",
    "BinKind",
    "DftResult",
    "FilterBank",
    "MpEstimate",
    "NumericError",
    "Provenance",
    "Spectrum",
    "TimeSeries",
    "TruncationMode",
    "add_noise",
    "bin_centers",
    "build_filterbank",
    "build_hankel",
    "bump",
    "bump_fourier",
    "bump_norm",
    "choose_truncation",
    "decay_onset",
    "dft",
    "estimate_bins",
    "estimate_moment",
    "evaluate_filter",
    "exact_bins",
    "exact_moment",
    "expectation_from_function",
    "fig6_spectrum",
    "filter_coefficient",
    "filter_estimate",
    "generate_clean",
    "hoeffding_shots",
    "moment_error_bound",
    "mp_estimate",
    "mp_moment",
    "random_spectrum",
    "rescale_physical",
    "sample_shots",
    "solve_amplitudes",
    "solve_pencil",
    "tail_bound",
    "truncated_bins",
]

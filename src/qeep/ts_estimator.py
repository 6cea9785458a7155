"""Bin-probability estimation from the time series, and spectral expectations.

Three routes produce a distribution over the M bin centers:

* :func:`exact_bins` — the filters' values at the true eigenvalues
  (the oracle; needs the ground-truth spectrum),
* :func:`truncated_bins` — the truncated Fourier form applied to the exact
  signal (isolates the truncation error),
* :func:`estimate_bins` — the same linear form applied to a measured or
  noisy signal; this is the estimator proper:

      q_j = eps/(2*pi) + sqrt(2/pi) * Re( sum_{k=1}^{N-1} F_j(k) * conj(g_k) )

Estimated values are reported raw: entries may dip slightly negative and the
sum may drift from one. No clamping or renormalization is applied, so the L1
guarantees against the exact distribution hold for the estimator as defined;
any projection onto the simplex would be a separate post-processing choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from numbers import Integral

import numpy as np

from . import _records
from .filterbank import SQRT_2PI, FilterBank, _block, bin_centers, filter_values
from .signal import TimeSeries, generate_clean
from .spectrum import Spectrum, _moment


class BinKind(Enum):
    EXACT_P = "exact_p"
    TRUNCATED_P = "truncated_p"
    ESTIMATED_Q = "estimated_q"


@dataclass(frozen=True)
class BinDistribution:
    """Real vector of ``M >= 2`` finite values over the bin centers
    ``-1/2 + j*eps``. Its length fixes ``eps = 1/(M - 1)``, the double that
    :func:`~qeep.filterbank._snap_eps` gives for every eps of ``M`` bins."""

    values: np.ndarray
    kind: BinKind

    def __post_init__(self):
        v = _records.frozen(self, "values", self.values, float)
        _records.number(v.size, "bin count M", Integral, 2)
        if self.kind is BinKind.EXACT_P:
            if np.any(v < -1e-12) or np.any(v > 1.0 + 1e-12):
                raise ValueError("exact bin probabilities must lie in [0, 1]")
            if abs(v.sum() - 1.0) > 1e-9:
                raise ValueError("exact bin probabilities must sum to 1 within 1e-9")

    @property
    def eps(self) -> float:
        return 1.0 / (self.values.size - 1)

    @property
    def centers(self) -> np.ndarray:
        return bin_centers(self.eps)

    def to_dict(self) -> dict:
        return {"eps": self.eps, "kind": self.kind.value, "values": self.values.tolist()}


def exact_bins(spec: Spectrum, eps: float) -> BinDistribution:
    """Oracle bin probabilities ``p_j = sum_{lambda in bin j} f_j(lambda) * w``.

    Each eigenvalue contributes to at most the two bins whose supports contain
    it, and those contributions sum to its full weight, so the result is a
    probability vector.
    """
    return BinDistribution(filter_values(spec.lambdas, eps) @ spec.weights, BinKind.EXACT_P)


def _bins_from_values(values: np.ndarray, bank: FilterBank) -> np.ndarray:
    """Shared linear form: the k = 0 term plus twice the real part of the
    positive-k sum (the negative-k half follows from conjugate symmetry).

    The bin phases are applied as one blocked product. The ``N - 1`` terms
    ``radial(k) * conj(g_k)`` at ``k - 1 = a*B + r`` (see
    :func:`~qeep.filterbank._block`) are zero-padded into the table
    ``C[a, r]``, and the sums are ``((C.T @ V) * E).sum(axis=0)`` with
    ``V[a, j] = exp(-i*center_j*a*B)`` and ``E[r, j] = exp(-i*center_j*(r+1))``,
    so memory stays O(N + M*sqrt(N)). The phases come from the bin centers
    themselves, as in :meth:`FilterBank.row`."""
    n = bank.n_trunc
    b, a = _block(n - 1)
    terms = np.zeros(a * b, dtype=complex)
    terms[: n - 1] = bank.radial[1:] * np.conj(values[1:n])
    centers = bank.centers
    v = np.exp(-1j * np.outer(b * np.arange(a), centers))
    e = np.exp(-1j * np.outer(np.arange(1, b + 1), centers))
    sums = ((terms.reshape(a, b).T @ v) * e).real.sum(axis=0)
    return bank.radial[0] / SQRT_2PI + math.sqrt(2.0 / math.pi) * sums


def truncated_bins(spec: Spectrum, bank: FilterBank) -> BinDistribution:
    """Bin probabilities from the truncated Fourier form of the filters,
    applied to the exact signal of ``spec``."""
    g = generate_clean(spec, bank.n_trunc)
    return BinDistribution(values=_bins_from_values(g.values, bank), kind=BinKind.TRUNCATED_P)


def _check_signal_length(ts: TimeSeries, n_trunc: int) -> None:
    """Reject a signal shorter than the truncation order ``n_trunc``."""
    if ts.n_len < n_trunc:
        raise ValueError(f"signal has {ts.n_len} entries but the filter bank needs {n_trunc}")


def estimate_bins(ts: TimeSeries, bank: FilterBank) -> BinDistribution:
    """The time-series estimator: the truncated linear form applied to the
    first ``bank.n_trunc`` entries of a (possibly noisy) signal."""
    _check_signal_length(ts, bank.n_trunc)
    return BinDistribution(values=_bins_from_values(ts.values, bank), kind=BinKind.ESTIMATED_Q)


def estimate_moment(dist: BinDistribution, s: int) -> float:
    """Spectral moment of the binned distribution:
    ``sum_j values[j] * (-1/2 + j*eps)**s``."""
    return _moment(dist.values, dist.centers, s)


"""Smooth bin filters and the radial profile of their Fourier coefficients.

The estimation grid splits ``[-1/2, 1/2]`` into ``M = 1 + 1/eps`` overlapping
bins of width ``2*eps`` centered at ``center_j = -1/2 + j*eps``. Each bin
carries a filter ``f_j``, the convolution of the bin's width-``eps`` indicator
with the rescaled bump mollifier ``h_eps(y) = (2/eps) * h(2*y/eps)``, where

    h(x) = a * exp(-1/(1 - x**2))   for |x| < 1,   h(x) = 0 otherwise.

The filters are smooth, non-negative, supported on
``[center_j - eps, center_j + eps]``, and form a partition of unity on
``[-1/2, 1/2]``. Because they are smooth, their Fourier coefficients

    F_j(k) = radial(k) * exp(-i*center_j*k),   radial(k) = 2 * H(k*eps/2) * sin(k*eps/2) / k

(``H`` is the transform of the bump) decay super-polynomially, so the ``N``
values ``radial(k)`` for ``k < N`` are all the estimators need; the bin
phases are applied where the coefficients are used. ``H`` comes from a fixed
trapezoid rule whose node count follows from the largest frequency requested
(see :func:`bump_fourier`), and :class:`FilterBank` holds the profile.

A filter value is a difference of the bump's CDF at the two ends of the bin
window, evaluated for every bin and point at once by :func:`filter_values`.

The truncated Fourier series of every ``f_j`` at a point ``x`` is the
estimator's own sum applied to the one-line signal ``g_k = exp(-i*x*k)``, so
it is evaluated as ``truncated_bins`` of the spectrum with a single line at
``x`` (see :mod:`qeep.ts_estimator`), not by a separate implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NumericError

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _snap_eps(eps: float) -> float:
    """Validate that 1/eps is integral and return exactly ``1/round(1/eps)``."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    inv = 1.0 / eps
    if abs(inv - round(inv)) > 1e-6 * max(1.0, inv):
        raise ValueError(f"1/eps must be integral, got 1/eps = {inv!r}")
    return 1.0 / round(inv)


def _bin_count(eps: float) -> int:
    """Validate that 1/eps is integral and return M = 1 + 1/eps."""
    return 1 + round(1.0 / _snap_eps(eps))


def bin_centers(eps: float) -> np.ndarray:
    """The M eigenvalue estimates ``-1/2 + j*eps`` for ``j = 0 .. M-1``."""
    eps = _snap_eps(eps)
    return -0.5 + eps * np.arange(_bin_count(eps))


# Normalization ``a = 1 / integral_{-1}^{1} exp(-1/(1-x**2)) dx`` of the bump,
# the double that adaptive quadrature (QUADPACK, epsabs 1e-14, epsrel 1e-13)
# returns; a fixed number, so it is written out rather than recomputed.
BUMP_NORM = 2.2522836210435813


def bump(x):
    """The normalized bump ``a * exp(-1/(1-x**2))`` on ``|x| < 1``, else 0.

    Accepts scalars or arrays. Continuous at ``|x| = 1`` (both sides vanish).
    """
    arr = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inside = np.abs(arr) < 1.0
        body = np.where(inside, 1.0 - arr * arr, 1.0)
        out = np.where(inside, BUMP_NORM * np.exp(-1.0 / body), 0.0)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def _bump_cdf(t: np.ndarray) -> np.ndarray:
    """CDF ``B(t) = integral_{-1}^{t} h`` of the bump for ``|t| < 1``.

    ``B(t)`` for ``t <= 0`` is a 64-node Gauss-Legendre rule on ``[-1, t]``
    (Golub & Welsch 1969, Math. Comp. 23:221), and ``B(t) = 1 - B(-t)`` for
    ``t > 0`` because the bump is even and has unit mass, so no rule spans
    more than half the bump. The nodes are computed here, not at import,
    because ``numpy.polynomial`` is slow to load and most commands never
    evaluate a filter.
    """
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(64)
    half = (1.0 - np.abs(t)) / 2.0
    lower = half * (bump(half[:, None] * (nodes + 1.0) - 1.0) @ weights)
    return np.where(t > 0.0, 1.0 - lower, lower)


def bump_fourier(kp):
    """Fourier transform ``H(kp) = (2*pi)**-0.5 * integral h(x) cos(kp*x) dx``.

    Real and even because the bump is real and even; ``H(0) = 1/sqrt(2*pi)``.
    Accepts scalars or arrays and evaluates them all with one trapezoid rule
    on ``[-1, 1]``. The bump and all its derivatives vanish at ``x = +-1``,
    so by Poisson summation the rule's error at ``kp`` is the sum of the
    aliases ``H(kp + pi*m*n)``, ``m != 0``, for ``n`` panels (Trefethen &
    Weideman 2014, SIAM Review 56:385). ``n`` is the smallest even count that
    puts the nearest alias, at ``pi*n - max|kp|``, where the decay bound
    ``|H(w)| <= exp(-sqrt(w))`` (see :func:`decay_onset`) is below double
    precision rounding.
    """
    kps = np.abs(np.asarray(kp, dtype=float))
    alias_floor = math.log(1.0 / np.finfo(float).eps) ** 2
    half = math.ceil((float(kps.max()) + alias_floor) / (2.0 * math.pi))
    # Even integrand: x = 0 once plus twice each interior node i/half, the
    # phases e^{i*kp*x} advanced by one complex multiply per node.
    step = np.exp(1j * kps / half)
    phase = step.copy()
    total = np.zeros_like(kps)
    for weight in bump(np.arange(1, half) / half):
        total += weight * phase.real
        phase *= step
    out = (bump(0.0) + 2.0 * total) / (half * SQRT_2PI)
    return float(out) if out.ndim == 0 else out


def decay_onset(kps=None) -> float:
    """Smallest scanned frequency from which ``|H(kp)| <= exp(-sqrt(kp))``
    holds for every larger scanned frequency.

    The decay constant is located empirically rather than hard-coded; the
    default scan is ``kp = 10, 20, ..., 200``.
    """
    if kps is None:
        kps = np.arange(10.0, 201.0, 10.0)
    kps = np.sort(np.asarray(kps, dtype=float))
    ok = np.abs(bump_fourier(kps)) <= np.exp(-np.sqrt(kps))
    failing = np.nonzero(~ok)[0]
    if failing.size == 0:
        return float(kps[0])
    if failing[-1] == kps.size - 1:
        raise NumericError("decay bound fails at the largest scanned frequency")
    return float(kps[failing[-1] + 1])


def _radial(k, eps: float):
    """``radial(k) = 2*H(k*eps/2)*sin(k*eps/2)/k``, the bin-independent factor
    of ``F_j(k)``; even in k, with the limit ``eps*H(0)`` at ``k = 0``."""
    half = np.asarray(k, dtype=float) * eps / 2.0
    return eps * bump_fourier(half) * np.sinc(half / math.pi)


def filter_values(x, eps: float) -> np.ndarray:
    """Filter values ``f_j(x_i)`` of every bin at every point of ``x``, as the
    ``(M, len(x))`` table ``values[j, i]``.

    ``f_j(x) = B(u_{j+1}) - B(u_j)`` with ``u_j = 2*(center_j - x)/eps - 1``
    (:func:`_bump_cdf`, ``center_M`` one step past the last bin): adjacent
    bins share a window endpoint, so the window of bin ``j`` is
    ``[u_j, u_{j+1}]`` in bump units. The ``u_j`` of a point are 2 apart, so
    at most one lies in ``(-1, 1)`` and every other ``B`` is exactly 0 or 1.
    Hence the values are non-negative, exactly zero outside
    ``|x - center_j| < eps``, exactly one at ``x = center_j``, and sum to one
    on ``[-1/2, 1/2]``.
    """
    eps = _snap_eps(eps)
    xs = np.asarray(x, dtype=float)
    if xs.ndim != 1:
        raise ValueError("x must be a 1-d array")
    if not np.all(np.isfinite(xs)):
        raise ValueError("x must be finite")
    edges = -0.5 + eps * np.arange(_bin_count(eps) + 1)
    u = 2.0 * (edges[:, None] - xs) / eps - 1.0
    cdf = (u >= 1.0).astype(float)
    inside = np.abs(u) < 1.0
    cdf[inside] = _bump_cdf(u[inside])
    return cdf[1:] - cdf[:-1]


def tail_bound(n_trunc: int, eps: float) -> float:
    """Closed-form bound on the dropped series tail:
    ``4 * exp(-sqrt(y)) * (1 + sqrt(y))`` with ``y = (n_trunc - 1) * eps / 2``.

    Valid once ``n_trunc`` is past the onset of the transform's decay regime
    (see :func:`decay_onset`); strictly decreasing in ``n_trunc``.
    """
    if n_trunc < 1:
        raise ValueError("n_trunc must be a positive integer")
    y = (n_trunc - 1) * eps / 2.0
    r = math.sqrt(y)
    return 4.0 * math.exp(-r) * (1.0 + r)


class TruncationMode(Enum):
    """How to choose the truncation order N for a given eps."""

    EMPIRICAL = "empirical"
    STRICT = "strict"


def choose_truncation(eps: float, mode: TruncationMode = TruncationMode.EMPIRICAL) -> int:
    """Truncation order N for the coefficient table.

    EMPIRICAL uses ``ceil(ln(M)**2 * M / 10)``, the prefactor observed to be
    sufficient for moment estimation at desk scale (eps = 0.005 gives 566).
    STRICT bisects :func:`tail_bound` down to ``eps / (2*M)``, the level at
    which the L1 distance between truncated and exact bin probabilities is
    provably at most ``eps/2`` (eps = 0.005 gives about 9.6e4).
    """
    m = _bin_count(eps)
    if mode is TruncationMode.EMPIRICAL:
        return math.ceil(math.log(m) ** 2 * m / 10.0)
    if mode is TruncationMode.STRICT:
        target = eps / (2.0 * m)
        hi = 2
        while tail_bound(hi, eps) > target:
            hi *= 2
        lo = max(2, hi // 2)
        while lo < hi:
            mid = (lo + hi) // 2
            if tail_bound(mid, eps) <= target:
                hi = mid
            else:
                lo = mid + 1
        return lo
    raise ValueError(f"unknown truncation mode {mode!r}")


@dataclass(frozen=True)
class FilterBank:
    """Radial profile of the filter Fourier coefficients.

    ``radial[k]`` holds ``radial(k)`` for ``0 <= k < n_trunc``; the
    coefficients follow as ``F_j(k) = radial[k] * exp(-i*center_j*k)`` (see
    :meth:`row`) and negative k from conjugate symmetry. The profile depends
    only on ``(eps, n_trunc)``, never on a signal, so it is built once and
    shared. ``eps`` is stored snapped to ``1/round(1/eps)``.
    """

    eps: float
    n_trunc: int
    radial: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eps", _snap_eps(self.eps))
        r = np.asarray(self.radial, dtype=float)
        if r.shape != (self.n_trunc,):
            raise ValueError("radial shape must be (n_trunc,)")
        r.setflags(write=False)
        object.__setattr__(self, "radial", r)

    @property
    def m_bins(self) -> int:
        return _bin_count(self.eps)

    @property
    def centers(self) -> np.ndarray:
        return bin_centers(self.eps)

    def row(self, j: int) -> np.ndarray:
        """Coefficients ``F_j(k)`` of bin ``j`` for ``0 <= k < n_trunc``."""
        if not 0 <= j < self.m_bins:
            raise ValueError(f"bin index j={j} out of range [0, {self.m_bins - 1}]")
        return self.radial * np.exp(-1j * self.centers[j] * np.arange(self.n_trunc))


def build_filterbank(eps: float, n_trunc: int) -> FilterBank:
    """Tabulate ``radial(k)`` for ``k < n_trunc`` in one trapezoid pass over
    the bump; rebuilding with the same arguments is bit-identical."""
    eps = _snap_eps(eps)
    if n_trunc < 2:
        raise ValueError("n_trunc must be at least 2")
    return FilterBank(eps=eps, n_trunc=n_trunc, radial=_radial(np.arange(n_trunc), eps))

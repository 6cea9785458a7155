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
(see :func:`bump_fourier`). On the bank's equispaced grid ``k < N`` the rule
is one blocked matrix product of two ``O(sqrt(N))``-row exp tables (see
:func:`build_filterbank`), and :class:`FilterBank` holds the profile.

A filter value is a difference of the bump's CDF at the two ends of the bin
window, evaluated for every bin and point at once by :func:`filter_values`.

The truncated Fourier series of every ``f_j`` at a point ``x`` is the
estimator's own sum applied to the one-line signal ``g_k = exp(-i*x*k)``, so
it is evaluated as ``truncated_bins`` of the spectrum with a single line at
``x`` (see :mod:`qeep.ts_estimator`), not by a separate implementation.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from enum import Enum
from numbers import Integral

import numpy as np

from . import _records

SQRT_2PI = math.sqrt(2.0 * math.pi)

# The least truncation order: the bin sums take at least one term k >= 1.
_LEAST_ORDER = 2


def _snap_eps(eps: float) -> float:
    """Validate that 1/eps is a positive integer and return exactly ``1/round(1/eps)``."""
    eps = _records.number(eps, "eps", least=_records.LEAST_POSITIVE)
    inv = 1.0 / eps  # inf for a subnormal eps
    n = round(inv) if inv < math.inf else 0
    if n < 1 or abs(inv - n) > 1e-6 * max(1.0, inv):
        raise ValueError(f"1/eps must be a positive integer, got 1/eps = {inv!r}")
    return 1.0 / n


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


def _trapezoid_rule(kp_max: float) -> tuple[int, np.ndarray]:
    """Panel count ``n = 2*half`` and interior weights ``h(i/half)``,
    ``i = 1 .. half-1``, of the trapezoid rule for :func:`bump_fourier` up to
    the frequency ``kp_max``.

    The bump and all its derivatives vanish at ``x = +-1``, so by Poisson
    summation the rule's error at ``kp`` is the sum of the aliases
    ``H(kp + pi*m*n)``, ``m != 0`` (Trefethen & Weideman 2014, SIAM Review
    56:385). ``n`` is the smallest even count that puts the nearest alias, at
    ``pi*n - kp_max``, where the decay bound ``|H(w)| <= exp(-sqrt(w))`` is
    below double precision rounding. That bound is tested on the grid
    ``w = 10, 10.1, ..., 900``; the alias lies past ``alias_floor``, about
    1 299, beyond that grid, where the bound is itself at rounding level.
    ``test_aliases_are_below_rounding`` checks the floor directly: doubling
    ``n`` moves every alias twice as far and changes ``H`` at the frequencies
    of three banks, up to ``kp = 1000``, by rounding only.
    """
    alias_floor = math.log(1.0 / np.finfo(float).eps) ** 2
    half = math.ceil((_records.number(kp_max, "kp", least=0) + alias_floor) / (2.0 * math.pi))
    return half, bump(np.arange(1, half) / half)


def _block(n: int) -> tuple[int, int]:
    """Block size ``B = ceil(sqrt(n))`` and block count ``A = ceil(n/B)`` that
    split an index ``k < n`` as ``k = a*B + r``.

    A phase ``exp(i*t*k)`` then factors as ``exp(i*t*a*B) * exp(i*t*r)``, so
    a trigonometric sum over an equispaced grid of ``n`` points becomes one
    product of two ``O(sqrt(n))``-row exp tables: the four-step split of
    Bailey 1990 (J. Supercomputing 4:23).
    """
    b = math.isqrt(n - 1) + 1
    return b, -(-n // b)


def bump_fourier(kp):
    """Fourier transform ``H(kp) = (2*pi)**-0.5 * integral h(x) cos(kp*x) dx``.

    Real and even because the bump is real and even; ``H(0) = 1/sqrt(2*pi)``.
    Accepts scalars or arrays and evaluates them all with one trapezoid rule
    on ``[-1, 1]``, whose panel count follows from ``max|kp|`` (see
    :func:`_trapezoid_rule`). The integrand is even, so the rule takes
    ``x = 0`` once and each interior node ``i/half`` twice, as one dense
    product of the cosine table with the weights.
    """
    kps = np.abs(np.asarray(kp, dtype=float))
    half, weights = _trapezoid_rule(float(kps.max(initial=0.0)))
    cosines = np.cos(np.multiply.outer(kps, np.arange(1, half) / half))
    out = (bump(0.0) + 2.0 * (cosines @ weights)) / (half * SQRT_2PI)
    return float(out) if out.ndim == 0 else out


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
    xs = _records.vector(x, "x", float)
    edges = -0.5 + eps * np.arange(_bin_count(eps) + 1)
    u = 2.0 * (edges[:, None] - xs) / eps - 1.0
    cdf = (u >= 1.0).astype(float)
    inside = np.abs(u) < 1.0
    cdf[inside] = _bump_cdf(u[inside])
    return cdf[1:] - cdf[:-1]


def tail_bound(n_trunc: int, eps: float) -> float:
    """Closed-form bound on the dropped series tail:
    ``4 * exp(-sqrt(y)) * (1 + sqrt(y))`` with ``y = (n_trunc - 1) * eps / 2``.

    Valid once ``y >= 10``, the onset of the transform's decay regime:
    ``|H(kp)| <= exp(-sqrt(kp))`` holds on the tested grid
    ``kp = 10, 10.1, ..., 900``; past 900 it is not tested. Every STRICT
    order for ``1/eps <= 200`` has ``y`` in ``[20.5, 239.74]``, inside that
    grid. Strictly decreasing in ``n_trunc``.
    """
    n_trunc = _records.number(n_trunc, "n_trunc", Integral, 1)
    eps = _records.number(eps, "eps", least=_records.LEAST_POSITIVE)
    y = (n_trunc - 1) * eps / 2.0
    r = math.sqrt(y)
    return 4.0 * math.exp(-r) * (1.0 + r)


class TruncationMode(Enum):
    """How to choose the truncation order N for a given eps."""

    EMPIRICAL = "empirical"
    STRICT = "strict"


def choose_truncation(eps: float, mode: TruncationMode | int = TruncationMode.EMPIRICAL) -> int:
    """Truncation order N for a bank; an integer ``mode`` is N itself (:func:`_truncation_order`).

    EMPIRICAL uses ``ceil(ln(M)**2 * M / 10)`` (eps = 0.005 gives 566), and
    at least ``_LEAST_ORDER``. It carries no guarantee: its moment errors met
    the bound ``eps * (T_max + T'_max)`` on the reference experiment's seeds,
    but not on every spectrum (at eps = 0.005 the clean first moment of
    ``random_spectrum(5, 9102)`` misses it by 1.31x).
    STRICT is the least order whose :func:`tail_bound` at the snapped eps,
    which the bank uses, is at most ``eps / (2*M)``, the level at
    which the L1 distance between truncated and exact bin probabilities is
    provably at most ``eps/2`` (eps = 0.005 gives about 9.6e4); only there is
    the moment bound guaranteed. The bound is strictly decreasing in N, so
    ``bisect`` finds that order among the orders below ``sys.maxsize``, the
    longest range whose ``len()`` exists.
    """
    eps = _snap_eps(eps)
    m = _bin_count(eps)
    if mode is TruncationMode.EMPIRICAL:
        return max(_LEAST_ORDER, math.ceil(math.log(m) ** 2 * m / 10.0))
    if mode is TruncationMode.STRICT:
        target = eps / (2.0 * m)
        orders = range(_LEAST_ORDER, sys.maxsize)
        return orders[bisect.bisect_left(orders, True, key=lambda n: tail_bound(n, eps) <= target)]
    if isinstance(mode, bool) or not isinstance(mode, Integral):
        raise ValueError(f"unknown truncation mode {mode!r}")
    return _truncation_order(mode)


def _truncation_order(n_trunc: int) -> int:
    """``n_trunc`` as an ``int``, checked to be an integer of at least ``_LEAST_ORDER``."""
    return _records.number(n_trunc, "n_trunc", Integral, _LEAST_ORDER)


@dataclass(frozen=True)
class FilterBank:
    """Radial profile of the filter Fourier coefficients.

    ``radial[k]`` holds ``radial(k)`` for ``0 <= k < n_trunc``, its length,
    which must meet :func:`_truncation_order`; the coefficients follow as
    ``F_j(k) = radial[k] * exp(-i*center_j*k)`` (see :meth:`row`) and negative
    k from conjugate symmetry. The profile depends only on ``(eps, n_trunc)``,
    never on a signal, so it is built once and shared. ``eps`` is stored
    snapped to ``1/round(1/eps)``.
    """

    eps: float
    radial: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eps", _snap_eps(self.eps))
        _truncation_order(_records.frozen(self, "radial", self.radial, float).size)

    @property
    def n_trunc(self) -> int:
        return self.radial.size

    @property
    def m_bins(self) -> int:
        return _bin_count(self.eps)

    @property
    def centers(self) -> np.ndarray:
        return bin_centers(self.eps)

    def row(self, j: int) -> np.ndarray:
        """Coefficients ``F_j(k)`` of bin ``j`` for ``0 <= k < n_trunc``."""
        j = _records.number(j, "bin index j", Integral, 0, self.m_bins - 1)
        return self.radial * np.exp(-1j * self.centers[j] * np.arange(self.n_trunc))


def build_filterbank(eps: float, n_trunc: int) -> FilterBank:
    """Tabulate ``radial(k)`` for ``k < n_trunc`` with the trapezoid rule of
    :func:`bump_fourier` at ``max kp = (n_trunc - 1)*eps/2``.

    The node phases ``kp*i/half = theta*k*i``, ``theta = (eps/2)/half``, lie
    on an equispaced grid, so with ``k = a*B + r`` (see :func:`_block`) the
    rule's cosine sums are ``Re(P @ Q)[r, a]`` for ``P[r, i] =
    exp(i*theta*r*i)`` and ``Q[i, a] = w_i * exp(i*theta*a*B*i)``: one
    matrix product of two ``O(sqrt(n_trunc))``-row tables. Rebuilding with the
    same arguments is bit-identical.
    """
    eps = _snap_eps(eps)
    n_trunc = _truncation_order(n_trunc)
    half, weights = _trapezoid_rule((n_trunc - 1) * eps / 2.0)
    theta = eps / 2.0 / half
    b, a = _block(n_trunc)
    nodes = np.arange(1, half)
    p = np.exp(1j * theta * np.outer(np.arange(b), nodes))
    q = weights[:, None] * np.exp(1j * theta * np.outer(nodes, b * np.arange(a)))
    sums = (p @ q).real.T.ravel()[:n_trunc]
    h = (bump(0.0) + 2.0 * sums) / (half * SQRT_2PI)
    kp = np.arange(n_trunc) * eps / 2.0
    return FilterBank(eps=eps, radial=eps * h * np.sinc(kp / math.pi))

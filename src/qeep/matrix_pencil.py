"""Matrix-pencil baseline: Hankel pencil solve, eigenphases, amplitude fit.

Given signal values ``g_0 .. g_{N-1}`` (negative indices via
``g_{-k} = conj(g_k)``), one Hankel matrix ``H`` of shape ``L x (2N - L)``
with entries ``H[l, c] = g_{l + c - N + 1}`` is built. Its column windows
``H0 = H[:, :-1]`` and ``H1 = H[:, 1:]`` form the pencil pair (Hua & Sarkar
1990, IEEE Trans. ASSP 38:814): ``H1`` is ``H0`` with every index advanced
by one. The pencil matrix ``K`` minimizing the Frobenius norm
of ``K @ H0 - H1`` is solved through an SVD pseudoinverse; its eigenvalues
``mu = exp(-i * phase)`` carry the eigenvalue estimates, and a Vandermonde
least-squares fit against the first L signal entries recovers amplitudes.

On an exact signal this recovers the spectrum to machine precision. Under
noise the method has no error guarantee and may place amplitude on phases
outside ``[-1/2, 1/2]``; by default every eigenphase is kept so that behavior
is observable, with :func:`filter_estimate` available to discard estimates by
modulus or range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericError
from .signal import TimeSeries

# Relative singular-value cutoff for all pseudoinverse solves. The noiseless
# Hankel matrix has rank D << L, so a cutoff is mandatory.
SVD_RCOND = 1e-12


@dataclass(frozen=True)
class MpEstimate:
    """Eigenphase and amplitude estimates from one pencil solve.

    ``eigenphases`` lie in ``(-pi, pi]`` sorted ascending, with ``amplitudes``
    and ``moduli`` (the magnitudes ``|mu|`` of the pencil eigenvalues, used to
    flag spurious estimates) aligned index-by-index. ``l_dim`` is the pencil
    dimension L; after filtering fewer than ``l_dim`` entries may remain.
    """

    eigenphases: np.ndarray
    amplitudes: np.ndarray
    moduli: np.ndarray
    l_dim: int
    residual: float
    filters: dict | None = None

    def __post_init__(self):
        ph = np.asarray(self.eigenphases, dtype=float)
        amp = np.asarray(self.amplitudes, dtype=complex)
        mod = np.asarray(self.moduli, dtype=float)
        if not (ph.shape == amp.shape == mod.shape) or ph.ndim != 1:
            raise ValueError("eigenphases, amplitudes, moduli must be equal-length vectors")
        for arr in (ph, amp, mod):
            arr.setflags(write=False)
        object.__setattr__(self, "eigenphases", ph)
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "moduli", mod)

    def to_dict(self) -> dict:
        return {
            "eigenphases": self.eigenphases.tolist(),
            "amplitudes_re": self.amplitudes.real.tolist(),
            "amplitudes_im": self.amplitudes.imag.tolist(),
            "moduli": self.moduli.tolist(),
            "l_dim": self.l_dim,
            "residual": self.residual,
            "filters": self.filters,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MpEstimate":
        amps = np.asarray(data["amplitudes_re"], dtype=float) + 1j * np.asarray(
            data["amplitudes_im"], dtype=float
        )
        return cls(
            eigenphases=np.asarray(data["eigenphases"], dtype=float),
            amplitudes=amps,
            moduli=np.asarray(data["moduli"], dtype=float),
            l_dim=int(data["l_dim"]),
            residual=float(data["residual"]),
            filters=data.get("filters"),
        )


class AmplitudeFit(NamedTuple):
    amplitudes: np.ndarray
    residual: float
    rank: int


def build_hankel(ts: TimeSeries, l_dim: int) -> np.ndarray:
    """Hankel matrix of shape ``(l_dim, 2*N - l_dim)`` with entry
    ``(l, c) = g_{l + c - N + 1}``: the ``l_dim`` windows of length
    ``2*N - l_dim`` over the signal on indices ``-(N-1) .. N-1``."""
    n = ts.n_len
    if not 1 <= l_dim <= n - 1:
        raise ValueError(f"l_dim must lie in [1, {n - 1}], got {l_dim}")
    v = ts.values
    full = np.concatenate([np.conj(v[:0:-1]), v])
    # Copied because the rows of the window view overlap in memory, which
    # would keep the column windows off the BLAS matrix product.
    return sliding_window_view(full, 2 * n - l_dim).copy()


def solve_pencil(h0: np.ndarray, h1: np.ndarray) -> np.ndarray:
    """Least-squares pencil matrix ``K = H1 @ pinv(H0)`` (Frobenius objective),
    with singular values below ``SVD_RCOND`` times the largest treated as zero."""
    h0 = np.asarray(h0, dtype=complex)
    h1 = np.asarray(h1, dtype=complex)
    if h0.shape != h1.shape or h0.ndim != 2:
        raise ValueError("h0 and h1 must be 2-d arrays of identical shape")
    if not np.any(h0):
        raise NumericError("degenerate pencil: h0 is identically zero")
    try:
        pinv = np.linalg.pinv(h0, rcond=SVD_RCOND)
    except np.linalg.LinAlgError as exc:
        raise NumericError("pencil pseudoinverse did not converge") from exc
    return h1 @ pinv


def _eigenphase_pairs(k_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of K as (phase, mu) with ``mu = exp(-i * phase)`` and phases
    mapped into ``(-pi, pi]``."""
    try:
        mu = np.linalg.eigvals(np.asarray(k_matrix, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise NumericError("pencil eigensolve failed") from exc
    phases = -np.angle(mu)
    phases[phases <= -math.pi] += 2.0 * math.pi
    return phases, mu


def solve_amplitudes(eigenphases, ts: TimeSeries, l_dim: int) -> AmplitudeFit:
    """Least-squares amplitudes against the first ``l_dim`` signal entries.

    The system matrix has entries ``exp(-i * phase_{l'} * l)``. Duplicate or
    clustered eigenphases make it rank deficient; the cutoff pseudoinverse
    then returns the minimum-norm solution and the deficiency shows up in the
    reported rank.
    """
    phases = np.asarray(eigenphases, dtype=float)
    if phases.ndim != 1 or phases.size != l_dim:
        raise ValueError("eigenphases must be a vector of length l_dim")
    if l_dim > ts.n_len:
        raise ValueError("l_dim cannot exceed the signal length")
    b = np.exp(-1j * np.outer(np.arange(l_dim), phases))
    target = ts.values[:l_dim]
    solution, _, rank, _ = np.linalg.lstsq(b, target, rcond=SVD_RCOND)
    residual = float(np.linalg.norm(b @ solution - target))
    return AmplitudeFit(amplitudes=solution, residual=residual, rank=int(rank))


def mp_estimate(ts: TimeSeries, l_dim: int | None = None) -> MpEstimate:
    """Full pencil pipeline: one Hankel matrix, the pencil solve on its column
    windows, eigenphases, amplitude fit. ``l_dim`` defaults to ``N - 1``. All
    eigenphases are kept."""
    n = ts.n_len
    if l_dim is None:
        l_dim = n - 1
    h = build_hankel(ts, l_dim)
    k = solve_pencil(h[:, :-1], h[:, 1:])
    phases, mu = _eigenphase_pairs(k)
    fit = solve_amplitudes(phases, ts, l_dim)
    order = np.argsort(phases)
    return MpEstimate(
        eigenphases=phases[order],
        amplitudes=fit.amplitudes[order],
        moduli=np.abs(mu)[order],
        l_dim=l_dim,
        residual=fit.residual,
        filters=None,
    )


def filter_estimate(
    est: MpEstimate, delta_mu: float | None = 0.5, restrict_range: bool = False
) -> MpEstimate:
    """Discard spurious estimates from an :class:`MpEstimate`.

    ``delta_mu`` keeps only eigenphases whose pencil eigenvalue modulus lies in
    ``[1 - delta_mu, 1 + delta_mu]`` (pass ``None`` to skip); ``restrict_range``
    additionally drops phases outside ``[-1/2, 1/2]``. Amplitudes of retained
    phases are kept as fitted, not refit.
    """
    keep = np.ones(est.eigenphases.size, dtype=bool)
    if delta_mu is not None:
        if delta_mu < 0:
            raise ValueError("delta_mu must be non-negative")
        keep &= np.abs(est.moduli - 1.0) <= delta_mu
    if restrict_range:
        keep &= np.abs(est.eigenphases) <= 0.5
    return MpEstimate(
        eigenphases=est.eigenphases[keep],
        amplitudes=est.amplitudes[keep],
        moduli=est.moduli[keep],
        l_dim=est.l_dim,
        residual=est.residual,
        filters={"delta_mu": delta_mu, "restrict_range": restrict_range},
    )


def mp_moment(est: MpEstimate, s: int) -> float:
    """Moment ``sum_l Re(amp_l) * phase_l**s`` of a pencil estimate."""
    if s < 0:
        raise ValueError("moment order s must be non-negative")
    return float(np.sum(est.amplitudes.real * est.eigenphases**s))

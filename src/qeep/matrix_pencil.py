"""Matrix-pencil baseline: Hankel pencil solve, eigenphases, amplitude fit.

Given signal values ``g_0 .. g_{N-1}`` (negative indices via
``g_{-k} = conj(g_k)``), one Hankel matrix ``G`` of shape ``(L+1) x (2N-L-1)``
with entries ``G[l, c] = g_{l + c - N + 1}`` is built. Its row windows
``H0 = G[:-1]`` and ``H1 = G[1:]`` form the pencil pair (Hua & Sarkar 1990,
IEEE Trans. ASSP 38:814). ``K = H1 @ pinv(H0)`` comes from the R factor of one
QR, ``G^H = Q R``: ``K = R[:-1, 1:]^H @ pinv(R[:-1, :-1]^H)``, and the L x L
block ``R[:-1, :-1]`` has the singular values of ``H0``.

Because ``g_{-k} = conj(g_k)``, ``G`` is conjugate-centrosymmetric: with
``m = 2N - L - 1`` columns, ``G[L - l, m - 1 - c] = g_{N - 1 - l - c} =
conj(G[l, c])``, that is ``G == conj(G[::-1, ::-1])``. Row ``m - 1 - c`` of
``G^T`` is row ``c`` conjugated and column-reversed. Its R factor comes from a
blocked QR (Demmel, Grigori, Hoemmen & Langou 2012, SIAM J. Sci. Comput.
34:A206): cache-sized row blocks are factored at once, then the stack of their
R factors, which is ``G^T`` itself below two blocks. The R of a stack
has ``R^H R`` equal to the sum of its parts' Gram matrices ``B^H B``, so any
part may be replaced by one with the same Gram matrix, and row order does not
change a Gram matrix. The block ``B' = J conj(B) J`` that mirrors a block
``B = Q R`` (``J`` reverses the order) has ``B'^H B' = J conj(B^H B) J``, the
Gram matrix of ``conj(R) J``. So only the top half of the blocks is factored,
and ``conj(R)[:, ::-1]`` stands in for each mirror's R factor: the structure
unitary ESPRIT uses (Haardt & Nossek 1995, IEEE Trans. SP 43:1232), here only
to skip duplicate work. That R may differ from a direct QR's by a unitary
diagonal ``D``, on the left, but ``K`` depends on R only through
``R^H R = G G^H``, so ``D`` drops out. The eigenvalues
``mu = exp(-i * phase)`` of ``K`` carry the estimates, and a Vandermonde
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

# The blocked QR factors row blocks of this many rows per column: at L = 64 a
# block is 520 x 65 complex entries (0.5 MiB), well inside a core's L2 cache
# (2 MiB per core on the 2-vCPU Xeon measured), while the whole 8873 x 65
# matrix of a `trials` pencil (9 MiB) is not.
_QR_BLOCK_ROWS_PER_COLUMN = 8


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


class AmplitudeFit(NamedTuple):
    amplitudes: np.ndarray
    residual: float
    rank: int


def _pencil_dimension(n_len: int, l_dim: int | None) -> int:
    """The pencil dimension of a signal of ``n_len`` entries: ``l_dim``, which
    must lie in ``[1, n_len - 1]``, or ``n_len - 1`` for ``None``."""
    if l_dim is None:
        l_dim = n_len - 1
    if not 1 <= l_dim <= n_len - 1:
        raise ValueError(f"l_dim must lie in [1, {n_len - 1}], got {l_dim}")
    return l_dim


def build_hankel(ts: TimeSeries, l_dim: int) -> np.ndarray:
    """Read-only Hankel view of shape ``(l_dim + 1, 2*N - l_dim - 1)`` with entry
    ``(l, c) = g_{l + c - N + 1}``: the ``l_dim + 1`` windows of length
    ``2*N - l_dim - 1`` over the signal on indices ``-(N-1) .. N-1``."""
    n = ts.n_len
    _pencil_dimension(n, l_dim)
    v = ts.values
    full = np.concatenate([np.conj(v[:0:-1]), v])
    return sliding_window_view(full, 2 * n - l_dim - 1)


def _r_factor(a: np.ndarray) -> np.ndarray:
    """R factor of a tall, conjugate-centrosymmetric ``a`` (m x n, m >= n,
    ``a == conj(a[::-1, ::-1])``), with ``b`` whole row blocks: of the QR of a
    stack of the R factors of the top ``p = b // 2`` blocks, their mirrors, and
    the rows between the top and the bottom ``p`` blocks.

    The bottom ``p`` blocks are the top ones conjugated and reversed in rows
    and columns, ``a[m - 1 - i] = conj(a[i, ::-1])``. A block ``B = Q R`` and its
    mirror ``J conj(B) J`` have the Gram matrices ``R^H R`` and
    ``J conj(R^H R) J``, the latter that of ``conj(R)[:, ::-1]``, so only the
    top blocks are factored, and the stack has ``a``'s Gram matrix. With fewer
    than two blocks (``p = 0``: square pencils and small ones) the top and the
    mirrors are empty and the stack is ``a``, so this is one direct QR of ``a``.
    """
    m, n = a.shape
    rows = _QR_BLOCK_ROWS_PER_COLUMN * n
    p = m // rows // 2
    top = np.linalg.qr(a[: p * rows].reshape(p, rows, n), mode="r").reshape(p * n, n)
    middle = a[p * rows : m - p * rows]
    return np.linalg.qr(np.concatenate([top, top.conj()[:, ::-1], middle]), mode="r")


def solve_pencil(ts: TimeSeries, l_dim: int) -> np.ndarray:
    """Least-squares pencil matrix ``K = H1 @ pinv(H0)`` (Frobenius objective)
    of the row windows ``H0 = G[:-1]``, ``H1 = G[1:]`` of ``G = build_hankel(ts,
    l_dim)``, with singular values below ``SVD_RCOND`` times the largest treated
    as zero. ``G`` is conjugate-centrosymmetric by construction, as the blocked
    R factor needs, and ``H0`` holds ``g_0 = 1``, so it is never zero.
    """
    g = build_hankel(ts, l_dim)
    try:
        # The R factor of G^T, conjugated, is one of G^H, without a conjugated
        # copy of G; K below depends on R only through R^H R = G G^H.
        r = _r_factor(g.T).conj()
        u, s, vh = np.linalg.svd(r[:-1, :-1])
    except np.linalg.LinAlgError as exc:
        raise NumericError("pencil pseudoinverse did not converge") from exc
    cut = s > SVD_RCOND * s[0]
    return (r[:-1, 1:].conj().T @ u[:, cut]) / s[cut] @ vh[cut]


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


def solve_amplitudes(eigenphases, ts: TimeSeries, l_dim: int, moduli) -> AmplitudeFit:
    """Least-squares amplitudes against the first ``l_dim`` signal entries.

    The system matrix has entries ``exp(-i * phase_{l'} * l)``. Duplicate or
    clustered eigenphases make it rank deficient; the cutoff pseudoinverse
    then returns the minimum-norm solution and the deficiency shows up in the
    reported rank. Eigenvalue ``moduli`` at most ``SVD_RCOND`` times the largest
    get amplitude zero: they are a rank-deficient pencil's zeros, whose phase is noise.
    """
    phases = np.asarray(eigenphases, dtype=float)
    moduli = np.asarray(moduli, dtype=float)
    if phases.ndim != 1 or phases.size != l_dim or moduli.shape != phases.shape:
        raise ValueError("eigenphases and moduli must be vectors of length l_dim")
    if l_dim > ts.n_len:
        raise ValueError("l_dim cannot exceed the signal length")
    b = np.exp(-1j * np.outer(np.arange(l_dim), phases))
    b[:, moduli <= SVD_RCOND * np.max(moduli)] = 0.0
    target = ts.values[:l_dim]
    solution, _, rank, _ = np.linalg.lstsq(b, target, rcond=SVD_RCOND)
    residual = float(np.linalg.norm(b @ solution - target))
    return AmplitudeFit(amplitudes=solution, residual=residual, rank=int(rank))


def mp_estimate(ts: TimeSeries, l_dim: int | None = None) -> MpEstimate:
    """Full pencil pipeline: one Hankel matrix, the pencil solve on its row
    windows, eigenphases, amplitude fit. ``l_dim`` must lie in ``[1, N - 1]``
    and defaults to ``N - 1``. All eigenphases are kept."""
    l_dim = _pencil_dimension(ts.n_len, l_dim)
    k = solve_pencil(ts, l_dim)
    phases, mu = _eigenphase_pairs(k)
    moduli = np.abs(mu)
    fit = solve_amplitudes(phases, ts, l_dim, moduli)
    order = np.argsort(phases)
    return MpEstimate(
        eigenphases=phases[order],
        amplitudes=fit.amplitudes[order],
        moduli=moduli[order],
        l_dim=l_dim,
        residual=fit.residual,
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

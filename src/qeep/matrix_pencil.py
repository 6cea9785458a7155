"""Matrix-pencil baseline: Hankel pencil solve, eigenphases, amplitude fit.

Given signal values ``g_0 .. g_{N-1}`` (negative indices via
``g_{-k} = conj(g_k)``), one Hankel matrix ``G`` of shape ``(L+1) x (2N-L-1)``
with entries ``G[l, c] = g_{l + c - N + 1}`` is built. Its row windows
``H0 = G[:-1]`` and ``H1 = G[1:]`` form the pencil pair (Hua & Sarkar 1990,
IEEE Trans. ASSP 38:814). The pencil matrix ``K = H1 @ pinv(H0)`` comes from
the R factor of one QR, ``G^H = Q R``: ``K = R[:-1, 1:]^H @ pinv(R[:-1, :-1]^H)``,
and the L x L block ``R[:-1, :-1]`` has the singular values of ``H0``.

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
least-squares fit against the first L signal entries recovers amplitudes. Its
L x L system is square, and one QR of it beside its right-hand side makes it
triangular, so it takes the same certified solve and falls back to the cutoff
least squares only when that solve fails.

``K`` itself is never formed, and its eigenvalues take one of two paths. When
``R0 = R[:-1, :-1]`` keeps all L singular values under the cutoff, ``H0`` has
full row rank and ``H0 @ pinv(H0) = I``. The first L - 1 rows of ``H1`` are
the last L - 1 rows of ``H0``, so row ``l < L - 1`` of ``K`` is the unit row
``e_{l+1}``: ``K`` is the companion matrix of the linear-prediction polynomial
``p(z) = z^L - sum_j a_j z^j`` with ``a = K[-1] = conj(R0^-1 @ R[:-1, -1])``,
and its eigenvalues are the roots of ``p``. Every noisy pencil has full rank,
and ``R0`` is upper triangular, so the blocked inverse of a triangle certifies
it: the condition bound ``||R0||_F ||R0^-1||_F`` of :func:`_certified_solve`
stays below ``1 / (2 SVD_RCOND)``, so no SVD is needed to find the rank, and
``a`` comes from back substitution (at fig5's N = 566, L = 565 the condition
number of ``R0`` is about 1e6).

The roots come from Aberth-Ehrlich simultaneous iteration (Aberth 1973, Math.
Comp. 27:339), all L at once in O(L^2) per sweep, instead of an O(L^3) dense
eigensolve. A root stops moving once ``|p(z)| <= 4 L u sum_k |c_k| |z|^k``
(``c`` the coefficients of ``p``, ``u`` the unit roundoff), the stopping rule
of Bini (1996, Numer. Algorithms 13:179): it is then an exact root of a
polynomial whose coefficients differ from ``p``'s by a relative O(L u), each.

Every other pencil, uncertified or with roots that miss the sweep cap, takes
the second path: the SVD ``R0^H = V S U^H``, cut to its ``r`` kept singular
values. Then ``K = X @ V_r^H`` with the L x r matrix
``X = R[:-1, 1:]^H @ U_r / S_r``. Since ``X Y`` and ``Y X`` share their nonzero
eigenvalues, ``K``'s are those of the r x r core ``V_r^H @ X`` and ``L - r``
exact zeros. An exact signal of D lines gives r = D, so its solve is a D x D
eigensolve; a pencil that keeps r = L pays the L x L one.

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
# Hankel matrix has rank D << L, so a cutoff is mandatory. A square system
# whose condition bound in `_certified_solve` stays below 1 / (2 * SVD_RCOND)
# keeps every singular value under it and is solved by back substitution
# instead.
SVD_RCOND = 1e-12

# The blocked QR factors row blocks of this many rows per column: at L = 64 a
# block is 520 x 65 complex entries (0.5 MiB), well inside a core's L2 cache
# (2 MiB per core on the 2-vCPU Xeon measured), while the whole 8873 x 65
# matrix of a `trials` pencil (9 MiB) is not.
_QR_BLOCK_ROWS_PER_COLUMN = 8

# `_upper_solve` hands triangles of at most this many columns to one
# `np.linalg.solve` and splits larger ones in halves. On the 565 x 565 R factor
# of a fig5 pencil (one thread of a 2-vCPU Xeon, median of 9 calls) the whole
# solve took 0.011 s with blocks of 16 to 64 columns, 0.012 s at 128, 0.015 s
# at 192 and 0.025 s at 300; the LU solve against [y | I] took 0.047 s.
_TRIANGULAR_BLOCK = 64

# Aberth sweeps before a certified pencil's roots give way to the SVD path:
# the SVD of R0 and, at full rank, the eigensolve of its L x L core. Near
# simple roots the iteration converges cubically: the fig5 pencils (L = 565,
# seeds 1-20) stop within 18 sweeps and the trials pencils (L = 64, seeds
# 1-25) within 17, while 50 sweeps at L = 565 cost 0.48 s, a third of that
# 1.43 s eigensolve (one thread of a 2-vCPU Xeon).
_ABERTH_MAX_SWEEPS = 50
# Each sweep takes the moving points this many at a time, so its temporaries
# (a row of powers and a row of differences per point) stay near 0.3 MiB
# however large L is. Whole L x (L + 1) temporaries at L = 565 (5 MiB each)
# left freed memory resident in fig5's workers and raised their peak RSS
# from 78.7 to 83.0 MiB in some runs.
_ABERTH_BLOCK = 32


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


def _certified_solve(t: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """The solution of the upper-triangular system ``t @ x = y``, when
    ``||t||_F ||t^-1||_F < 1 / (2 SVD_RCOND)``; ``None`` when ``t`` is
    singular, not finite, or not certified. Only the upper triangle of ``t``
    is read.

    With ``t``'s singular values ``s_1 >= .. >= s_n``, ``||t||_F >= s_1`` and
    ``||t^-1||_F >= 1 / s_n``, so the product bounds the condition number
    ``s_1 / s_n`` from above. A certified ``t`` has ``s_n > 2 SVD_RCOND s_1``,
    so the cutoff of ``lstsq`` or of an SVD keeps all n singular values and the
    pseudoinverse solution is this one. A square system ``b @ x = c`` reaches
    this through the QR ``b = Q t``, ``Q^H c`` its right-hand side: ``Q`` is
    unitary, so ``||b||_F^2 = tr(t^H Q^H Q t) = ||t||_F^2``, and
    ``b^-1 = t^-1 Q^H`` gives ``||b^-1||_F = ||t^-1||_F`` the same way. The
    bound is then that of ``b``, whose singular values are ``t``'s.

    ``t^-1`` and ``x`` come from :func:`_upper_solve`. Its blocked inverse
    ``X``, like the unblocked triangular inverses, has a residual
    ``||X t - I|| <= c n u ||X|| ||t||`` to first order (Higham 2002,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 14; ``u``
    the unit roundoff, ``c`` a small constant), so ``X`` is off by a relative
    ``O(n u cond(t))``: at most ``n u / (2 SVD_RCOND)`` on a certified ``t``,
    3% at n = 565. The factor 2 absorbs it, and a computed singular value,
    off by ``O(n u s_1)``, stays far from ``SVD_RCOND s_1``. ``x`` is the
    back substitution, backward stable (Higham ch. 8), not ``X @ y``, whose
    error grows with ``cond(t)``.
    """
    with np.errstate(all="ignore"):
        try:
            inverse, x = _upper_solve(t, y)
        except np.linalg.LinAlgError:
            return None
        bound = np.linalg.norm(np.triu(t)) * np.linalg.norm(inverse)
    return x if bound < 0.5 / SVD_RCOND else None


def _upper_solve(t: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(t^-1, x)`` with ``t @ x = y``, from the upper triangle of ``t``.

    A triangle of at most ``_TRIANGULAR_BLOCK`` columns takes one
    ``np.linalg.solve`` against ``[y | I]``: the LU of a triangle pivots on its
    diagonal and has a unit ``L``, so this is back substitution. A larger one
    splits as ``t = [[A, B], [0, D]]``: the back substitution
    ``x_2 = D \\ y_2``, ``x_1 = A \\ (y_1 - B x_2)``, and the inverse
    ``[[A^-1, -(A^-1 B) D^-1], [0, D^-1]]``, whose off-diagonal block is two
    matrix products.
    """
    n = t.shape[0]
    if n <= _TRIANGULAR_BLOCK:
        z = np.linalg.solve(np.triu(t), np.column_stack([y, np.eye(n)]))
        return z[:, 1:], z[:, 0]
    h = n // 2
    d_inv, x2 = _upper_solve(t[h:, h:], y[h:])
    a_inv, x1 = _upper_solve(t[:h, :h], y[:h] - t[:h, h:] @ x2)
    inverse = np.zeros((n, n), dtype=a_inv.dtype)
    inverse[:h, :h] = a_inv
    inverse[h:, h:] = d_inv
    inverse[:h, h:] = -(a_inv @ t[:h, h:]) @ d_inv
    return inverse, np.concatenate([x1, x2])


def solve_pencil(ts: TimeSeries, l_dim: int) -> np.ndarray:
    """The ``l_dim`` eigenvalues ``mu`` of the least-squares pencil matrix
    ``K = H1 @ pinv(H0)`` (Frobenius objective) of the row windows
    ``H0 = G[:-1]``, ``H1 = G[1:]`` of ``G = build_hankel(ts, l_dim)``, with
    singular values below ``SVD_RCOND`` times the largest treated as zero,
    without forming ``K`` (see the module docstring). A certified full-rank
    pencil takes the companion roots; every other pencil, and one whose roots
    miss the sweep cap, takes the SVD of ``R0``, the eigenvalues of its r x r
    core and ``l_dim - r`` exact zeros. ``G`` is conjugate-centrosymmetric by
    construction, as the blocked R factor needs, and ``H0`` holds ``g_0 = 1``,
    so it is never zero.
    """
    g = build_hankel(ts, l_dim)
    # The R factor of G^T, conjugated, is one of G^H, without a conjugated
    # copy of G; K depends on R only through R^H R = G G^H.
    r = _r_factor(g.T).conj()
    row = _certified_solve(r[:-1, :-1], r[:-1, -1])
    mu = None if row is None else _companion_roots(row.conj())
    if mu is not None:
        return mu
    try:
        u, s, vh = np.linalg.svd(r[:-1, :-1])
    except np.linalg.LinAlgError as exc:
        raise NumericError("pencil pseudoinverse did not converge") from exc
    cut = s > SVD_RCOND * s[0]
    x = (r[:-1, 1:].conj().T @ u[:, cut]) / s[cut]
    try:
        core = np.linalg.eigvals(vh[cut] @ x)
    except np.linalg.LinAlgError as exc:
        raise NumericError("pencil eigensolve failed") from exc
    return np.append(core, np.zeros(l_dim - core.size))


def _companion_roots(a: np.ndarray) -> np.ndarray | None:
    """The L roots of ``p(z) = z^L - sum_j a_j z^j``, the characteristic
    polynomial of the companion matrix with last row ``a``, by Aberth-Ehrlich
    iteration with Bini's backward-error stop; ``None`` if some root has not
    stopped after ``_ABERTH_MAX_SWEEPS`` sweeps.

    Leading zeros ``a_0 = .. = a_{m-1} = 0`` give ``m`` exact zero roots, taken
    out first: a root at zero never meets the relative stop, since ``|p(z)|``
    and ``|c_1 z|`` stay equal down to the smallest subnormal. The rest start
    evenly spaced on the circle of radius ``|a_m|^(1/(L-m))``, the geometric
    mean of their moduli, turned by 0.4 rad so that no start is real: with
    real coefficients a set of starts symmetric about the real axis keeps
    the real ones real. Each sweep evaluates ``p``, ``p'`` and
    ``sum_k |c_k| |z|^k`` at every moving point through its powers: directly
    for ``|z| <= 1``, and for ``|z| > 1`` through the reversed polynomial
    ``q(w) = z^-L p(z)`` in ``w = 1/z``, with ``p/p' = z q / (L q - w q')``, so
    no power exceeds one. A moving point ``z_i`` then takes the Aberth step
    ``N / (1 - N * sum_{j != i} 1 / (z_i - z_j))`` with ``N = p / p'``.
    """
    a = np.asarray(a, dtype=complex)
    c = np.append(-np.trim_zeros(a, "f"), 1.0)
    l = c.size - 1
    roots = np.zeros(a.size, dtype=complex)
    if l == 0:
        return roots
    z = roots[a.size - l :]
    z[:] = abs(c[0]) ** (1.0 / l) * np.exp(1j * (2.0 * np.pi * np.arange(l) / l + 0.4))
    moving = np.arange(l)
    for _ in range(_ABERTH_MAX_SWEEPS):
        zm = z[moving]
        starts = range(0, zm.size, _ABERTH_BLOCK)
        blocks = [_aberth_steps(zm[i : i + _ABERTH_BLOCK], z, c) for i in starts]
        stop, step = map(np.concatenate, zip(*blocks))
        z[moving[~stop]] -= step
        moving = moving[~stop]
        if moving.size == 0:
            return roots
    return None


def _aberth_steps(zb: np.ndarray, z: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For the points ``zb`` among all current points ``z``: which meet the
    stop ``|p(z)| <= 4 L u sum_k |c_k| |z|^k`` for the polynomial with
    ascending coefficients ``c``, and the Aberth steps of the others."""
    l = c.size - 1
    tol = 4 * l * (np.finfo(float).eps / 2)  # 4 L u
    inside = np.abs(zb) <= 1.0
    outside = ~inside
    # num / dp is the Newton correction p / p' on either side of |z| = 1.
    num, dp, stop = np.empty_like(zb), np.empty_like(zb), np.empty(zb.size, dtype=bool)
    val, der, bound = _polynomial_terms(zb[inside], c)
    num[inside], dp[inside], stop[inside] = val, der, np.abs(val) <= tol * bound
    w = 1.0 / zb[outside]
    val, der, bound = _polynomial_terms(w, c[::-1])
    num[outside], dp[outside] = zb[outside] * val, l * val - w * der
    stop[outside] = np.abs(val) <= tol * bound
    zb, num, dp = zb[~stop], num[~stop], dp[~stop]
    # 1 / (z_i - z_j) in place; the zero differences, z_i's own among them,
    # stay zero and drop out of the sum.
    d = zb[:, None] - z[None, :]
    s = np.divide(1.0, d, out=d, where=d != 0).sum(axis=1)
    den = dp - num * s
    # A step longer than 1e300 (a vanishing denominator) is not taken.
    ok = np.abs(den) > 1e-300 * np.abs(num)
    return stop, np.divide(num, den, out=np.zeros_like(num), where=ok)


def _polynomial_terms(x: np.ndarray, coef: np.ndarray):
    """``q(x)``, ``q'(x)`` and ``sum_k |coef_k| |x|^k`` for the polynomial ``q``
    with ascending coefficients ``coef``, at points ``|x| <= 1``, from the
    powers ``x^k``."""
    v = np.empty((x.size, coef.size), dtype=complex)
    v[:, 0] = 1.0
    v[:, 1:] = x[:, None]
    np.cumprod(v, axis=1, out=v)
    der = v[:, :-1] @ (np.arange(1, coef.size) * coef[1:])
    return v @ coef, der, np.abs(v) @ np.abs(coef)


def solve_amplitudes(eigenphases, ts: TimeSeries, l_dim: int, moduli) -> AmplitudeFit:
    """Least-squares amplitudes against the first ``l_dim`` signal entries.

    The square system matrix ``b`` has entries ``exp(-i * phase_{l'} * l)``.
    One QR of ``[b | target]`` gives ``b = Q t`` and, in its last column,
    ``Q^H target``, so ``b @ x = target`` becomes the triangular
    ``t @ x = Q^H target``. When :func:`_certified_solve` certifies ``t``, whose
    bound is ``b``'s, the cutoff would keep every singular value, so its back
    substitution is the least-squares solution and the rank is ``l_dim``.
    Otherwise the cutoff pseudoinverse of ``lstsq`` solves ``b`` itself:
    duplicate or clustered eigenphases make it rank deficient, the minimum-norm
    solution is returned and the deficiency shows up in the reported rank.
    Eigenvalue ``moduli`` at most ``SVD_RCOND`` times the largest get amplitude
    zero: they are a rank-deficient pencil's zeros, whose phase is noise, and
    their zeroed columns always send the system to ``lstsq``.
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
    r = np.linalg.qr(np.column_stack([b, target]), mode="r")
    solution, rank = _certified_solve(r[:, :-1], r[:, -1]), l_dim
    if solution is None:
        solution, _, rank, _ = np.linalg.lstsq(b, target, rcond=SVD_RCOND)
    residual = float(np.linalg.norm(b @ solution - target))
    return AmplitudeFit(amplitudes=solution, residual=residual, rank=int(rank))


def mp_estimate(ts: TimeSeries, l_dim: int | None = None) -> MpEstimate:
    """Full pencil pipeline: one Hankel matrix, the pencil solve on its row
    windows, eigenphases, amplitude fit. ``l_dim`` must lie in ``[1, N - 1]``
    and defaults to ``N - 1``. All eigenphases are kept."""
    l_dim = _pencil_dimension(ts.n_len, l_dim)
    mu = solve_pencil(ts, l_dim)
    # mu = exp(-i * phase), with the phase mapped into (-pi, pi]; subtracting
    # from +0.0 gives an exact zero eigenvalue the phase +0.0, not -0.0.
    phases = 0.0 - np.angle(mu)
    phases[phases <= -math.pi] += 2.0 * math.pi
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

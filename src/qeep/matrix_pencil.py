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
L x L system ``b[l, j] = w_j^l`` is square, with nodes ``w_j = exp(-i *
phase_j)`` on the unit circle, so its inverse is the Lagrange basis in closed
form. A DFT on a grid of L points turns it into a Cauchy matrix (Gohberg,
Kailath & Olshevsky 1995, Math. Comp. 64:1557), and discrete Parseval gives
its Frobenius norm, so the fit solves and certifies the system in O(L^2)
without forming ``b`` (see :func:`solve_amplitudes`). Only a system that this
does not certify is built, by the same split as one product of two
O(sqrt(L))-row exp tables, and goes to the cutoff least squares.

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

A sweep's O(L) work per point is the evaluation of ``p``, ``p'`` and that
bound, done by the four-step split ``k = a*B + r`` with ``B = ceil(sqrt(L+1))``
and ``A = ceil((L+1)/B)`` (Bailey 1990, J. Supercomputing 4:23), which the
filter bank uses too: ``sum_k c_k z^k = sum_a z^(aB) sum_r c_{aB+r} z^r``.
Each point takes a row of B powers ``z^r`` and a row of A powers ``z^(aB)``
instead of a row of L + 1, and the coefficient tables are built once per
polynomial, so the inner sums are one matrix product for a block of points.
``z^r`` and ``z^(aB)`` are ``r - 1`` and ``a - 1`` rounded products from
``z`` and ``z^B``, and their product one more: ``a + r - 1`` roundings against
``k - 1`` in a running product of the L + 1 powers. ``z^B`` carries its own
``B - 1`` roundings into each of its ``a`` factors, so the first-order bound on
the relative error of ``z^k``, ``(k - 1) u``, is the same either way, and the
sums run over B and A terms instead of L + 1: the evaluation error stays a
relative O(L u) of ``sum_k |c_k| |z|^k``, the scale of the stop.

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
from .filterbank import _block
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
# 1-25) within 17, while 50 sweeps at L = 565 cost 0.21 s, a sixth of that
# 1.3 s eigensolve (one thread of a 2-vCPU Xeon).
_ABERTH_MAX_SWEEPS = 50
# Each sweep takes the moving points this many at a time, so its temporaries
# are two rows of O(sqrt(L)) powers and a few real rows of L differences per
# point (0.55 MiB each for 128 points at L = 565). Whole L x (L + 1)
# temporaries at L = 565 (5 MiB each) left freed memory resident in fig5's
# workers and raised their peak RSS from 78.7 to 83.0 MiB in some runs. With
# blocks of 128, `reproduce fig5 --seeds 1,2,3,4,5` peaks at 58.0-58.2 MiB
# (`ru_maxrss` from `os.wait4`, one BLAS thread), against 58.5-58.8 MiB for
# blocks of 32 with a row of L + 1 powers per point. The amplitude fit takes
# the rows of its L x L factor and Cauchy matrices the same number at a time:
# a warm fig5 fit (L = 565) then faults in no fresh pages, against 2.0k minor
# faults (8 MiB) per fit with whole L x L temporaries, which were no faster.
_ROW_BLOCK = 128


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
        ph = np.array(self.eigenphases, dtype=float)
        amp = np.array(self.amplitudes, dtype=complex)
        mod = np.array(self.moduli, dtype=float)
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
    pseudoinverse solution is this one.

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
    ``sum_k |c_k| |z|^k`` at every moving point by :func:`_polynomial_terms`:
    directly for ``|z| <= 1``, and for ``|z| > 1`` through the reversed
    polynomial ``q(w) = z^-L p(z)`` in ``w = 1/z``, with
    ``p/p' = z q / (L q - w q')``, so no power exceeds one. A moving point
    ``z_i`` then takes the Aberth step
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
    tables = _coefficient_tables(c), _coefficient_tables(c[::-1])
    moving = np.arange(l)
    for _ in range(_ABERTH_MAX_SWEEPS):
        zm = z[moving]
        starts = range(0, zm.size, _ROW_BLOCK)
        blocks = [_aberth_steps(zm[i : i + _ROW_BLOCK], z, *tables) for i in starts]
        stop, step = map(np.concatenate, zip(*blocks))
        z[moving[~stop]] -= step
        moving = moving[~stop]
        if moving.size == 0:
            return roots
    return None


def _aberth_steps(
    zb: np.ndarray, z: np.ndarray, inner: tuple, outer: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """For the points ``zb`` among all ``L`` current points ``z``: which meet
    the stop ``|p(z)| <= 4 L u sum_k |c_k| |z|^k``, and the Aberth steps of the
    others. ``inner`` and ``outer`` are the :func:`_coefficient_tables` of
    ``p``'s ascending coefficients ``c`` and of ``c[::-1]``."""
    l = z.size
    tol = 4 * l * (np.finfo(float).eps / 2)  # 4 L u
    inside = np.abs(zb) <= 1.0
    outside = ~inside
    # num / dp is the Newton correction p / p' on either side of |z| = 1.
    num, dp, stop = np.empty_like(zb), np.empty_like(zb), np.empty(zb.size, dtype=bool)
    val, der, bound = _polynomial_terms(zb[inside], *inner)
    num[inside], dp[inside], stop[inside] = val, der, np.abs(val) <= tol * bound
    w = 1.0 / zb[outside]
    val, der, bound = _polynomial_terms(w, *outer)
    num[outside], dp[outside] = zb[outside] * val, l * val - w * der
    stop[outside] = np.abs(val) <= tol * bound
    zb, num, dp = zb[~stop], num[~stop], dp[~stop]
    # 1 / (z_i - z_j) = conj(d) / |d|^2 with d = z_i - z_j, in real arithmetic;
    # the zero differences, z_i's own among them, keep a zero weight and drop
    # out of the sum.
    dr = zb.real[:, None] - z.real
    di = zb.imag[:, None] - z.imag
    weight = dr * dr + di * di
    np.divide(1.0, weight, out=weight, where=weight != 0)
    s = np.einsum("ij,ij->i", dr, weight) - 1j * np.einsum("ij,ij->i", di, weight)
    den = dp - num * s
    # A step longer than 1e300 (a vanishing denominator) is not taken.
    ok = np.abs(den) > 1e-300 * np.abs(num)
    return stop, np.divide(num, den, out=np.zeros_like(num), where=ok)


def _coefficient_tables(coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tables ``(T, M)`` that :func:`_polynomial_terms` takes for the
    polynomial ``q`` with ascending coefficients ``coef``. With
    ``k = a*B + r`` split by :func:`~qeep.filterbank._block` of ``coef.size``,
    ``T[r, a] = coef_k``, ``T[r, A + a] = (k + 1) coef_{k+1}`` (the
    coefficients of ``q'``) and ``M[r, a] = |coef_k|``; entries past the last
    coefficient are zero."""
    n = coef.size
    b, a = _block(n)
    t = np.zeros((2, a * b), dtype=complex)
    t[0, :n] = coef
    t[1, : n - 1] = np.arange(1, n) * coef[1:]
    t = t.reshape(2 * a, b).T
    return t, np.abs(t[:, :a])


def _polynomial_terms(x: np.ndarray, table: np.ndarray, mags: np.ndarray):
    """``q(x)``, ``q'(x)`` and ``sum_k |coef_k| |x|^k`` at points ``|x| <= 1``,
    from the :func:`_coefficient_tables` ``(table, mags)`` of the polynomial
    ``q`` with the ``n`` ascending coefficients ``coef``.

    With ``k = a*B + r``, ``q(x) = sum_a x^(aB) sum_r T[r, a] x^r``: one
    product of the rows ``x^r`` (``r < B``) with ``[T | T']``, then a dot with
    the row ``x^(aB)`` (``a < A``), and the bound the same way from their
    moduli and ``M`` in real arithmetic. A term of degree ``k`` carries at most
    ``k + 1`` roundings from its power and coefficient and ``A + B`` from the
    two sums, so to first order each result lies within ``4 n u`` (``u`` the
    unit roundoff) of the exact one, relative to ``sum_k |coef_k| |x|^k`` (for
    ``q'``, to ``sum_k k |coef_k| |x|^(k-1)``).
    """
    b, a = mags.shape
    lo = _powers(x, b)
    hi = _powers(lo[:, -1] * x, a)
    val, der = ((lo @ table).reshape(-1, 2, a) * hi[:, None, :]).sum(axis=2).T
    return val, der, np.einsum("ij,ij->i", np.abs(lo) @ mags, np.abs(hi))


def _powers(x: np.ndarray, n: int) -> np.ndarray:
    """The rows ``x^k`` for ``k < n``, one per point of ``x``, by running
    products."""
    v = np.empty((x.size, n), dtype=x.dtype)
    v[:, 0] = 1.0
    v[:, 1:] = x[:, None]
    return np.cumprod(v, axis=1, out=v)


def solve_amplitudes(eigenphases, ts: TimeSeries, l_dim: int, moduli) -> AmplitudeFit:
    """Least-squares amplitudes against the first ``l_dim`` signal entries.

    The square system ``b @ x = g`` has ``b[l, j] = w_j^l`` with the nodes
    ``w_j = exp(-i * phase_j)`` on the unit circle. Let ``omega(z) =
    prod_k (z - w_k)`` and let ``ell_j(z) = omega(z) / ((z - w_j) omega'(w_j))``
    be the Lagrange basis, with coefficients ``c[j, l]`` of ``z^l``. Its
    polynomials have degree below L and ``ell_j(w_k) = delta_jk``, so
    ``c @ b = I``, ``b^-1 = c`` and ``x_j = sum_l c[j, l] g_l``.

    On the grid ``zeta_m = exp(i pi (2m + 1) / L)``, ``m < L``, the matrix
    ``F[m, l] = zeta_m^l`` is an L-point DFT times the unitary diagonal
    ``exp(i pi l / L)``, so ``F^H F = L I`` holds exactly. A polynomial of degree
    below L therefore takes its coefficients from its values on the grid,
    ``c[j, l] = (1/L) sum_m ell_j(zeta_m) zeta_m^-l``. That gives
    ``x_j = (1/L) sum_m ell_j(zeta_m) G_m`` with ``G_m = sum_l g_l zeta_m^-l``,
    and by Parseval ``||b^-1||_F^2 = (1/L) sum_{m,j} |ell_j(zeta_m)|^2``. Every
    entry of ``b`` has modulus one, so ``||b||_F = L``, and the certificate of
    :func:`_certified_solve` is ``sqrt(L sum_{m,j} |ell_j(zeta_m)|^2)``. The
    half-step shift keeps the grid off ``z = 1``, the node of a zero phase.

    Two points on the unit circle differ by
    ``exp(i s) - exp(i t) = 2i exp(i (s + t) / 2) sin((s - t) / 2)``, so
    ``ell_j(zeta_m) = exp(i (L - 1) (alpha_m + phase_j) / 2) P_m / (d[m, j] T_j)``
    with ``alpha_m = pi (2m + 1) / L``, ``d[m, k] = 2 sin((alpha_m + phase_k) / 2)``,
    ``P_m = prod_k d[m, k]`` (``omega(zeta_m)`` but for a unit factor) and
    ``T_j = prod_{k != j} 2 sin((phase_k - phase_j) / 2)`` (so is ``omega'(w_j)``).
    Both real factor matrices are products of two-column tables by angle
    addition (close nodes: :func:`_node_factors`), and ``1 / d`` is a
    Cauchy-like matrix, as the DFT turns a Vandermonde matrix into a Cauchy
    one (Gohberg, Kailath & Olshevsky 1995, Math. Comp. 64:1557).
    :func:`_lagrange_solve` forms them ``_ROW_BLOCK`` rows at a time, so the
    solve takes O(L^2) flops and O(``_ROW_BLOCK`` L) memory.

    A product of L factors can overflow or underflow, so ``P_m`` and ``T_j``
    are kept as sums of ``log |factor|`` and the parity of their negative
    factors, and scaled by the largest ``log |P_m|``: the scaled ``P_m`` have
    modulus at most one, and a scaled ``1 / T_j`` that overflows means some
    ``|ell_j(zeta_m)|`` exceeds 1e307, far past the certificate. Each log sum
    is off by ``u sum |log |factor||`` (``u`` the unit roundoff), a relative
    O(L u) in ``P_m`` and ``T_j``. The certificate is a sum of positive terms
    with no cancellation, so it inherits that relative O(L u), well inside the
    factor 2 of the threshold. In the solution those errors scale the rows of
    ``b^-1`` and the grid values ``G_m`` by ``1 + delta`` with
    ``delta = O(L u)``, which leaves a residual of ``delta ||b|| ||x||``
    (forward errors up to ``delta cond(b)``); one step of fixed-precision
    iterative refinement against the residual ``g - b @ x`` (Higham 2002,
    ch. 12), solved by the same closed form, squares ``delta``.
    ``b @ x`` comes from the split ``l = a*B + r`` of
    :func:`~qeep.filterbank._block` of ``l_dim``: ``b[aB + r, j] =
    exp(-i phase_j aB) exp(-i phase_j r)``, so it is one product of an
    ``A x l_dim`` and an ``l_dim x B`` matrix, and so is the reported residual.

    When the certificate holds, the cutoff would keep every singular value, so
    this is the least-squares solution and the rank is ``l_dim``. Otherwise,
    or when the solution is not finite, ``b`` is built by the same split and
    the cutoff pseudoinverse of ``lstsq`` solves it: duplicate or clustered
    eigenphases make it rank deficient, the minimum-norm solution is returned
    and the deficiency shows up in the reported rank. Eigenvalue ``moduli`` at
    most ``SVD_RCOND`` times the largest get amplitude zero: they are a
    rank-deficient pencil's zeros, whose phase is noise, and their zeroed
    columns always send the system to ``lstsq``.
    """
    phases = np.asarray(eigenphases, dtype=float)
    moduli = np.asarray(moduli, dtype=float)
    if phases.ndim != 1 or phases.size != l_dim or moduli.shape != phases.shape:
        raise ValueError("eigenphases and moduli must be vectors of length l_dim")
    if l_dim > ts.n_len:
        raise ValueError("l_dim cannot exceed the signal length")
    step, count = _block(l_dim)
    hi = np.exp(-1j * np.outer(step * np.arange(count), phases))
    lo = np.exp(-1j * np.outer(np.arange(step), phases))
    target = ts.values[:l_dim]
    zeroed = moduli <= SVD_RCOND * np.max(moduli)
    solution = None if zeroed.any() else _lagrange_solve(phases, target, hi, lo)
    if solution is not None:
        residual = np.linalg.norm(target - _vandermonde_product(hi, lo, solution))
        return AmplitudeFit(amplitudes=solution, residual=float(residual), rank=l_dim)
    b = (hi[:, None, :] * lo).reshape(-1, l_dim)[:l_dim]
    b[:, zeroed] = 0.0
    solution, _, rank, _ = np.linalg.lstsq(b, target, rcond=SVD_RCOND)
    residual = float(np.linalg.norm(b @ solution - target))
    return AmplitudeFit(amplitudes=solution, residual=residual, rank=int(rank))


def _lagrange_solve(
    phases: np.ndarray, g: np.ndarray, hi: np.ndarray, lo: np.ndarray
) -> np.ndarray | None:
    """The solution of ``b @ x = g`` for the unit-circle Vandermonde matrix
    ``b[l, j] = exp(-i * phases_j * l)``, with one refinement step against the
    split tables ``hi`` and ``lo`` of :func:`_vandermonde_product`, when the
    closed form of :func:`solve_amplitudes` certifies
    ``||b||_F ||b^-1||_F < 1 / (2 SVD_RCOND)``; ``None`` when it does not or the
    solution is not finite."""
    n = phases.size
    half = 0.5 * phases
    nodes = np.array([np.cos(half), np.sin(half)])
    odd = 2 * np.arange(n) + 1
    grid = np.pi / (2 * n) * odd
    grid_rows = 2.0 * np.column_stack([np.sin(grid), np.cos(grid)])
    with np.errstate(all="ignore"):
        log_p, sign_p = _log_products(lambda i: grid_rows[i : i + _ROW_BLOCK] @ nodes, n)
        log_t, sign_t = _log_products(lambda i: _node_factors(half, nodes, i), n)
        top = np.max(log_p)
        weights = sign_p * np.exp(log_p - top)
        scales = sign_t * np.exp(top - log_t)
        # exp(i (L - 1) alpha_m / 2), its exponent reduced mod 4L in integers.
        turn = np.exp(0.5j * np.pi / n * (odd * (n - 1) % (4 * n))) * weights
        factor = np.exp(0.5j * (n - 1) * phases) * scales / n
        tables = _grid_tables(n)
        sums, squares = _cauchy_sums(grid_rows, nodes, turn * _grid_transform(g, *tables), weights)
        if not np.sqrt(n * np.sum(scales**2 * squares)) < 0.5 / SVD_RCOND:
            return None
        x = factor * sums
        rhs = turn * _grid_transform(g - _vandermonde_product(hi, lo, x), *tables)
        x += factor * _cauchy_sums(grid_rows, nodes, rhs)[0]
    return x if np.all(np.isfinite(x)) else None


def _log_products(factors, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``log |prod_k d[i, k]|`` and the sign of that product for each of the
    ``n`` rows of ``d``, whose rows ``i .. i + _ROW_BLOCK`` are ``factors(i)``.
    A zero factor gives ``-inf``."""
    logs, signs = np.empty(n), np.empty(n)
    for i in range(0, n, _ROW_BLOCK):
        d = factors(i)
        logs[i : i + d.shape[0]] = np.log(np.abs(d)).sum(axis=1)
        signs[i : i + d.shape[0]] = 1 - 2 * (np.count_nonzero(d < 0, axis=1) % 2)
    return logs, signs


def _node_factors(half: np.ndarray, nodes: np.ndarray, i: int) -> np.ndarray:
    """Rows ``j = i .. i + _ROW_BLOCK`` of ``d[j, k] = 2 sin(half_k - half_j)``
    with the diagonal set to one, from the :func:`_lagrange_solve` node table
    ``nodes = [cos(half); sin(half)]`` by angle addition.

    Angle addition leaves an absolute error of a few ``u``, so a factor below
    ``2^-10`` would carry a relative error above ``2^12 u``; those are taken as
    the sine of the difference instead, which is exact for close half-phases
    (Sterbenz). A close pair of eigenphases then still gets its ``T_j`` to a
    relative O(L u), which the refinement step needs: an error ``delta`` in
    ``T_j`` leaves a residual ``delta^2 ||b|| ||x||`` after it.
    """
    j = np.arange(i, min(i + _ROW_BLOCK, half.size))
    d = 2.0 * np.column_stack([-nodes[1, j], nodes[0, j]]) @ nodes
    near = np.nonzero(np.abs(d) < 2.0**-10)
    d[near] = 2.0 * np.sin(half[near[1]] - half[j[near[0]]])
    d[np.arange(j.size), j] = 1.0
    return d


def _cauchy_sums(rows: np.ndarray, nodes: np.ndarray, coef: np.ndarray, weights=None) -> tuple:
    """``sum_m coef_m / d[m, j]`` for every column ``j`` of ``d = rows @ nodes``,
    and with ``weights`` also ``sum_m weights_m^2 / d[m, j]^2``, taking
    ``_ROW_BLOCK`` rows of ``d`` at a time."""
    parts = np.array([coef.real, coef.imag])
    sums, squares = np.zeros((2, nodes.shape[1])), np.zeros(nodes.shape[1])
    for i in range(0, rows.shape[0], _ROW_BLOCK):
        inverse = 1.0 / (rows[i : i + _ROW_BLOCK] @ nodes)
        sums += parts[:, i : i + _ROW_BLOCK] @ inverse
        if weights is not None:
            squares += weights[i : i + _ROW_BLOCK] ** 2 @ (inverse * inverse)
    return sums[0] + 1j * sums[1], squares


def _grid_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The exp tables ``zeta_m^-r`` (``r < B``) and ``zeta_m^-(aB)``
    (``a < A``) of :func:`_grid_transform` on ``zeta_m = exp(i pi (2m + 1) / n)``,
    with ``k = a*B + r`` split by :func:`~qeep.filterbank._block` of ``n``. The
    exponent ``(2m + 1) k`` is reduced mod ``2n`` in integers, so each entry is
    one rounded ``exp``."""
    step, count = _block(n)
    odd = 2 * np.arange(n)[:, None] + 1
    lo = np.exp(-1j * np.pi / n * (odd * np.arange(step) % (2 * n)))
    hi = np.exp(-1j * np.pi / n * (odd * (step * np.arange(count)) % (2 * n)))
    return lo, hi


def _grid_transform(g: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``G_m = sum_k g_k zeta_m^-k`` for the :func:`_grid_tables` ``(lo, hi)``:
    one product of ``lo`` with ``g`` laid out as ``B x A``, then a row-wise dot
    with ``hi``."""
    step, count = lo.shape[1], hi.shape[1]
    padded = np.zeros(step * count, dtype=complex)
    padded[: g.size] = g
    return np.einsum("ma,ma->m", lo @ padded.reshape(count, step).T, hi)


def _vandermonde_product(hi: np.ndarray, lo: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``b @ x`` for ``b[aB + r, j] = hi[a, j] * lo[r, j]``, cut to ``x.size``
    rows: one product of the ``A x L`` table ``hi`` with the ``L x B`` matrix
    ``(lo * x)^T``."""
    return (hi @ (lo * x).T).reshape(-1)[: x.size]


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

"""Matrix-pencil baseline: Hankel pencil solve, eigenphases, amplitude fit.

The row windows ``H0 = G[:-1]`` and ``H1 = G[1:]`` of the signal's Hankel
matrix ``G`` (:func:`build_hankel`) form the pencil (Hua & Sarkar 1990, IEEE
Trans. ASSP 38:814), and the eigenvalues ``mu = exp(-i * phase)`` of
``K = H1 @ pinv(H0)`` carry the estimates. :func:`solve_pencil` finds them
without forming ``K``, from the real triangle of :func:`_real_factor`: a
certified pencil by the roots (:func:`_companion_roots`) of the polynomial with
coefficients :func:`_prediction_row`, every other pencil by an SVD and a small
eigensolve. The amplitudes are a Vandermonde least-squares fit against the
first L signal entries, in closed form when certified (:func:`solve_amplitudes`).

On an exact signal this recovers the spectrum to machine precision. Under
noise the method has no error guarantee and may place amplitude on phases
outside ``[-1/2, 1/2]``; every eigenphase is kept so that this is observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _records
from .filterbank import _block
from .signal import TimeSeries
from .spectrum import _moment

# Relative singular-value cutoff for all pseudoinverse solves. The noiseless
# Hankel matrix has rank D << L, so a cutoff is mandatory. A pencil whose real
# R factor has a condition bound (`_certified_inverse`) below
# 1 / (2 * SVD_RCOND), and an amplitude system with such a bound, keep every
# singular value above it and take no SVD.
SVD_RCOND = 1e-12

# Rows per column of a blocked-QR row block, so that a block fits in L2 cache.
_QR_BLOCK_ROWS_PER_COLUMN = 8

# Widest triangle `_upper_inverse` inverts unsplit, the fastest size measured.
# Its input is upper triangular, as `_real_factor` returns it.
_TRIANGULAR_BLOCK = 64

# Aberth sweeps before the SVD path takes over. Paper-default fig5 pencils of
# seeds 1-100 stop by 22 (seed 89), and trials pencils of seeds 1-25 by 17.
_ABERTH_MAX_SWEEPS = 50
# Points per Aberth block and rows per amplitude-fit block: bounds temporaries.
_ROW_BLOCK = 128

# Bytes a pencil's `_pencil_entries` may take: 1 GiB, 18 times paper-default fig5's.
_MAX_PENCIL_BYTES = 2**30


@dataclass(frozen=True)
class MpEstimate:
    """Eigenphase and amplitude estimates from one pencil solve.

    ``eigenphases`` lie in ``(-pi, pi]`` sorted ascending, with ``amplitudes``
    and ``moduli`` (the magnitudes ``|mu|`` of the pencil eigenvalues, used to
    flag spurious estimates) aligned index-by-index. :func:`mp_estimate` keeps
    one entry per pencil eigenvalue, so ``l_dim``, the entry count, is L.
    """

    eigenphases: np.ndarray
    amplitudes: np.ndarray
    moduli: np.ndarray
    residual: float

    def __post_init__(self):
        size = _records.frozen(self, "eigenphases", self.eigenphases, float).size
        _records.frozen(self, "amplitudes", self.amplitudes, complex, size)
        _records.frozen(self, "moduli", self.moduli, float, size)

    @property
    def l_dim(self) -> int:
        return self.eigenphases.size

    def to_dict(self) -> dict:
        return {
            "eigenphases": self.eigenphases.tolist(),
            "amplitudes_re": self.amplitudes.real.tolist(),
            "amplitudes_im": self.amplitudes.imag.tolist(),
            "moduli": self.moduli.tolist(),
            "l_dim": self.l_dim,
            "residual": self.residual,
        }


class AmplitudeFit(NamedTuple):
    amplitudes: np.ndarray
    residual: float
    rank: int


def _pencil_entries(n_len: int, l_dim: int) -> float:
    """Complex entries, 16 bytes each, charged to a pencil of ``n_len`` entries
    and ``n = l_dim + 1`` rows: the Hankel buffer, ``2 n_len``; ten ``n x n``
    arrays, where a square pencil peaks (the SVD fallback's, or the triangle
    and its inverse when certified); and ``n`` times the rows that
    :func:`_real_factor` holds of the Hankel's ``k`` top rows, where a wide
    pencil peaks. Those are ``3k`` (the real stack, the QR's copy and that
    copy's Fortran-order copy) or, with blocks of ``8 n`` rows, ``5k/4 + 24 n``
    (a copy of each block and its two ``n``-row R factors, and three copies of
    the fewer than ``8 n`` rows left over). Both bound the rows, so the
    smaller is charged."""
    n, k = l_dim + 1, (2 * n_len - l_dim - 1) // 2
    return 2 * n_len + n * (10 * n + min(3 * k, 5 * k / 4 + 24 * n))


def _pencil_dimension(n_len: int, l_dim: int | None) -> int:
    """The pencil dimension of a signal of ``n_len`` entries: ``l_dim``, an
    integer in ``[1, n_len - 1]`` whose :func:`_pencil_entries` fit in
    ``_MAX_PENCIL_BYTES``, or ``n_len - 1`` for ``None``. One entry has no pencil."""
    if n_len < 2:
        raise ValueError(f"the matrix pencil needs a signal of at least 2 entries, got {n_len}")
    l_dim = _records.number(n_len - 1 if l_dim is None else l_dim, "l_dim", Integral, 1, n_len - 1)
    need = 16 * _pencil_entries(n_len, l_dim)
    if need > _MAX_PENCIL_BYTES:
        raise ValueError(
            f"l_dim must keep the pencil within {_MAX_PENCIL_BYTES / 2**30:g} GiB, got {l_dim}"
            f" for {n_len} entries, which needs {need / 2**30:.4g} GiB"
        )
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


def _real_factor(g: np.ndarray) -> np.ndarray:
    """The real triangle ``R_T`` with ``Q R_T^T R_T Q^H = g g^H`` for a Hankel
    ``g`` of shape ``(L+1) x m`` and the Pi-real unitary ``Q`` of
    :func:`_to_pairs` (Haardt & Nossek 1995, IEEE Trans. SP 43:1232).
    ``g == conj(g[::-1, ::-1])``, so rows ``c`` and ``m - 1 - c`` of
    ``Y = g^H Q`` are conjugates, and ``Y^H Y`` is the Gram matrix of the real
    stack of ``sqrt(2) Re`` and ``sqrt(2) Im`` of ``Y``'s top ``m // 2`` rows
    and, for odd ``m``, its real middle row: one real QR, a quarter of the
    flops of a complex QR of ``g^H``. When those rows hold ``p >= 1`` blocks of
    ``_QR_BLOCK_ROWS_PER_COLUMN * (L+1)`` rows, one batched complex QR factors
    the blocks first (Demmel, Grigori, Hoemmen & Langou 2012, SIAM J. Sci.
    Comput. 34:A206); their R factors have the same Gram matrix and are paired."""
    n, m = g.shape
    k, rows = m // 2, _QR_BLOCK_ROWS_PER_COLUMN * n
    top = g[:, :k].T
    p = k // rows
    if p:
        blocks = np.linalg.qr(top[: p * rows].reshape(p, rows, n), mode="r")
        top = np.concatenate([blocks.reshape(p * n, n), top[p * rows :]])
        del blocks
    pairs = math.sqrt(2.0) * _to_pairs(top)
    del top
    h = pairs.shape[0]
    stack = np.concatenate([pairs.real, _to_pairs(g[:, k : m - k].T).real, pairs.imag])
    del pairs  # Released, and the stack negated in place, as `_pencil_entries` charges.
    np.negative(stack[-h:], out=stack[-h:])
    return np.linalg.qr(stack, mode="r")


def _to_pairs(y: np.ndarray) -> np.ndarray:
    """``Q^H y`` along the last axis (length ``n``) of ``y``: entries
    ``j < n // 2`` and ``n - 1 - j`` give ``(y_j + y_{n-1-j}) / sqrt(2)`` at
    ``j`` and ``i (y_{n-1-j} - y_j) / sqrt(2)`` at ``n - n // 2 + j``, and an
    odd ``n`` keeps its middle entry."""
    n = y.shape[-1]
    h = n // 2
    lo, hi = y[..., :h], y[..., : n - h - 1 : -1]
    pairs = np.concatenate([lo + hi, math.sqrt(2.0) * y[..., h : n - h], 1j * (hi - lo)], axis=-1)
    return pairs / math.sqrt(2.0)


def _from_pairs(t: np.ndarray) -> np.ndarray:
    """``Q t`` along the last axis of a real ``t``, inverting :func:`_to_pairs`."""
    n = t.shape[-1]
    h = n // 2
    y = t[..., :h] / math.sqrt(2.0) + 1j * (t[..., n - h :] / math.sqrt(2.0))
    return np.concatenate([y, t[..., h : n - h], np.conj(y[..., ::-1])], axis=-1)


def _certified_inverse(t: np.ndarray) -> np.ndarray | None:
    """The inverse of the upper-triangular ``t``, as :func:`_real_factor`
    returns it, when ``||t||_F ||t^-1||_F < 1 / (2 SVD_RCOND)``; ``None`` when
    ``t`` is singular, not finite, or not certified. The product bounds
    ``cond(t) = s_1 / s_n``, so a certified ``t`` has ``s_n > 2 SVD_RCOND s_1``
    and an SVD's cutoff keeps every singular value. The blocked inverse ``X``,
    like the unblocked ones, has ``||X t - I|| <= c n u ||X|| ||t||`` (Higham
    2002, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 14;
    ``u`` the unit roundoff): off by a relative ``O(n u cond(t))``, at most 3%
    at n = 566 on a certified ``t``, which the factor 2 absorbs. Neither norm
    copies its array, so the inverse sets the peak, ``1.5 n^2`` doubles."""
    with np.errstate(all="ignore"):
        try:
            inverse = _upper_inverse(t)
        except np.linalg.LinAlgError:
            return None
        bound = np.linalg.norm(t) * np.linalg.norm(inverse)
    return inverse if _certified(bound) else None


def _certified(bound: float) -> bool:
    """Whether a condition bound certifies a system: ``bound < 1 / (2 SVD_RCOND)``."""
    return bound < 0.5 / SVD_RCOND


def _upper_inverse(t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The inverse of the upper-triangular ``t``, as :func:`_real_factor`
    returns it, written into ``out`` (a zeroed ``n x n`` array when ``None``)
    and returned. A triangle of at most ``_TRIANGULAR_BLOCK`` columns takes
    one ``np.linalg.solve`` against ``I``, which pivots on the diagonal, so
    this is back substitution. A larger one splits as ``[[A, B], [0, D]]``,
    whose inverse ``[[A^-1, -(A^-1 B) D^-1], [0, D^-1]]`` fills ``out``
    quadrant by quadrant with two matrix products more, so it holds ``out``
    and the top level's two products, ``n^2 / 2`` entries, and no quadrant
    copy."""
    n = t.shape[0]
    out = np.zeros((n, n)) if out is None else out
    if n <= _TRIANGULAR_BLOCK:
        out[:] = np.linalg.solve(t, np.eye(n))
        return out
    h = n // 2
    a_inv, d_inv = _upper_inverse(t[:h, :h], out[:h, :h]), _upper_inverse(t[h:, h:], out[h:, h:])
    out[:h, h:] = -(a_inv @ t[:h, h:]) @ d_inv
    return out


def _prediction_row(g: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``a = G[L] @ pinv(H0)`` for the Hankel ``g`` and ``Z = R_T^-1`` by the
    corrected seminormal equations: the last column ``b`` of ``(G G^H)^-1 =
    Q Z Z^T Q^H`` gives ``x = b / b[L] = [-conj(a), 1]``, and the residual
    ``r = G G^H x`` (``G[l, c] = full[l + c]``: two correlations of the signal)
    steps to ``x - e + e[L] x``, ``e = (G G^H)^-1 r``, keeping ``x[L] = 1``.
    That step corrects the ``O(cond(G)^2 u)`` error of the seminormal
    equations (Bjorck 1987, Linear Algebra Appl. 88/89:31)."""

    def inverse_gram(y):
        t = _to_pairs(y)
        w = _from_pairs((z @ (z.T @ np.column_stack([t.real, t.imag]))).T)
        return w[0] + 1j * w[1]

    n, full = z.shape[0], np.append(g[0], g[1:, -1])
    b = inverse_gram(np.eye(1, n, n - 1)[0])
    x = b / b[-1]
    e = inverse_gram(np.correlate(full, np.correlate(full, x, "valid"), "valid"))
    return -np.conj(x[:-1] - e[:-1] + e[-1] * x[:-1])


def solve_pencil(ts: TimeSeries, l_dim: int) -> np.ndarray:
    """The ``l_dim`` eigenvalues of ``K = H1 @ pinv(H0)`` (Frobenius objective)
    for the row windows of ``G = build_hankel(ts, l_dim)``, singular values
    below ``SVD_RCOND`` times the largest (``H0`` holds ``g_0 = 1``, so it is
    never zero) taken as zero, without forming ``K``.

    Deleting a row interlaces singular values, so ``cond(H0) <= cond(G)``,
    which is ``cond(R_T)``. When :func:`_certified_inverse` bounds that below
    ``1 / (2 SVD_RCOND)``, ``H0 @ pinv(H0) = I``, and as row ``l < L - 1`` of
    ``H1`` is row ``l + 1`` of ``H0``, ``K`` is the companion matrix of
    ``z^L - sum_j a_j z^j``, ``a = G[L] @ pinv(H0)``. Otherwise, or if its roots
    miss the sweep cap: ``F = Q R_T^T`` has ``F F^H = G G^H``, so ``G = F V``
    with ``V V^H`` the projection onto ``F``'s row space and
    ``K = F[1:] @ pinv(F[:-1])``. With ``F[:-1] = U S V^H`` cut to its ``r``
    kept singular values, ``K = X U_r^H`` for ``X = F[1:] V_r / S_r``; as
    ``X Y`` and ``Y X`` share their nonzero eigenvalues, ``K``'s are those of
    the r x r core ``U_r^H X`` and ``l_dim - r`` exact zeros."""
    g = build_hankel(ts, l_dim)
    r = _real_factor(g)
    z = _certified_inverse(r)
    mu = None if z is None else _companion_roots(_prediction_row(g, z))
    if mu is not None:
        return mu
    f = _from_pairs(r).T
    del r, z  # Released, and updated in place below, as `_pencil_entries` charges.
    u, s, vh = np.linalg.svd(f[:-1], full_matrices=False)
    rank = np.count_nonzero(s > SVD_RCOND * s[0])
    x = f[1:] @ np.conj(vh[:rank], out=vh[:rank]).T
    del f, vh
    x /= s[:rank]
    core = np.linalg.eigvals(u[:, :rank].conj().T @ x)
    return np.append(core, np.zeros(l_dim - core.size))


def _companion_roots(a: np.ndarray) -> np.ndarray | None:
    """The L roots of ``p(z) = z^L - sum_j a_j z^j``, the characteristic
    polynomial of the companion matrix with last row ``a``, by Aberth-Ehrlich
    iteration (Aberth 1973, Math. Comp. 27:339), O(L^2) per sweep; ``None`` if
    some root has not stopped after ``_ABERTH_MAX_SWEEPS`` sweeps. A root stops
    once ``|p(z)| <= 4 L u sum_k |c_k| |z|^k`` (``c`` the coefficients of
    ``p``, ``u`` the unit roundoff; Bini 1996, Numer. Algorithms 13:179): it is
    then an exact root of a polynomial whose coefficients differ from ``c`` by
    a relative O(L u) each.

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

    With the four-step split ``k = a*B + r`` (Bailey 1990, J. Supercomputing
    4:23), ``q(x) = sum_a x^(aB) sum_r T[r, a] x^r``: one product of the rows
    ``x^r`` (``r < B``) with ``[T | T']``, then a dot with the row ``x^(aB)``
    (``a < A``), and the bound the same way from their moduli and ``M`` in real
    arithmetic. A term of degree ``k`` carries at most ``k + 1`` roundings from
    its power and coefficient, as with a running product of all n powers, and
    ``A + B`` from the two sums, so to first order each result lies within
    ``4 n u`` (``u`` the unit roundoff) of the exact one, relative to
    ``sum_k |coef_k| |x|^k`` (for ``q'``, to ``sum_k k |coef_k| |x|^(k-1)``).
    """
    b, a = mags.shape
    lo = np.vander(x, b, increasing=True)
    hi = np.vander(lo[:, -1] * x, a, increasing=True)
    val, der = ((lo @ table).reshape(-1, 2, a) * hi[:, None, :]).sum(axis=2).T
    return val, der, np.einsum("ij,ij->i", np.abs(lo) @ mags, np.abs(hi))


def solve_amplitudes(eigenphases, ts: TimeSeries, moduli) -> AmplitudeFit:
    """Least-squares amplitudes of ``L <= ts.n_len`` eigenphases against the first L entries.

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
    the FFT of ``g_l exp(-i pi l / L)`` (:func:`_grid_transform`). By Parseval
    ``||b^-1||_F^2 = (1/L) sum_{m,j} |ell_j(zeta_m)|^2``; every entry of ``b``
    has modulus one, so ``||b||_F = L``, and the certificate of
    :func:`_certified_inverse` is ``sqrt(L sum_{m,j} |ell_j(zeta_m)|^2)``. The
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
    ch. 12), solved by the same closed form, squares ``delta``. That residual
    and the reported one take ``b @ x`` from :func:`_vandermonde_product`.

    When the certificate holds, the cutoff would keep every singular value, so
    this is the least-squares solution and the rank is ``L``. Otherwise,
    or when the solution is not finite, ``b`` is built from the same tables and
    the cutoff pseudoinverse of ``lstsq`` solves it: duplicate or clustered
    eigenphases make it rank deficient, the minimum-norm solution is returned
    and the deficiency shows up in the reported rank. Eigenvalue ``moduli`` at
    most ``SVD_RCOND`` times the largest get amplitude zero: they are a
    rank-deficient pencil's zeros, whose phase is noise, and their zeroed
    columns always send the system to ``lstsq``.
    """
    phases = _records.vector(eigenphases, "eigenphases", float)
    moduli = _records.vector(moduli, "moduli", float, phases.size)
    l_dim = _records.number(phases.size, "l_dim", Integral, 1, ts.n_len)
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
    """The solution of ``b @ x = g``, ``b[l, j] = exp(-i * phases_j * l)``, by the
    closed form of :func:`solve_amplitudes` with one refinement step (``hi`` and
    ``lo`` the tables of :func:`_vandermonde_product`); ``None`` unless it
    certifies ``||b||_F ||b^-1||_F < 1 / (2 SVD_RCOND)`` and ``x`` is finite."""
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
        sums, squares = _cauchy_sums(grid_rows, nodes, turn * _grid_transform(g), weights)
        if not _certified(np.sqrt(n * np.sum(scales**2 * squares))):
            return None
        x = factor * sums
        rhs = turn * _grid_transform(g - _vandermonde_product(hi, lo, x))
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


def _grid_transform(g: np.ndarray) -> np.ndarray:
    """``G_m = sum_k g_k zeta_m^-k`` on ``zeta_m = exp(i pi (2m + 1) / n)``,
    ``n = g.size``: the n-point DFT of ``g_k exp(-i pi k / n)``."""
    n = g.size
    return np.fft.fft(g * np.exp(-1j * np.pi / n * np.arange(n)))


def _vandermonde_product(hi: np.ndarray, lo: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``b @ x`` for ``b[aB + r, j] = hi[a, j] * lo[r, j]``, cut to ``x.size``
    rows: one product of the ``A x L`` table ``hi`` with the ``L x B`` matrix
    ``(lo * x)^T``."""
    return (hi @ (lo * x).T).reshape(-1)[: x.size]


def mp_estimate(ts: TimeSeries, l_dim: int | None = None) -> MpEstimate:
    """Full pencil pipeline: one Hankel matrix, the pencil solve on its row
    windows, eigenphases, amplitude fit, for the ``l_dim`` of
    :func:`_pencil_dimension`. All eigenphases are kept."""
    l_dim = _pencil_dimension(ts.n_len, l_dim)
    mu = solve_pencil(ts, l_dim)
    # mu = exp(-i * phase), with the phase mapped into (-pi, pi]; subtracting
    # from +0.0 gives an exact zero eigenvalue the phase +0.0, not -0.0.
    phases = 0.0 - np.angle(mu)
    phases[phases <= -math.pi] += 2.0 * math.pi
    moduli = np.abs(mu)
    fit = solve_amplitudes(phases, ts, moduli)
    order = np.argsort(phases)
    return MpEstimate(phases[order], fit.amplitudes[order], moduli[order], fit.residual)


def mp_moment(est: MpEstimate, s: int) -> float:
    """Moment ``sum_l Re(amp_l) * phase_l**s`` of a pencil estimate."""
    return _moment(est.amplitudes.real, est.eigenphases, s)

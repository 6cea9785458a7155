import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qeep import (
    MpEstimate,
    Spectrum,
    TimeSeries,
    add_noise,
    build_hankel,
    exact_moment,
    fig6_spectrum,
    filter_estimate,
    generate_clean,
    mp_estimate,
    mp_moment,
    random_spectrum,
    solve_amplitudes,
    solve_pencil,
)
from qeep import matrix_pencil
from qeep.cli import NOISE_SEED_OFFSET
from qeep.filterbank import TruncationMode, choose_truncation
from qeep.matrix_pencil import (
    _QR_BLOCK_ROWS_PER_COLUMN,
    SVD_RCOND,
    _certified_solve,
    _coefficient_tables,
    _companion_roots,
    _polynomial_terms,
    _r_factor,
    _upper_solve,
)
from qeep.signal import Provenance


def point_mass(lam: float) -> Spectrum:
    return Spectrum(lambdas=[lam], weights=[1.0])


class TestBuildHankel:
    def test_shape_and_corner_entries(self):
        ts = generate_clean(fig6_spectrum(), 3)
        h = build_hankel(ts, 2)
        assert h.shape == (3, 3)
        # entry (l, c) = g_{l + c - N + 1}; (0, 0) reaches g_{-2}.
        assert h[0, 0] == np.conj(ts.values[2])
        assert h[1, 2] == ts.values[1]
        assert h[2, 2] == ts.values[2]

    def test_hand_built_reference(self):
        ts = generate_clean(fig6_spectrum(), 4)
        g = ts.values
        full = {k: g[k] for k in range(4)}
        full.update({-k: np.conj(g[k]) for k in range(1, 4)})
        h = build_hankel(ts, 2)
        assert h.shape == (3, 5)
        for l in range(3):
            for c in range(5):
                assert h[l, c] == full[l + c - 4 + 1]

    def test_shift_advances_every_index_by_one(self):
        # The pencil pair is the row windows H0 = G[:-1], H1 = G[1:]; H1 is
        # H0 with every index advanced by one, i.e. H0 one column left.
        ts = generate_clean(fig6_spectrum(), 5)
        g = build_hankel(ts, 3)
        h0, h1 = g[:-1], g[1:]
        assert np.array_equal(h1[:, :-1], h0[:, 1:])

    def test_constant_signal_gives_all_ones(self):
        ts = generate_clean(point_mass(0.0), 4)
        assert np.array_equal(build_hankel(ts, 2), np.ones((3, 5), dtype=complex))

    def test_invalid_arguments(self):
        ts = generate_clean(fig6_spectrum(), 4)
        with pytest.raises(ValueError):
            build_hankel(ts, 0)
        with pytest.raises(ValueError):
            build_hankel(ts, 4)

    @settings(max_examples=60, deadline=None)
    @example(shape=(2, 1), seed=0)
    @example(shape=(40, 1), seed=1)
    @example(shape=(40, 39), seed=2)
    @given(
        shape=st.integers(2, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_entry_rule_property(self, shape, seed):
        n, l_dim = shape
        rng = np.random.default_rng(seed)
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        g[0] = 1.0
        h = build_hankel(TimeSeries(values=g, provenance=Provenance.clean()), l_dim)
        assert h.shape == (l_dim + 1, 2 * n - l_dim - 1)
        index = np.arange(l_dim + 1)[:, None] + np.arange(2 * n - l_dim - 1)[None, :] - n + 1
        expected = np.where(index >= 0, g[np.abs(index)], np.conj(g[np.abs(index)]))
        assert np.array_equal(h, expected)
        # g_{-k} = conj(g_k) mirrors G bit for bit, which the blocked R factor
        # relies on: G == conj(G[::-1, ::-1]).
        assert np.array_equal(h, np.conj(h[::-1, ::-1]))


def unit_phases(mu):
    """Sorted eigenphases of the eigenvalues ``mu`` within 0.5 of the unit circle."""
    return np.sort(-np.angle(mu[np.abs(np.abs(mu) - 1.0) <= 0.5]))


def pinv_oracle(ts, l_dim):
    """``K = H1 @ pinv(H0)`` formed directly from the Hankel row windows."""
    g = build_hankel(ts, l_dim)
    return g[1:] @ np.linalg.pinv(g[:-1], rcond=SVD_RCOND)


class TestSolvePencil:
    def test_single_eigenvalue_rank_one_shift(self):
        lam = 0.37
        ts = generate_clean(point_mass(lam), 8)
        mu = solve_pencil(ts, 3)
        # Rank one: a 1 x 1 core and two exact zeros.
        assert np.count_nonzero(mu == 0) == 2
        top = mu[np.argmax(np.abs(mu))]
        assert top == pytest.approx(np.exp(-1j * lam), abs=1e-10)

    def test_identity_shift_has_unit_eigenvalue(self):
        # A constant signal has equal rows, so H1 = H0 and K = H0 @ pinv(H0)
        # projects onto the rank-1 signal subspace: one unit eigenvalue plus
        # zeros.
        ts = generate_clean(point_mass(0.0), 6)
        g = build_hankel(ts, 2)
        assert np.array_equal(g[:-1], g[1:])
        mu = np.sort(np.abs(solve_pencil(ts, 2)))
        assert mu[-1] == pytest.approx(1.0, abs=1e-10)
        assert np.all(mu[:-1] == 0)

    def test_rank_structure_for_five_lines(self):
        ts = generate_clean(fig6_spectrum(), 20)
        mu = np.sort(np.abs(solve_pencil(ts, 10)))
        assert np.all(np.abs(mu[-5:] - 1.0) <= 1e-6)
        assert np.all(mu[:-5] == 0)

    # Wide pencils (L << N), where the QR reduction avoids the SVD of the
    # wide H0: G^H of (4469, 64) is factored in 17 row blocks, of (2000, 180)
    # in two blocks and a leftover of 923 rows. Square ones (L = N - 1, the
    # CLI default) and small ones take one direct QR.
    @pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy"])
    @pytest.mark.parametrize(
        "n_len, l_dim", [(4469, 64), (2000, 180), (200, 199), (64, 63), (20, 10)]
    )
    def test_matches_pinv_oracle(self, n_len, l_dim, noisy):
        from qeep import random_spectrum

        ts = generate_clean(random_spectrum(5, 4), n_len)
        if noisy:
            ts = add_noise(ts, 0.005, 11)
        expected = np.linalg.eigvals(pinv_oracle(ts, l_dim))
        mu = solve_pencil(ts, l_dim)
        # R[:-1, :-1] of G^H = QR keeps the singular values of H0, so the
        # cutoff keeps as many of them, and the solve returns L - rank zeros.
        g = build_hankel(ts, l_dim)
        r = _r_factor(np.conj(g).T)
        s_h0 = np.linalg.svd(g[:-1], compute_uv=False)
        s_r = np.linalg.svd(r[:-1, :-1], compute_uv=False)
        rank = np.sum(s_h0 > SVD_RCOND * s_h0[0])
        assert np.sum(s_r > SVD_RCOND * s_r[0]) == rank
        assert mu.size == l_dim
        assert np.count_nonzero(mu == 0) == l_dim - rank
        if noisy:
            # Noise gives H0 full rank, so K is the companion matrix of its
            # last row and its eigenvalues are that polynomial's roots.
            assert rank == l_dim
            assert_matched(mu, expected, 1e-9)
        else:
            assert rank == 5
            ref, got = unit_phases(expected), unit_phases(mu)
            assert ref.size == got.size == 5
            assert np.max(np.abs(got - ref)) <= 1e-12


def pencil_transpose(n_len, l_dim, noisy):
    """G^T of a five-line pencil: rank 5 when clean."""
    from qeep import random_spectrum

    ts = generate_clean(random_spectrum(5, 4), n_len)
    if noisy:
        ts = add_noise(ts, 0.005, 11)
    return build_hankel(ts, l_dim).T


class TestRFactor:
    # Fewer than two row blocks, so the stack is the matrix itself: square
    # pencils (the paper's N = 566, L = 565 among them), small wide ones down
    # to the 2 x 2 pencil, and (2000, 250) with one block.
    @pytest.mark.parametrize(
        "n_len, l_dim", [(566, 565), (64, 63), (2000, 250), (66, 65), (64, 20), (16, 8), (2, 1)]
    )
    def test_unblockable_matrix_takes_one_direct_qr(self, n_len, l_dim):
        a = pencil_transpose(n_len, l_dim, noisy=True)
        assert np.array_equal(_r_factor(a), np.linalg.qr(a, mode="r"))

    # G^T of (4469, 64) has 17 row blocks, of (2000, 180) two and of
    # (20000, 64) 76, each with leftover rows.
    @pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy"])
    @pytest.mark.parametrize("n_len, l_dim", [(4469, 64), (2000, 180), (20000, 64)])
    def test_blocked_r_matches_direct_qr(self, n_len, l_dim, noisy, monkeypatch):
        a = pencil_transpose(n_len, l_dim, noisy)
        m, n = a.shape
        rows = _QR_BLOCK_ROWS_PER_COLUMN * n
        p = m // rows // 2
        assert p and m % rows
        qr, shapes = np.linalg.qr, []
        monkeypatch.setattr(
            np.linalg, "qr", lambda x, mode: shapes.append(x.shape) or qr(x, mode=mode)
        )
        r = _r_factor(a)
        monkeypatch.undo()
        # One batched QR of the top p blocks, then one of their R factors,
        # their mirrors and the rows between the top and the bottom p blocks.
        assert shapes == [(p, rows, n), (2 * p * n + m - 2 * p * rows, n)]
        assert r.shape == (n, n)
        assert np.array_equal(r, np.triu(r))
        # solve_pencil reads R, conjugated, as an R factor of G^H: R^H R is
        # G G^H. At full rank that fixes R up to a unitary diagonal, so
        # |diag R| agrees; past a clean pencil's rank 5 both are rounding noise.
        g, rc = a.T, r.conj()
        gram = g @ g.conj().T
        assert np.linalg.norm(rc.conj().T @ rc - gram) <= 1e-12 * np.linalg.norm(gram)
        direct = np.abs(np.diag(np.linalg.qr(a, mode="r")))
        assert np.max(np.abs(np.abs(np.diag(r)) - direct)) <= 1e-12 * direct.max()


class TestPencilEigenphases:
    def test_diagonal_case(self):
        # One line: at L = 1 the root of a degree-one polynomial, at L = 3 the
        # eigensolve of a 1 x 1 core and two exact zeros, phase 0.
        ts = TimeSeries(values=np.exp(-1j * 0.3 * np.arange(4)), provenance=Provenance.clean())
        est = mp_estimate(ts, 1)
        assert est.eigenphases == pytest.approx([0.3], abs=1e-14)
        assert est.moduli == pytest.approx([1.0], abs=1e-14)
        est = mp_estimate(ts, 3)
        assert est.eigenphases == pytest.approx([0.0, 0.0, 0.3], abs=1e-14)
        assert est.moduli == pytest.approx([0.0, 0.0, 1.0], abs=1e-14)

    def test_sorted_and_in_half_open_interval(self):
        # g_k = (-1)^k: its one eigenvalue is -1 = exp(-i*pi), as a root at
        # L = 1 and from the 1 x 1 core beside two zeros at L = 3. The phase
        # lands on pi, not -pi.
        ts = TimeSeries(values=(-1.0) ** np.arange(4), provenance=Provenance.clean())
        for l_dim in (1, 3):
            est = mp_estimate(ts, l_dim)
            assert np.all(np.diff(est.eigenphases) >= 0)
            assert np.all((est.eigenphases > -math.pi) & (est.eigenphases <= math.pi))
            assert est.eigenphases[-1] == pytest.approx(math.pi, abs=1e-12)


def assert_matched(got, expected, tol):
    """Each of ``got`` lies within ``tol`` of a distinct one of ``expected``,
    relative to its modulus above one."""
    dist = np.abs(got[:, None] - expected[None, :]) / np.maximum(1.0, np.abs(expected))
    nearest = np.argmin(dist, axis=1)
    assert got.size == expected.size == np.unique(nearest).size
    assert np.max(dist[np.arange(got.size), nearest]) <= tol


def chosen_roots(l_dim, zero):
    """``l_dim`` roots at evenly spaced angles on the circles of radius 0.9, 1
    and 1.1 in turn, the first replaced by an exact zero if ``zero``, in Leja
    order: each next root is the one farthest, in product of distances, from
    those before it. ``np.poly`` multiplies the factors in the order given,
    and this order keeps the partial products' coefficients small, so the
    coefficients of L = 565 roots come out accurate (Reichel 1990, BIT 30:332)."""
    angles = 2 * np.pi * (np.arange(l_dim) + 0.5) / l_dim
    roots = np.resize([0.9, 1.0, 1.1], l_dim) * np.exp(1j * angles)
    if zero:
        roots[0] = 0.0
    order = [int(np.argmax(np.abs(roots)))]
    log_dist = np.zeros(l_dim)
    for _ in range(l_dim - 1):
        log_dist += np.log(np.maximum(np.abs(roots - roots[order[-1]]), 1e-300))
        log_dist[order] = -np.inf
        order.append(int(np.argmax(log_dist)))
    return roots[order]


def prediction_row(roots):
    """The last row ``a`` of the companion matrix whose polynomial
    ``z^L - sum_j a_j z^j`` has these roots."""
    return -np.poly(roots)[:0:-1]


@pytest.fixture
def linalg_calls(monkeypatch):
    """Shapes of the matrices passed to ``np.linalg.svd``, ``lstsq``,
    ``eigvals``, ``solve`` and ``qr`` during the test, by function name."""
    calls = {}
    for name in ("svd", "lstsq", "eigvals", "solve", "qr"):
        calls[name] = []

        def spy(m, *args, _f=getattr(np.linalg, name), _shapes=calls[name], **kw):
            _shapes.append(m.shape)
            return _f(m, *args, **kw)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls


def dense_calls(calls):
    """The ``svd``, ``lstsq`` and ``eigvals`` entries of ``linalg_calls``."""
    return {name: calls[name] for name in ("svd", "lstsq", "eigvals")}


class TestCompanionRoots:
    # Roots inside, on and outside the unit circle, and an exact zero.
    @pytest.mark.parametrize(
        "l_dim, zero", [(1, False), (1, True), (64, True), (565, True)],
        ids=["L1", "L1-zero", "L64", "L565"],
    )
    def test_recovers_chosen_roots(self, l_dim, zero):
        roots = chosen_roots(l_dim, zero)
        got = _companion_roots(prediction_row(roots))
        # Rounding in the coefficients moves these roots by up to 1e-13, in
        # the companion matrix's eigenvalues too (2e-13 at L = 565).
        assert_matched(got, roots, 1e-12)
        if zero:
            assert np.count_nonzero(got == 0) == 1

    def test_missed_sweep_cap_falls_back_to_the_eigensolve(self, monkeypatch, linalg_calls):
        ts = add_noise(generate_clean(fig6_spectrum(), 64), 0.005, 3)
        monkeypatch.setattr(matrix_pencil, "_ABERTH_MAX_SWEEPS", 1)
        roots_calls = []
        spy = lambda a: roots_calls.append(a.size) or _companion_roots(a)
        monkeypatch.setattr(matrix_pencil, "_companion_roots", spy)
        mu = solve_pencil(ts, 63)
        # The certified row's roots miss the cap once; the SVD path then goes
        # straight to the eigensolve of the L x L core, without a second try.
        assert roots_calls == [63]
        assert linalg_calls["svd"] == [(63, 63)]
        assert linalg_calls["eigvals"] == [(63, 63)]
        k = pinv_oracle(ts, 63)
        assert _companion_roots(k[-1]) is None
        assert_matched(mu, np.linalg.eigvals(k), 1e-9)

    def test_uncertified_pencil_takes_the_core_eigensolve(self, monkeypatch, linalg_calls):
        ts = add_noise(generate_clean(fig6_spectrum(), 64), 0.005, 3)
        monkeypatch.setattr(matrix_pencil, "_certified_solve", lambda a, b: None)
        roots_calls = []
        spy = lambda a: roots_calls.append(a.size) or _companion_roots(a)
        monkeypatch.setattr(matrix_pencil, "_companion_roots", spy)
        mu = solve_pencil(ts, 63)
        # The SVD keeps all 63 singular values, and the eigenvalues come from
        # the 63 x 63 core, not from a second attempt at the roots.
        assert roots_calls == []
        assert linalg_calls["svd"] == [(63, 63)]
        assert linalg_calls["eigvals"] == [(63, 63)]
        assert_matched(mu, np.linalg.eigvals(pinv_oracle(ts, 63)), 1e-9)

    def test_only_a_rank_deficient_pencil_takes_the_eigensolve(self, linalg_calls):
        clean = generate_clean(fig6_spectrum(), 20)
        mp_estimate(add_noise(clean, 0.005, 3), 10)
        assert dense_calls(linalg_calls) == {"svd": [], "lstsq": [], "eigvals": []}
        # Rank five: the SVD of the L x L block, the 5 x 5 core, five exact
        # zeros, and the amplitude fit's zeroed columns go to lstsq.
        est = mp_estimate(clean, 10)
        assert dense_calls(linalg_calls) == {
            "svd": [(10, 10)], "lstsq": [(10, 10)], "eigvals": [(5, 5)]
        }
        assert np.count_nonzero(est.moduli == 0) == 5

    def test_certified_paper_shape_pencil_takes_no_svd(self, linalg_calls):
        # The paper's N = 566, L = 565 under noise: both square systems are
        # certified full rank, so neither the pencil nor the amplitude fit
        # runs an SVD.
        ts = add_noise(generate_clean(fig6_spectrum(), 566), 0.005, 1)
        est = mp_estimate(ts, 565)
        assert dense_calls(linalg_calls) == {"svd": [], "lstsq": [], "eigvals": []}
        assert np.all(est.moduli > 0)
        # Both systems are triangular: the R factor's (an empty batch of top
        # blocks, then the 566 x 566 G^T) and the one QR of the amplitude
        # system beside its right-hand side. Only the diagonal blocks of the
        # triangular inverse meet an LU solve.
        assert linalg_calls["qr"] == [(0, 4528, 566), (566, 566), (565, 566)]
        widths = [shape[1] for shape in linalg_calls["solve"]]
        assert widths and max(widths) <= matrix_pencil._TRIANGULAR_BLOCK

    # The benchmark's pencils: `reproduce fig5` at the paper's defaults
    # (eps = eps' = 0.005, N = 566, L = 565) and the `trials` runs (eps = 0.05,
    # STRICT N = 4469, eps' = 1e-5, L = 64), each seed's signal built as the
    # CLI builds it.
    @pytest.mark.parametrize(
        "eps, eps_prime, l_dim, seeds",
        [(0.005, 0.005, 565, range(1, 21)), (0.05, 1e-5, 64, range(1, 26))],
        ids=["fig5", "trials"],
    )
    def test_benchmark_pencils_stop_within_the_documented_sweeps(
        self, eps, eps_prime, l_dim, seeds, monkeypatch, linalg_calls
    ):
        # A root call that needs more sweeps than the cap returns None and
        # sends its pencil to the SVD path, so no SVD, lstsq or eigensolve
        # under the 18 sweeps the `_ABERTH_MAX_SWEEPS` comment quotes means
        # every root call stopped within them.
        assert matrix_pencil._ABERTH_MAX_SWEEPS > 18
        monkeypatch.setattr(matrix_pencil, "_ABERTH_MAX_SWEEPS", 18)
        n_len = l_dim + 1 if l_dim == 565 else choose_truncation(eps, TruncationMode.STRICT)
        for seed in seeds:
            clean = generate_clean(random_spectrum(5, seed), n_len)
            mp_estimate(add_noise(clean, eps_prime, seed + NOISE_SEED_OFFSET), l_dim)
        assert dense_calls(linalg_calls) == {"svd": [], "lstsq": [], "eigvals": []}

    def test_no_floating_point_exception(self):
        # (z - 1e6)(z^63 - 1): the far root's 64th power, 1e384, overflows
        # unless |z| > 1 goes through the reversed polynomial in 1/z.
        far = np.zeros(64)
        far[[0, 1, 63]] = -1e6, 1.0, 1e6
        far_roots = np.append(1e6, np.exp(2j * np.pi * np.arange(63) / 63))
        # z^64 = 1e300 and z^64 = 1e-300: constant terms near the ends of the
        # double range, roots of modulus 5e4 and 2e-5.
        unit = np.exp(2j * np.pi * np.arange(64) / 64)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert_matched(_companion_roots(far), far_roots, 1e-14)
            for scale in (1e300, 1e-300):
                a = np.zeros(64)
                a[0] = scale
                assert_matched(_companion_roots(a) / scale ** (1 / 64), unit, 1e-14)
            roots = chosen_roots(64, True)
            assert_matched(_companion_roots(prediction_row(roots)), roots, 1e-12)
            est = mp_estimate(add_noise(generate_clean(fig6_spectrum(), 64), 0.005, 3))
            clean = mp_estimate(generate_clean(fig6_spectrum(), 64))
        assert np.all(np.isfinite(est.amplitudes))
        assert np.all(np.isfinite(clean.amplitudes))


def horner_terms(x, coef):
    """``q(x)``, ``q'(x)``, ``sum_k |coef_k| |x|^k`` and ``sum_k k |coef_k|
    |x|^(k-1)`` by Horner's rule in extended precision (``np.clongdouble``)."""
    x, coef = x.astype(np.clongdouble), coef.astype(np.clongdouble)
    ax = np.abs(x)
    val, der = np.zeros_like(x), np.zeros_like(x)
    bound, der_bound = np.zeros_like(ax), np.zeros_like(ax)
    for c in coef[::-1]:
        der, der_bound = der * x + val, der_bound * ax + bound
        val, bound = val * x + c, bound * ax + abs(c)
    return val, der, bound, der_bound


class TestPolynomialTerms:
    # Coefficient counts at the edges of the split k = a*B + r: 2 (B = 2,
    # A = 1), 3 (B = 2, A = 2, one padded slot), 64 (B = A = 8, none), 65 and
    # 66 (B = 9, A = 8, padded), and fig5's 566 (B = A = 24, padded).
    @pytest.mark.parametrize("n", [2, 3, 64, 65, 66, 566])
    def test_matches_direct_evaluation(self, n):
        rng = np.random.default_rng(n)
        coef = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        turns = np.exp(1j * (2 * np.pi * np.arange(7) / 7 + 0.3))
        x = np.concatenate([m * turns for m in (0.0, 1e-3, 0.5, 1.0)])
        val, der, bound = _polynomial_terms(x, *_coefficient_tables(coef))
        ref_val, ref_der, ref_bound, der_bound = horner_terms(x, coef)
        # x^(aB) * x^r carries at most k rounding errors, like the power x^k,
        # and the two sums B + A more: within 4 n u of the scale
        # sum_k |coef_k| |x|^k (of sum_k k |coef_k| |x|^(k-1) for q').
        tol = 4 * n * UNIT_ROUNDOFF
        assert np.all(np.abs(val - ref_val) <= tol * ref_bound)
        assert np.all(np.abs(der - ref_der) <= tol * der_bound)
        assert np.all(np.abs(bound - ref_bound) <= tol * ref_bound)
        # At x = 0 the terms are the constant and linear coefficients.
        assert np.array_equal(val[:7], np.full(7, coef[0]))
        assert np.array_equal(der[:7], np.full(7, coef[1]))


def conditioned(n, cond, seed):
    """``U diag(s) V^H`` for random unitary ``U``, ``V`` and ``n`` singular
    values spaced geometrically from 1 down to ``1 / cond``."""
    rng = np.random.default_rng(seed)
    u, v = (
        np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        for _ in range(2)
    )
    return (u * np.geomspace(1.0, 1.0 / cond, n)) @ v.conj().T


UNIT_ROUNDOFF = np.finfo(float).eps / 2


def random_triangle(n, seed):
    """A random upper-triangular ``t`` (the R factor of a complex Gaussian
    matrix, condition number about n) and a complex right-hand side."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(a, mode="r"), rng.standard_normal(n) + 1j * rng.standard_normal(n)


def backward_error(t, x, y):
    """The normwise backward error ``||t x - y|| / (||t|| ||x||)`` of ``x``."""
    return np.linalg.norm(t @ x - y) / (np.linalg.norm(t) * np.linalg.norm(x))


class TestUpperSolve:
    # Sizes on both sides of the 64-column base block, one and two levels of
    # halving, and fig5's L = 565.
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130, 565])
    def test_inverse_and_back_substitution_are_accurate(self, n):
        assert matrix_pencil._TRIANGULAR_BLOCK == 64
        t, y = random_triangle(n, n)
        inverse, x = _upper_solve(t, y)
        # The block inverse is off by a relative O(n u cond(t)), and the back
        # substitution is backward stable (Higham 2002, chs. 14 and 8).
        residual = np.linalg.norm(inverse @ t - np.eye(n))
        assert residual <= 4 * n * UNIT_ROUNDOFF * np.linalg.cond(t)
        assert backward_error(t, x, y) <= 4 * n * UNIT_ROUNDOFF

    @pytest.mark.parametrize("n", [2, 65, 130])
    def test_reads_only_the_upper_triangle(self, n):
        t, y = random_triangle(n, n)
        filled = t.copy()
        filled[np.tril_indices(n, -1)] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for got, want in zip(_upper_solve(filled, y), _upper_solve(t, y)):
                assert np.array_equal(got, want)
            assert np.array_equal(_certified_solve(filled, y), _certified_solve(t, y))


class TestCertifiedSolve:
    # n = 2 makes the bound ||t||_F ||t^-1||_F equal the condition number to
    # within a factor 2, so the cases straddle the certificate's 5e11; at
    # n = 64 and 200 the Frobenius norms make it stricter. t is the R factor
    # of a matrix with the chosen singular values, so it keeps them.
    @pytest.mark.parametrize("n", [2, 64, 200])
    @pytest.mark.parametrize("cond", [1e3, 1e11, 4e11, 1e12, 1e13])
    def test_accepted_systems_keep_every_singular_value(self, n, cond):
        t = np.linalg.qr(conditioned(n, cond, 5), mode="r")
        y = np.arange(1.0, n + 1) - 0.5j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = _certified_solve(t, y)
        s = np.linalg.svd(t, compute_uv=False)
        bound = np.sqrt(np.sum(s**2) * np.sum(s**-2.0))
        if x is None:
            # Rejected only near or above the threshold 0.5 / SVD_RCOND.
            assert bound >= 0.45 / SVD_RCOND
        elif bound >= 0.55 / SVD_RCOND:
            pytest.fail("accepted a system well above the threshold")
        else:
            assert np.all(s > SVD_RCOND * s[0])
            # Back substitution, not t^-1 @ y: backward stable however close
            # to the threshold cond(t) is.
            assert backward_error(t, x, y) <= 4 * n * UNIT_ROUNDOFF
        if cond <= 1e11 or (n == 2 and cond <= 4e11):
            assert x is not None

    @pytest.mark.parametrize(
        "entry", [0.0, np.inf, np.nan, 1.7e308], ids=["zero-column", "inf", "nan", "overflow"]
    )
    def test_singular_or_non_finite_system_is_not_certified(self, entry):
        t = np.linalg.qr(conditioned(6, 10.0, 2), mode="r")
        if entry == 0.0:
            t[:, 3] = 0.0
        else:
            t[1, 2] = t[1, 4] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _certified_solve(t, np.ones(6, dtype=complex)) is None


class TestSolveAmplitudes:
    def test_single_line_unit_amplitude(self):
        ts = generate_clean(point_mass(0.2), 4)
        fit = solve_amplitudes(np.array([0.2]), ts, 1, np.ones(1))
        assert fit.amplitudes[0] == pytest.approx(1.0, abs=1e-12)
        assert fit.rank == 1

    def test_exact_phases_recover_weights(self):
        spec = fig6_spectrum()
        ts = generate_clean(spec, 12)
        fit = solve_amplitudes(spec.lambdas, ts, 5, np.ones(5))
        assert np.max(np.abs(fit.amplitudes.real - spec.weights)) <= 1e-6
        assert np.max(np.abs(fit.amplitudes.imag)) <= 1e-6
        assert fit.residual <= 1e-8

    def test_paper_shape_fit_is_backward_stable(self):
        # The certified fit solves t x = Q^H target by back substitution, with
        # a residual near 1e-13 here; t^-1 @ (Q^H target) would leave 1e-9.
        # Every entry of the system matrix has modulus one, so its Frobenius
        # norm is L.
        ts = add_noise(generate_clean(fig6_spectrum(), 566), 0.005, 1)
        est = mp_estimate(ts, 565)
        scale = 565 * np.linalg.norm(est.amplitudes)
        assert est.residual <= 565 * UNIT_ROUNDOFF * scale

    # One row block (L = 1), B = 8 rows filling A = 8 blocks (L = 64), a
    # padded last block (L = 65) and fig5's L = 565 (B = A = 24, padded).
    @pytest.mark.parametrize("l_dim", [1, 64, 65, 565])
    def test_split_vandermonde_matches_direct_exp(self, l_dim, monkeypatch):
        rng = np.random.default_rng(l_dim)
        phases = rng.uniform(-np.pi, np.pi, l_dim)
        moduli = np.ones(l_dim)
        moduli[1::7] = 1e-13  # zeroed columns: at most SVD_RCOND times the largest
        ts = add_noise(generate_clean(fig6_spectrum(), l_dim + 1), 0.005, 1)
        qr, systems = np.linalg.qr, []
        monkeypatch.setattr(np.linalg, "qr", lambda m, mode: systems.append(m.copy()) or qr(m, mode=mode))
        solve_amplitudes(phases, ts, l_dim, moduli)
        [system] = systems
        assert system.shape == (l_dim, l_dim + 1)
        assert np.array_equal(system[:, -1], ts.values[:l_dim])
        # exp(-i p a B) exp(-i p r) against exp(-i p l), l = a B + r: the
        # rounded arguments p a B, p r and p l are each off by at most u times
        # their size, so together by 2 u |p| l, and |exp(iy) - exp(iy')| <=
        # |y - y'|. The three exps and the complex product add a few u more;
        # 16 u covers them.
        rows = np.arange(l_dim)[:, None]
        direct = np.exp(-1j * np.outer(np.arange(l_dim), phases))
        direct[:, moduli <= SVD_RCOND] = 0.0
        tol = (2 * np.abs(phases) * rows + 16) * UNIT_ROUNDOFF
        assert np.all(np.abs(system[:, :-1] - direct) <= tol)
        assert np.all(system[:, :-1][:, 1::7] == 0)

    def test_duplicate_phases_finite_solution(self):
        ts = generate_clean(point_mass(0.1), 6)
        fit = solve_amplitudes(np.array([0.1, 0.1, 0.1]), ts, 3, np.ones(3))
        assert np.all(np.isfinite(fit.amplitudes))
        assert fit.rank < 3
        assert fit.residual <= 1e-10

    def test_zero_eigenvalues_get_no_amplitude(self):
        # A rank-deficient pencil's zero eigenvalues have rounding-noise phases;
        # one that lands on a line would split its weight as in the duplicate
        # case above, so it gets none.
        ts = generate_clean(point_mass(0.2), 4)
        fit = solve_amplitudes(np.array([0.2, 0.2]), ts, 2, np.array([1.0, 1e-17]))
        assert fit.amplitudes == pytest.approx([1.0, 0.0], abs=1e-12)
        assert fit.rank == 1
        assert fit.residual <= 1e-12

    def test_length_validation(self):
        ts = generate_clean(fig6_spectrum(), 4)
        with pytest.raises(ValueError):
            solve_amplitudes(np.array([0.1, 0.2]), ts, 3, np.ones(2))
        with pytest.raises(ValueError):
            solve_amplitudes(np.arange(5.0), ts, 5, np.ones(5))
        with pytest.raises(ValueError):
            solve_amplitudes(np.array([0.1, 0.2]), ts, 2, np.ones(3))


class TestMpEstimate:
    def test_noiseless_recovery_at_small_order(self):
        spec = fig6_spectrum()
        est = mp_estimate(generate_clean(spec, 20), 10)
        assert est.l_dim == 10
        assert est.eigenphases.size == 10
        keep = np.abs(est.moduli - 1.0) <= 0.5
        phases = np.sort(est.eigenphases[keep])
        assert keep.sum() == 5
        assert np.max(np.abs(phases - spec.lambdas)) <= 1e-6
        amps = est.amplitudes[keep][np.argsort(est.eigenphases[keep])]
        assert np.max(np.abs(amps.real - spec.weights)) <= 1e-6

    def test_zero_eigenvalues_get_phase_plus_zero(self):
        # A clean pencil's exact zero eigenvalues have phase +0.0, not -0.0,
        # at a small shape and at the paper's N = 566, L = 565 (C09).
        spec = fig6_spectrum()
        for n_len, l_dim, zeros in ((20, 10, 5), (566, 565, 560)):
            est = mp_estimate(generate_clean(spec, n_len), l_dim)
            assert np.count_nonzero(est.moduli == 0) == zeros
            assert not np.any(np.signbit(est.eigenphases[est.eigenphases == 0]))

    def test_default_pencil_dimension(self):
        ts = generate_clean(fig6_spectrum(), 16)
        est = mp_estimate(ts)
        assert est.l_dim == 15

    @pytest.mark.parametrize("l_dim", [10, 16, 23])
    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_noiseless_recovery_across_pencil_dimensions(self, seed, l_dim):
        # D = 5 spectra with gaps >= 1e-3 recover exactly for L across
        # [2D, N-1]; the L = D corner is covered separately below because its
        # short Vandermonde window is ill-conditioned for gaps below ~1e-2.
        from qeep import random_spectrum

        spec = random_spectrum(5, seed)
        assert np.min(np.diff(spec.lambdas)) >= 1e-3
        est = mp_estimate(generate_clean(spec, 24), l_dim)
        keep = np.abs(est.moduli - 1.0) <= 0.5
        assert keep.sum() == 5
        order = np.argsort(est.eigenphases[keep])
        assert np.max(np.abs(est.eigenphases[keep][order] - spec.lambdas)) <= 1e-6
        assert np.max(np.abs(est.amplitudes[keep][order] - spec.weights)) <= 1e-6

    def test_noiseless_recovery_at_minimal_pencil_dimension(self):
        from qeep import random_spectrum

        spec = random_spectrum(5, 0)  # min gap 0.024
        est = mp_estimate(generate_clean(spec, 24), 5)
        keep = np.abs(est.moduli - 1.0) <= 0.5
        assert keep.sum() == 5
        order = np.argsort(est.eigenphases[keep])
        assert np.max(np.abs(est.eigenphases[keep][order] - spec.lambdas)) <= 1e-6
        assert np.max(np.abs(est.amplitudes[keep][order] - spec.weights)) <= 1e-6

    # Clean signals of one to five lines at least 0.06 apart, each weighing
    # at least 0.04: on wide pencils (L << N, 2D <= L <= 16) and on square
    # ones (L = N - 1), the lines near the unit circle are the spectrum.
    @settings(max_examples=40, deadline=None)
    @example(slots=[0, 9], jitter=[0.0, 0.04], raw_weights=[1.0, 0.2], wide=True, size=0.0)
    @example(slots=[0, 2, 4, 6, 8], jitter=[0.0] * 5, raw_weights=[0.2] * 5, wide=False, size=0.0)
    @given(
        slots=st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True),
        jitter=st.lists(st.floats(0.0, 0.04), min_size=5, max_size=5),
        raw_weights=st.lists(st.floats(0.2, 1.0), min_size=5, max_size=5),
        wide=st.booleans(),
        size=st.floats(0.0, 1.0),
    )
    def test_noiseless_recovery_property(self, slots, jitter, raw_weights, wide, size):
        d = len(slots)
        lambdas = np.sort([-0.5 + 0.1 * i + jitter[j] for j, i in enumerate(slots)])
        weights = np.array(raw_weights[:d]) / sum(raw_weights[:d])
        spec = Spectrum(lambdas=lambdas, weights=weights)
        if wide:
            n_len = 64 + int(size * 536)
            l_dim = 2 * d + int(size * (16 - 2 * d))
        else:
            n_len = 2 * d + 1 + int(size * (80 - 2 * d - 1))
            l_dim = n_len - 1
        est = mp_estimate(generate_clean(spec, n_len), l_dim)
        keep = np.abs(est.moduli - 1.0) <= 0.5
        assert keep.sum() == d
        assert np.max(np.abs(est.eigenphases[keep] - spec.lambdas)) <= 1e-8
        assert np.max(np.abs(est.amplitudes[keep] - spec.weights)) <= 1e-8

    def test_phases_sorted_ascending(self):
        est = mp_estimate(generate_clean(fig6_spectrum(), 20), 10)
        assert np.all(np.diff(est.eigenphases) >= 0)

    def test_deterministic(self):
        ts = add_noise(generate_clean(fig6_spectrum(), 32), 0.01, 3)
        a = mp_estimate(ts, 16)
        b = mp_estimate(ts, 16)
        assert np.array_equal(a.eigenphases, b.eigenphases)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_noise_can_push_phases_outside_half_range(self):
        ts = add_noise(generate_clean(fig6_spectrum(), 64), 0.02, 7)
        est = mp_estimate(ts)
        assert np.any(np.abs(est.eigenphases) > 0.5)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            MpEstimate(
                eigenphases=[0.1, 0.2], amplitudes=[0.5], moduli=[1.0, 1.0], l_dim=2, residual=0.0
            )


class TestFilterEstimate:
    def test_modulus_filter_keeps_signal_lines(self):
        est = mp_estimate(generate_clean(fig6_spectrum(), 20), 10)
        kept = filter_estimate(est, delta_mu=0.5)
        assert kept.eigenphases.size == 5
        assert kept.filters == {"delta_mu": 0.5, "restrict_range": False}
        assert np.max(np.abs(kept.eigenphases - fig6_spectrum().lambdas)) <= 1e-6

    def test_range_filter_drops_out_of_range_phases(self):
        ts = add_noise(generate_clean(fig6_spectrum(), 64), 0.02, 7)
        est = mp_estimate(ts)
        kept = filter_estimate(est, delta_mu=None, restrict_range=True)
        assert np.all(np.abs(kept.eigenphases) <= 0.5)
        assert kept.eigenphases.size < est.eigenphases.size

    def test_negative_delta_rejected(self):
        est = mp_estimate(generate_clean(fig6_spectrum(), 12), 6)
        with pytest.raises(ValueError):
            filter_estimate(est, delta_mu=-0.1)


class TestMpMoment:
    def test_zeroth_moment_is_one_for_exact_fit(self):
        est = mp_estimate(generate_clean(fig6_spectrum(), 20), 10)
        assert mp_moment(est, 0) == pytest.approx(1.0, abs=1e-9)

    def test_noiseless_first_moment_matches_exact(self):
        est = mp_estimate(generate_clean(fig6_spectrum(), 20), 10)
        assert mp_moment(est, 1) == pytest.approx(
            exact_moment(fig6_spectrum(), 1), abs=1e-6
        )

    def test_negative_order_rejected(self):
        est = mp_estimate(generate_clean(fig6_spectrum(), 12), 6)
        with pytest.raises(ValueError):
            mp_moment(est, -1)

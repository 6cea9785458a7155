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
    generate_clean,
    mp_estimate,
    mp_moment,
    random_spectrum,
    solve_amplitudes,
    solve_pencil,
)
from qeep import matrix_pencil
from qeep.cli import _seeded_signal
from qeep.filterbank import TruncationMode, choose_truncation
from qeep.matrix_pencil import (
    _QR_BLOCK_ROWS_PER_COLUMN,
    SVD_RCOND,
    _certified_inverse,
    _coefficient_tables,
    _companion_roots,
    _from_pairs,
    _grid_transform,
    _pencil_dimension,
    _polynomial_terms,
    _real_factor,
    _to_pairs,
    _upper_inverse,
)
from qeep.signal import Provenance

# The `trials` workload's signal length: STRICT N at eps = 0.05, 4469.
TRIALS_N = choose_truncation(0.05, TruncationMode.STRICT)


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
        # g_{-k} = conj(g_k) mirrors G bit for bit, which the real R factor
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

    # Wide pencils (L << N), where the R factor avoids the SVD of the wide
    # H0: the top half of G^T of (4469, 64) takes 8 row blocks and a leftover
    # of 276 rows, of (2000, 180) one block and a leftover of 461. Square ones
    # (L = N - 1, the CLI default) and small ones pair the rows themselves.
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
        # F[:-1] of F = Q R_T^T keeps the singular values of H0, so the cutoff
        # keeps as many of them, and the solve returns L - rank zeros.
        g = build_hankel(ts, l_dim)
        f = _from_pairs(_real_factor(g)).T
        s_h0 = np.linalg.svd(g[:-1], compute_uv=False)
        s_r = np.linalg.svd(f[:-1], compute_uv=False)
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


def pencil_hankel(n_len, l_dim, noisy):
    """G of a five-line pencil: rank 5 when clean."""
    ts = generate_clean(random_spectrum(5, 4), n_len)
    if noisy:
        ts = add_noise(ts, 0.005, 11)
    return build_hankel(ts, l_dim)


def centrosymmetric(rows, cols, seed):
    """A random complex ``rows x cols`` matrix ``a == conj(a[::-1, ::-1])``."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return a + np.conj(a[::-1, ::-1])


def pi_real(n):
    """The ``n x n`` unitary ``Q`` that :func:`_from_pairs` applies."""
    return _from_pairs(np.eye(n)).T


# A Hankel G has m = 2N - (L + 1) columns, of the parity of its L + 1 rows, so
# the mixed parities of (L + 1, m) are random conjugate-centrosymmetric
# matrices; fig5's square (566, 565) and the trials shape (4469, 64), whose
# top half takes 8 row blocks, are Hankels.
GRAM_CASES = {
    "even-even": lambda: centrosymmetric(6, 10, 1),
    "odd-odd": lambda: centrosymmetric(5, 9, 2),
    "even-odd": lambda: centrosymmetric(4, 7, 3),
    "odd-even": lambda: centrosymmetric(7, 12, 4),
    "fig5": lambda: pencil_hankel(566, 565, noisy=True),
    "trials": lambda: pencil_hankel(4469, 64, noisy=True),
}


class TestRealFactor:
    @pytest.mark.parametrize("case", list(GRAM_CASES)[:4])
    def test_pi_real_transform_makes_g_real(self, case):
        g = GRAM_CASES[case]()
        n, m = g.shape
        q, q_m = pi_real(n), pi_real(m)
        assert np.allclose(q.conj().T @ q, np.eye(n), rtol=0, atol=1e-15)
        assert np.array_equal(np.conj(q), q[::-1])
        # _to_pairs is Q^H along the last axis, and _from_pairs, of real
        # arrays, inverts it.
        assert np.allclose(_to_pairs(g.T), g.T @ q.conj(), rtol=0, atol=1e-14)
        assert np.allclose(_to_pairs(_from_pairs(g.real)), g.real, rtol=0, atol=1e-14)
        t = q.conj().T @ g @ q_m
        assert np.max(np.abs(t.imag)) <= 4 * UNIT_ROUNDOFF * np.linalg.norm(g)

    @pytest.mark.parametrize("case", list(GRAM_CASES))
    def test_gram_matrix_matches(self, case):
        g = GRAM_CASES[case]()
        n, m = g.shape
        r = _real_factor(g)
        assert r.dtype == float and r.shape == (n, n)
        assert np.array_equal(r, np.triu(r))
        # F = Q R_T^T has F F^H = G G^H, to a QR's backward error.
        f = _from_pairs(r).T
        gram = g @ g.conj().T
        assert np.linalg.norm(f @ f.conj().T - gram) <= 4 * m * UNIT_ROUNDOFF * np.linalg.norm(g) ** 2

    # The top half of G^T of (4469, 64) holds 8 row blocks, of (2000, 180)
    # one and of (20000, 64) 38, each with leftover rows.
    @pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy"])
    @pytest.mark.parametrize("n_len, l_dim", [(4469, 64), (2000, 180), (20000, 64)])
    def test_blocked_factor_pairs_the_blocks_r_factors(self, n_len, l_dim, noisy, monkeypatch):
        g = pencil_hankel(n_len, l_dim, noisy)
        n, m = g.shape
        k, rows = m // 2, _QR_BLOCK_ROWS_PER_COLUMN * n
        p = k // rows
        assert p and k % rows
        qr, calls = np.linalg.qr, []
        spy = lambda x, mode: calls.append((x.shape, x.dtype)) or qr(x, mode=mode)
        monkeypatch.setattr(np.linalg, "qr", spy)
        r = _real_factor(g)
        monkeypatch.undo()
        # One batched complex QR of the p top blocks, then one real QR of the
        # real and imaginary parts of their paired R factors and leftover top
        # rows, and of the middle row of an odd m.
        stack = 2 * (p * n + k - p * rows) + m % 2
        assert calls == [((p, rows, n), complex), ((stack, n), float)]
        # Pairing the rows themselves gives the same Gram matrix, which at
        # full rank fixes R_T up to a sign diagonal, so |diag R_T| agrees; past
        # a clean pencil's rank 5 both are rounding noise.
        monkeypatch.setattr(matrix_pencil, "_QR_BLOCK_ROWS_PER_COLUMN", m)
        direct = np.abs(np.diag(_real_factor(g)))
        assert np.max(np.abs(np.abs(np.diag(r)) - direct)) <= 1e-12 * direct.max()
        # The diagonal does not fix the Gram matrix; F = Q R_T^T must have
        # F F^H = G G^H.
        f = _from_pairs(r).T
        gram = g @ g.conj().T
        assert np.linalg.norm(f @ f.conj().T - gram) <= 1e-12 * np.linalg.norm(gram)

    # The reference is the direct stack, which keeps the pairs alive through
    # the QR and negates a copy of their imaginary parts: releasing them and
    # negating the stack in place must not move a bit. Square and wide, with
    # even and odd m (m = 2N - L - 1); both wide shapes take row blocks.
    @pytest.mark.parametrize(
        "n_len, l_dim",
        [(566, 565), (565, 564), (4469, 64), (2000, 179)],
        ids=["square", "square-odd-m", "wide-odd-m", "wide"],
    )
    def test_factor_is_bitwise_that_of_the_direct_stack(self, n_len, l_dim):
        g = pencil_hankel(n_len, l_dim, noisy=True)
        n, m = g.shape
        k, rows = m // 2, _QR_BLOCK_ROWS_PER_COLUMN * n
        top, p = g[:, :k].T, k // rows
        if p:
            blocks = np.linalg.qr(top[: p * rows].reshape(p, rows, n), mode="r")
            top = np.concatenate([blocks.reshape(p * n, n), top[p * rows :]])
        pairs = math.sqrt(2.0) * _to_pairs(top)
        middle = _to_pairs(g[:, k : m - k].T).real
        expected = np.linalg.qr(np.concatenate([pairs.real, middle, -pairs.imag]), mode="r")
        r = _real_factor(g)
        assert r.tobytes() == expected.tobytes()
        # The certificate and the SVD fallback read R_T's zeros as they are.
        assert np.array_equal(r, np.triu(r))

    @settings(max_examples=30, deadline=None)
    @example(shape=(566, 565), seed=0)
    @given(
        shape=st.integers(2, 60).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_g_bound_is_at_least_the_h0_bound(self, shape, seed):
        n_len, l_dim = shape
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(n_len) + 1j * rng.standard_normal(n_len)
        v[0] = 1.0
        g = build_hankel(TimeSeries(values=v, provenance=Provenance.clean()), l_dim)
        r = _real_factor(g)
        bound = lambda s: np.sqrt(np.sum(s**2) * np.sum(s**-2.0))
        s_g, s_h0 = (np.linalg.svd(x, compute_uv=False) for x in (g, g[:-1]))
        # The certificate reads the bound of G's singular values, which R_T has.
        certificate = np.linalg.norm(r) * np.linalg.norm(_upper_inverse(r))
        assert certificate == pytest.approx(bound(s_g), rel=1e-8)
        # Deleting a row interlaces them, s_i(G) >= s_i(H0) >= s_{i+1}(G), so
        # a certified G certifies H0.
        assert bound(s_g) >= bound(s_h0) * (1 - 1e-12)
        assert s_g[0] / s_g[-1] >= s_h0[0] / s_h0[-1] * (1 - 1e-12)

    # The edge of the certificate at L = 565, seed 2, where the G bound is
    # about 1.3x the H0 bound: eps' = 5e-8 certifies both (G 4.6e11), 3e-8
    # neither (H0 5.8e11), and 4e-8 lies in the window where H0 (4.4e11)
    # would certify but G (5.7e11) does not, so that pencil takes the SVD.
    @pytest.mark.parametrize(
        "eps_prime, g_certified, h0_certified",
        [(3e-8, False, False), (4e-8, False, True), (5e-8, True, True)],
    )
    def test_certificate_window_edge(self, eps_prime, g_certified, h0_certified, monkeypatch):
        ts = _seeded_signal(random_spectrum(5, 2), 566, eps_prime, 2)
        g = build_hankel(ts, 565)
        s_h0 = np.linalg.svd(g[:-1], compute_uv=False)
        h0_bound = np.sqrt(np.sum(s_h0**2) * np.sum(s_h0**-2.0))
        assert (h0_bound < 0.5 / SVD_RCOND) == h0_certified
        assert (_certified_inverse(_real_factor(g)) is not None) == g_certified

        class Fallback(Exception):
            pass

        def svd(*args, **kwargs):
            raise Fallback

        # The SVD path is the only caller of svd; stop there, before the
        # 565 x 565 eigensolve.
        monkeypatch.setattr(np.linalg, "svd", svd)
        if g_certified:
            assert solve_pencil(ts, 565).size == 565
        else:
            with pytest.raises(Fallback):
                solve_pencil(ts, 565)


class TestPredictionRow:
    # The benchmark's pencils, as in TestCompanionRoots: fig5 (N = 566,
    # L = 565) and trials (eps = 0.05, STRICT N = 4469, L = 64).
    @pytest.mark.parametrize(
        "n_len, eps_prime, l_dim, seed, bound",
        [(566, 0.005, 565, 1, 0.25), (566, 0.005, 565, 17, 0.25),
         (TRIALS_N, 1e-5, 64, 1, 4.0), (TRIALS_N, 1e-5, 64, 22, 4.0)],
        ids=["fig5-1", "fig5-17", "trials-1", "trials-22"],
    )
    def test_benchmark_rows_are_backward_stable(
        self, n_len, eps_prime, l_dim, seed, bound, monkeypatch
    ):
        ts = _seeded_signal(random_spectrum(5, seed), n_len, eps_prime, seed)
        rows = []
        spy = lambda a: rows.append(a) or _companion_roots(a)
        monkeypatch.setattr(matrix_pencil, "_companion_roots", spy)
        solve_pencil(ts, l_dim)
        [a] = rows
        # The normal equations (a H0 - G[L]) H0^H = 0 hold to `bound` times
        # u ||H0||_2^2 ||a||. Over fig5 seeds 1-20 the residual reads 0.05 to
        # 0.19 of that, and 0.5 to 4 without the refinement step; over trials
        # seeds 1-25, 0.2 to 2.2 and 18 to 8000.
        g = build_hankel(ts, l_dim)
        h0 = g[:-1]
        residual = np.linalg.norm((a @ h0 - g[-1]) @ h0.conj().T)
        scale = UNIT_ROUNDOFF * np.linalg.norm(h0, 2) ** 2 * np.linalg.norm(a)
        assert residual <= bound * scale


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
        assert linalg_calls["svd"] == [(63, 64)]
        assert linalg_calls["eigvals"] == [(63, 63)]
        k = pinv_oracle(ts, 63)
        assert _companion_roots(k[-1]) is None
        assert_matched(mu, np.linalg.eigvals(k), 1e-9)

    def test_uncertified_pencil_takes_the_core_eigensolve(self, monkeypatch, linalg_calls):
        ts = add_noise(generate_clean(fig6_spectrum(), 64), 0.005, 3)
        monkeypatch.setattr(matrix_pencil, "_certified_inverse", lambda t: None)
        roots_calls = []
        spy = lambda a: roots_calls.append(a.size) or _companion_roots(a)
        monkeypatch.setattr(matrix_pencil, "_companion_roots", spy)
        mu = solve_pencil(ts, 63)
        # The SVD of F[:-1] keeps all 63 singular values, and the eigenvalues
        # come from the 63 x 63 core, not from a second attempt at the roots.
        assert roots_calls == []
        assert linalg_calls["svd"] == [(63, 64)]
        assert linalg_calls["eigvals"] == [(63, 63)]
        assert_matched(mu, np.linalg.eigvals(pinv_oracle(ts, 63)), 1e-9)

    def test_only_a_rank_deficient_pencil_takes_the_eigensolve(self, linalg_calls):
        clean = generate_clean(fig6_spectrum(), 20)
        mp_estimate(add_noise(clean, 0.005, 3), 10)
        assert dense_calls(linalg_calls) == {"svd": [], "lstsq": [], "eigvals": []}
        # Rank five: the SVD of the L x (L + 1) F[:-1], the 5 x 5 core, five
        # exact zeros, and the amplitude fit's zeroed columns go to lstsq.
        est = mp_estimate(clean, 10)
        assert dense_calls(linalg_calls) == {
            "svd": [(10, 11)], "lstsq": [(10, 10)], "eigvals": [(5, 5)]
        }
        assert np.count_nonzero(est.moduli == 0) == 5

    def test_certified_paper_shape_pencil_takes_no_svd(self, linalg_calls, monkeypatch):
        # The paper's N = 566, L = 565 under noise: both square systems are
        # certified full rank, so neither the pencil nor the amplitude fit
        # runs an SVD.
        qr, kinds = np.linalg.qr, []
        spy = lambda m, mode: kinds.append(m.dtype) or qr(m, mode=mode)
        monkeypatch.setattr(np.linalg, "qr", spy)
        ts = add_noise(generate_clean(fig6_spectrum(), 566), 0.005, 1)
        est = mp_estimate(ts, 565)
        assert dense_calls(linalg_calls) == {"svd": [], "lstsq": [], "eigvals": []}
        assert np.all(est.moduli > 0)
        # The pencil's only QR is the real one of the paired 566 x 566 stack,
        # with no batch of top blocks and no complex QR. The amplitude fit is
        # the closed form of the Vandermonde inverse and takes no QR. Only the
        # diagonal blocks of the triangular inverse meet an LU solve.
        assert linalg_calls["qr"] == [(566, 566)] and kinds == [np.float64]
        widths = [shape[1] for shape in linalg_calls["solve"]]
        assert widths and max(widths) <= matrix_pencil._TRIANGULAR_BLOCK

    # The benchmark's pencils: `reproduce fig5` at the paper's defaults
    # (eps = eps' = 0.005, N = 566, L = 565) and the `trials` runs (eps = 0.05,
    # STRICT N = 4469, eps' = 1e-5, L = 64), each seed's signal built as the
    # CLI builds it.
    @pytest.mark.parametrize(
        "n_len, eps_prime, l_dim, seeds",
        [(566, 0.005, 565, range(1, 21)), (TRIALS_N, 1e-5, 64, range(1, 26))],
        ids=["fig5", "trials"],
    )
    def test_benchmark_pencils_stop_within_the_documented_sweeps(
        self, n_len, eps_prime, l_dim, seeds, monkeypatch, linalg_calls
    ):
        # A root call that needs more sweeps than the cap returns None and
        # sends its pencil to the SVD path, so no SVD, lstsq or eigensolve
        # under the 18 sweeps the `_ABERTH_MAX_SWEEPS` comment quotes means
        # every root call stopped within them.
        assert matrix_pencil._ABERTH_MAX_SWEEPS > 18
        monkeypatch.setattr(matrix_pencil, "_ABERTH_MAX_SWEEPS", 18)
        for seed in seeds:
            mp_estimate(_seeded_signal(random_spectrum(5, seed), n_len, eps_prime, seed), l_dim)
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


class TestGridTransform:
    # One point, two, an odd size, sizes either side of a power of two, and
    # fig5's L = 565 = 5 * 113, a size with a large prime factor.
    @pytest.mark.parametrize("n", [1, 2, 7, 63, 64, 565])
    def test_matches_direct_sum(self, n):
        rng = np.random.default_rng(n)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # sum_k g_k zeta_m^-k in extended precision, with the exponent
        # (2m + 1) k of zeta_m^-k = exp(-i pi (2m + 1) k / n) reduced mod 2n.
        k = np.arange(n)
        angle = np.arccos(np.longdouble(-1)) / n * ((2 * k[:, None] + 1) * k % (2 * n))
        ref = ((np.cos(angle) - 1j * np.sin(angle)) * g.astype(np.clongdouble)).sum(axis=1)
        # The FFT is backward stable: within a small multiple of u sum |g_k|
        # of every grid value (measured at most 0.9 u on these sizes).
        tol = 2 * UNIT_ROUNDOFF * np.sum(np.abs(g))
        assert np.all(np.abs(_grid_transform(g) - ref) <= tol)


def conditioned(n, cond, seed):
    """``U diag(s) V^T`` for random orthogonal ``U``, ``V`` and ``n`` singular
    values spaced geometrically from 1 down to ``1 / cond``."""
    rng = np.random.default_rng(seed)
    u, v = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    return (u * np.geomspace(1.0, 1.0 / cond, n)) @ v.T


UNIT_ROUNDOFF = np.finfo(float).eps / 2


def random_triangle(n, seed):
    """A random real upper-triangular ``t``, like the pencil's ``R_T``: the R
    factor of a Gaussian matrix, condition number about n."""
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.standard_normal((n, n)), mode="r")


def inverse_residual(t, inverse):
    """``||inverse @ t - I||``: the block inverse is off by a relative
    ``O(n u cond(t))`` (Higham 2002, ch. 14)."""
    return np.linalg.norm(inverse @ t - np.eye(t.shape[0]))


class TestUpperInverse:
    # Sizes on both sides of the 64-column base block, one and two levels of
    # halving, and fig5's L + 1 = 566.
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130, 566])
    def test_inverse_is_accurate(self, n):
        assert matrix_pencil._TRIANGULAR_BLOCK == 64
        t = random_triangle(n, n)
        inverse = _upper_inverse(t)
        assert np.array_equal(inverse, np.triu(inverse))
        assert inverse_residual(t, inverse) <= 4 * n * UNIT_ROUNDOFF * np.linalg.cond(t)

    def test_fills_one_output_in_place(self, usage):
        # The output and the top level's two n^2 / 4 products: 1.5 triangles
        # (8 n^2 bytes). Building each level from quadrant copies held 2.
        n = 566
        t = random_triangle(n, n)
        with usage() as used:
            _upper_inverse(t)
        assert used["peak_bytes"] <= 1.6 * 8 * n * n


class TestCertifiedInverse:
    # n = 2 makes the bound ||t||_F ||t^-1||_F equal the condition number to
    # within a factor 2, so the cases straddle the certificate's 5e11; at
    # n = 64 and 200 the Frobenius norms make it stricter. t is the R factor
    # of a matrix with the chosen singular values, so it keeps them.
    @pytest.mark.parametrize("n", [2, 64, 200])
    @pytest.mark.parametrize("cond", [1e3, 1e11, 4e11, 1e12, 1e13])
    def test_accepted_systems_keep_every_singular_value(self, n, cond):
        t = np.linalg.qr(conditioned(n, cond, 5), mode="r")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inverse = _certified_inverse(t)
        s = np.linalg.svd(t, compute_uv=False)
        bound = np.sqrt(np.sum(s**2) * np.sum(s**-2.0))
        if inverse is None:
            # Rejected only near or above the threshold 0.5 / SVD_RCOND.
            assert bound >= 0.45 / SVD_RCOND
        elif bound >= 0.55 / SVD_RCOND:
            pytest.fail("accepted a system well above the threshold")
        else:
            assert np.all(s > SVD_RCOND * s[0])
            # Off by a relative O(n u cond(t)) however close to the threshold.
            assert inverse_residual(t, inverse) <= 4 * n * UNIT_ROUNDOFF * np.linalg.cond(t)
        if cond <= 1e11 or (n == 2 and cond <= 4e11):
            assert inverse is not None

    def test_norm_takes_no_copy_of_the_triangle(self, usage):
        # The inverse's own 1.5 triangles (8 n^2 bytes); the norm of a copy
        # np.triu(t) and its mask beside the inverse held 2.13.
        n = 566
        t = random_triangle(n, n)
        with usage() as used:
            assert _certified_inverse(t) is not None
        assert used["peak_bytes"] <= 1.6 * 8 * n * n

    # The certificate takes np.linalg.norm of R_T as _real_factor returns it.
    # numpy's factor is an exact triangle, so that is the upper triangle's
    # norm, and it is G's: R_T^T R_T = Q^H G G^H Q has G G^H's trace. The
    # certified inverse is accurate on both sides of _TRIANGULAR_BLOCK.
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 566])
    def test_norm_is_the_upper_triangle_norm(self, n):
        g = centrosymmetric(n, 2 * n + 1, n)
        t = _real_factor(g)
        assert np.array_equal(t, np.triu(t))
        assert np.linalg.norm(t) == pytest.approx(np.linalg.norm(np.triu(t)), rel=1e-14)
        assert np.linalg.norm(t) == pytest.approx(np.linalg.norm(g), rel=1e-13)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inverse = _certified_inverse(t)
        assert inverse_residual(t, inverse) <= 4 * n * UNIT_ROUNDOFF * np.linalg.cond(t)

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
            assert _certified_inverse(t) is None


def jittered_phases(n):
    """``n`` eigenphases spread over ``[-pi, pi)``, each moved off its equispaced
    place by up to 0.3 of the spacing, so their Vandermonde system is well
    conditioned."""
    rng = np.random.default_rng(n)
    return 2 * np.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n - np.pi


class TestSolveAmplitudes:
    def test_single_line_unit_amplitude(self):
        ts = generate_clean(point_mass(0.2), 4)
        fit = solve_amplitudes(np.array([0.2]), ts, np.ones(1))
        assert fit.amplitudes[0] == pytest.approx(1.0, abs=1e-12)
        assert fit.rank == 1

    def test_exact_phases_recover_weights(self):
        spec = fig6_spectrum()
        ts = generate_clean(spec, 12)
        fit = solve_amplitudes(spec.lambdas, ts, np.ones(5))
        assert np.max(np.abs(fit.amplitudes.real - spec.weights)) <= 1e-6
        assert np.max(np.abs(fit.amplitudes.imag)) <= 1e-6
        assert fit.residual <= 1e-8

    def test_paper_shape_fit_is_backward_stable(self):
        # The certified fit is the closed-form inverse and one refinement
        # step, with a residual near 1e-14 here. Every entry of the system
        # matrix has modulus one, so its Frobenius norm is L.
        ts = add_noise(generate_clean(fig6_spectrum(), 566), 0.005, 1)
        est = mp_estimate(ts, 565)
        scale = 565 * np.linalg.norm(est.amplitudes)
        assert est.residual <= 565 * UNIT_ROUNDOFF * scale

    # The benchmark's pencils, as in TestCompanionRoots: fig5 (N = 566,
    # L = 565) and trials (eps = 0.05, STRICT N = 4469, L = 64).
    @pytest.mark.parametrize(
        "n_len, eps_prime, l_dim, seed",
        [(566, 0.005, 565, 1), (566, 0.005, 565, 17),
         (TRIALS_N, 1e-5, 64, 1), (TRIALS_N, 1e-5, 64, 22)],
        ids=["fig5-1", "fig5-17", "trials-1", "trials-22"],
    )
    def test_benchmark_fits_are_backward_stable(self, n_len, eps_prime, l_dim, seed, linalg_calls):
        est = mp_estimate(_seeded_signal(random_spectrum(5, seed), n_len, eps_prime, seed), l_dim)
        # Certified: no QR, lstsq or SVD for the fit, only the pencil's R
        # factor: a real QR, after a batched one of the top blocks on trials.
        assert linalg_calls["lstsq"] == [] and linalg_calls["svd"] == []
        assert len(linalg_calls["qr"]) == (1 if l_dim == 565 else 2)
        # Backward stable: at most L u ||b||_F ||x||, with ||b||_F = L. The
        # refined fits read 1e-4 to 5e-3 of that, and the closed form without
        # its refinement step 0.03 to 0.23, so the bound is taken at 0.02.
        bound = l_dim * UNIT_ROUNDOFF * l_dim * np.linalg.norm(est.amplitudes)
        assert est.residual <= 0.02 * bound

    # One node (L = 1), two, B = 8 rows filling A = 8 blocks (L = 64), a
    # padded last block (L = 65) and a fig5 pencil's L = 565, whose
    # eigenphases are clustered enough for a bound near 1e6.
    @pytest.mark.parametrize("l_dim", [1, 2, 64, 65, 565])
    def test_certificate_matches_the_dense_inverse(self, l_dim, monkeypatch, linalg_calls):
        if l_dim == 565:
            ts = _seeded_signal(random_spectrum(5, 1), 566, 0.005, 1)
            phases = mp_estimate(ts, l_dim).eigenphases
        else:
            ts = add_noise(generate_clean(fig6_spectrum(), l_dim + 1), 0.005, 1)
            phases = jittered_phases(l_dim)
        b = np.exp(-1j * np.outer(np.arange(l_dim), phases))
        dense = l_dim * np.linalg.norm(np.linalg.inv(b))
        # The certificate sqrt(L sum |ell_j(zeta_m)|^2) is ||b||_F ||b^-1||_F:
        # with the threshold 0.5 / SVD_RCOND set a relative 1e-6 above it the
        # fit is certified, and 1e-6 below it goes to lstsq.
        for ratio, certified in [(1 + 1e-6, True), (1 - 1e-6, False)]:
            monkeypatch.setattr(matrix_pencil, "SVD_RCOND", 0.5 / (ratio * dense))
            solve_amplitudes(phases, ts, np.ones(l_dim))
            assert linalg_calls["lstsq"] == ([] if certified else [(l_dim, l_dim)])

    # A pair of eigenphases `gap` apart among L jittered ones: at L = 2 the
    # bound ||b||_F ||b^-1||_F is 2 / |sin(gap / 2)|, from 4e3 to 4e13; at
    # L = 64 it is about 0.72 / gap, so the cases straddle the threshold 5e11.
    @pytest.mark.parametrize("l_dim", [2, 64])
    @pytest.mark.parametrize("gap", [1e-3, 1e-11, 3e-12, 1e-12, 3e-13, 1e-13])
    def test_clustered_phases_straddle_the_threshold(self, l_dim, gap, linalg_calls):
        phases = jittered_phases(l_dim)
        phases[1] = phases[0] + gap
        ts = add_noise(generate_clean(fig6_spectrum(), l_dim + 1), 0.005, 1)
        b = np.exp(-1j * np.outer(np.arange(l_dim), phases))
        s = np.linalg.svd(b, compute_uv=False)
        bound = np.sqrt(np.sum(s**2) * np.sum(s**-2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = solve_amplitudes(phases, ts, np.ones(l_dim))
        if linalg_calls["lstsq"]:
            # Rejected only near or above the threshold 0.5 / SVD_RCOND.
            assert bound >= 0.45 / SVD_RCOND
        elif bound >= 0.55 / SVD_RCOND:
            pytest.fail("accepted a system well above the threshold")
        else:
            assert np.all(s > SVD_RCOND * s[0])
            assert fit.residual <= l_dim * UNIT_ROUNDOFF * l_dim * np.linalg.norm(fit.amplitudes)
        assert np.all(np.isfinite(fit.amplitudes))

    # Two equal eigenphases, a node on the grid point zeta_1 = exp(3i pi / 8)
    # of L = 8 (phase -3 pi / 8), and a zeroed column: each is solved by the
    # closed form or by lstsq, finite and without a floating-point warning.
    @pytest.mark.parametrize("case", ["duplicate", "on-grid", "zeroed"])
    def test_degenerate_systems_stay_finite(self, case, linalg_calls):
        spec = fig6_spectrum()
        phases, moduli = np.append(spec.lambdas, [0.7, -1.1, 2.0]), np.ones(8)
        if case == "duplicate":
            phases[5] = phases[2]
        elif case == "on-grid":
            phases[5] = -3 * np.pi / 8
        else:
            moduli[5] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                fit = solve_amplitudes(phases, generate_clean(spec, 9), moduli)
        assert np.all(np.isfinite(fit.amplitudes))
        assert fit.residual <= 1e-12
        if case != "on-grid":
            assert linalg_calls["lstsq"] == [(8, 8)]

    # One row block (L = 1), B = 8 rows filling A = 8 blocks (L = 64), a
    # padded last block (L = 65) and fig5's L = 565 (B = A = 24, padded).
    @pytest.mark.parametrize("l_dim", [1, 64, 65, 565])
    def test_split_vandermonde_matches_direct_exp(self, l_dim, monkeypatch):
        rng = np.random.default_rng(l_dim)
        phases = rng.uniform(-np.pi, np.pi, l_dim)
        moduli = np.ones(l_dim)
        moduli[1::7] = 1e-13  # zeroed columns: at most SVD_RCOND times the largest
        ts = add_noise(generate_clean(fig6_spectrum(), l_dim + 1), 0.005, 1)
        lstsq, systems = np.linalg.lstsq, []
        spy = lambda m, y, rcond: systems.append((m.copy(), y.copy())) or lstsq(m, y, rcond=rcond)
        monkeypatch.setattr(np.linalg, "lstsq", spy)
        # The zeroed columns send the system to lstsq, which gets b and the
        # target; L = 1 has no column to zero, so its closed form is refused.
        if l_dim == 1:
            monkeypatch.setattr(matrix_pencil, "_lagrange_solve", lambda *args: None)
        solve_amplitudes(phases, ts, moduli)
        [(system, target)] = systems
        assert system.shape == (l_dim, l_dim)
        assert np.array_equal(target, ts.values[:l_dim])
        # exp(-i p a B) exp(-i p r) against exp(-i p l), l = a B + r: the
        # rounded arguments p a B, p r and p l are each off by at most u times
        # their size, so together by 2 u |p| l, and |exp(iy) - exp(iy')| <=
        # |y - y'|. The three exps and the complex product add a few u more;
        # 16 u covers them.
        rows = np.arange(l_dim)[:, None]
        direct = np.exp(-1j * np.outer(np.arange(l_dim), phases))
        direct[:, moduli <= SVD_RCOND] = 0.0
        tol = (2 * np.abs(phases) * rows + 16) * UNIT_ROUNDOFF
        assert np.all(np.abs(system - direct) <= tol)
        assert np.all(system[:, 1::7] == 0)

    def test_duplicate_phases_finite_solution(self):
        ts = generate_clean(point_mass(0.1), 6)
        fit = solve_amplitudes(np.array([0.1, 0.1, 0.1]), ts, np.ones(3))
        assert np.all(np.isfinite(fit.amplitudes))
        assert fit.rank < 3
        assert fit.residual <= 1e-10

    def test_zero_eigenvalues_get_no_amplitude(self):
        # A rank-deficient pencil's zero eigenvalues have rounding-noise phases;
        # one that lands on a line would split its weight as in the duplicate
        # case above, so it gets none.
        ts = generate_clean(point_mass(0.2), 4)
        fit = solve_amplitudes(np.array([0.2, 0.2]), ts, np.array([1.0, 1e-17]))
        assert fit.amplitudes == pytest.approx([1.0, 0.0], abs=1e-12)
        assert fit.rank == 1
        assert fit.residual <= 1e-12

    def test_length_validation(self):
        ts = generate_clean(fig6_spectrum(), 4)
        with pytest.raises(ValueError, match=r"^l_dim must lie in \[1, 4\], got 5"):
            solve_amplitudes(np.arange(5.0), ts, np.ones(5))
        with pytest.raises(ValueError, match=r"^moduli must be a finite 1-d array of length 2, "):
            solve_amplitudes(np.array([0.1, 0.2]), ts, np.ones(3))

    def test_nan_eigenphase_never_reaches_lapack(self, capfd):
        # Passed on, the NaN makes LAPACK's argument checks print to fd 2 and
        # the least-squares SVD fail to converge.
        ts = generate_clean(fig6_spectrum(), 20)
        with pytest.raises(ValueError, match="^eigenphases must .* with a non-finite entry$"):
            solve_amplitudes([math.nan, 0.2], ts, [1.0, 1.0])
        assert capfd.readouterr().err == ""


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

    def test_default_dimension_past_the_memory_ceiling_fails_before_any_work(self, usage):
        # At N = 12 000 the default L = N - 1 needs a 24.68 GiB pencil.
        ts = generate_clean(fig6_spectrum(), 12_000)
        message = r"^l_dim must keep the pencil within 1 GiB, got 11999 for 12000 entries"
        with usage() as used, pytest.raises(ValueError, match=message):
            mp_estimate(ts)
        assert used["seconds"] < 1.0 and used["peak_bytes"] < 2**20
        assert _pencil_dimension(12_000, 64) == 64

    def test_l_dim_is_kept_as_a_python_int(self):
        # l_dim is the entry count, so the record cannot contradict itself.
        est = MpEstimate([0.0, 0.1], [0.5, 0.5], [1.0, 1.0], 0.0)
        assert type(est.l_dim) is int and est.to_dict()["l_dim"] == 2

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match=r"^amplitudes must be a finite 1-d array of length 2"):
            MpEstimate(
                eigenphases=[0.1, 0.2], amplitudes=[0.5], moduli=[1.0, 1.0], residual=0.0
            )

    def test_copies_the_callers_arrays(self):
        ph, amp, mod = np.array([0.1, 0.2]), np.array([0.5, 0.5 + 0j]), np.ones(2)
        est = MpEstimate(ph, amp, mod, 0.0)
        # The record's arrays are read-only copies; the caller's stay writable.
        ph[0], amp[0], mod[0] = 0.3, 0.0, 2.0
        assert est.eigenphases[0] == 0.1 and est.amplitudes[0] == 0.5 and est.moduli[0] == 1.0
        assert not est.eigenphases.flags.writeable


class TestPencilDimension:
    # The pair stack of `_real_factor` takes 16*(L+1)*((2N-L-1)//2) bytes;
    # the ceiling charges 16 bytes for each of `_pencil_entries`.
    @pytest.mark.parametrize(
        "n_len, l_dim, pair_bytes, pencil_bytes",
        [
            (566, 565, 2_562_848, 58_963_616),  # paper-default fig5: 56 MiB
            (4469, 64, 4_613_440, 8_208_208),  # the trials benchmark: 7.8 MiB
            (95_896, 64, 99_697_520, 129_988_972),  # STRICT eps = 0.005 at L = 64: 124 MiB
        ],
    )
    def test_documented_pencils_fit_under_the_ceiling(self, n_len, l_dim, pair_bytes,
                                                      pencil_bytes):
        assert 16 * (l_dim + 1) * ((2 * n_len - l_dim - 1) // 2) == pair_bytes
        assert 16 * matrix_pencil._pencil_entries(n_len, l_dim) == pencil_bytes
        assert pencil_bytes <= matrix_pencil._MAX_PENCIL_BYTES
        assert _pencil_dimension(n_len, l_dim) == l_dim

    def test_ceiling_admits_exactly_the_pencils_within_it(self):
        # At N = 12 000 the pencils within 1 GiB are L = 1 .. 1399: the largest
        # is accepted and the next one is rejected.
        n_len = 12_000
        sizes = [16 * matrix_pencil._pencil_entries(n_len, dim) for dim in range(1, n_len)]
        last = max(dim for dim, size in enumerate(sizes, 1) if size <= 2**30)
        assert last == 1399 and max(sizes[:last]) <= 2**30 < min(sizes[last:])
        assert _pencil_dimension(n_len, last) == last
        with pytest.raises(ValueError, match=f"got {last + 1} for 12000 entries"):
            _pencil_dimension(n_len, last + 1)

    def test_square_pencils_pass_the_ceiling_from_n_2416(self):
        square = [16 * matrix_pencil._pencil_entries(n, n - 1) <= 2**30 for n in (2415, 2416)]
        assert square == [True, False]

    # Square pencils, noisy (certified, companion roots) and clean (rank 5,
    # SVD core), wide ones as in the trials benchmark (blocked), with no row
    # block, and with one block and 519 rows left over, and noisy pencils sent
    # down the SVD path at full rank, the most a pencil of its shape holds.
    # The process, not numpy's arrays, is measured: LAPACK's workspace and
    # pages the allocator keeps count.
    @pytest.mark.parametrize(
        "n_len, l_dim, eps_prime, certify, largest",
        [(566, 565, 0.005, True, False), (566, 565, 0.0, True, False),
         (4469, 64, 1e-5, True, True), (566, 565, 0.005, False, True),
         (3000, 365, 1e-5, True, True), (1072, 64, 1e-5, True, False),
         (1072, 64, 1e-5, False, True)],
        ids=["square-noisy", "square-clean", "wide-noisy", "square-full-rank", "wide-unblocked",
             "wide-leftover", "wide-leftover-full-rank"],
    )
    def test_pencil_bytes_bound_the_measured_peak(self, n_len, l_dim, eps_prime, certify,
                                                  largest, process_growth):
        setup = f"""
        from qeep import add_noise, generate_clean, matrix_pencil, mp_estimate, random_spectrum
        from qeep.cli import NOISE_SEED_OFFSET
        mp_estimate(generate_clean(random_spectrum(5, 1), 40))  # pages in the SVD path's code
        ts = generate_clean(random_spectrum(5, 1), {n_len})
        if {eps_prime}:
            ts = add_noise(ts, {eps_prime}, 1 + NOISE_SEED_OFFSET)
        if not {certify}:
            matrix_pencil._certified_inverse = lambda r: None
        """
        growth = process_growth(setup, f"mp_estimate(ts, {l_dim})")
        need = 16 * matrix_pencil._pencil_entries(n_len, l_dim)
        assert growth <= need
        # The count is within a factor of two of the largest path of its shape.
        assert need <= 2 * growth or not largest


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

    @pytest.mark.parametrize("s", [-1, 65])
    def test_order_outside_the_moment_range_rejected(self, s):
        est = mp_estimate(generate_clean(fig6_spectrum(), 12), 6)
        with pytest.raises(ValueError, match=r"moment order s must lie in \[0, 64\]"):
            mp_moment(est, s)

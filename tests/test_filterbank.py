import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from qeep import (
    Spectrum,
    TruncationMode,
    bin_centers,
    build_filterbank,
    bump,
    bump_fourier,
    choose_truncation,
    decay_onset,
    filter_values,
    tail_bound,
    truncated_bins,
)
from qeep.filterbank import BUMP_NORM, SQRT_2PI, _radial, _snap_eps


def _bump_scalar(x: float) -> float:
    if abs(x) >= 1.0:
        return 0.0
    return BUMP_NORM * math.exp(-1.0 / (1.0 - x * x))


def quad_filter(j: int, x: float, eps: float) -> float:
    """Oracle filter value ``f_j(x)``: adaptive quadrature of the unit bump
    over the intersection of ``[-1, 1]`` with bin j's window in bump units.

    Asked for 1e-13 relative, QUADPACK warns that roundoff stops it short of
    that, but it agrees with the Gauss-Legendre CDF to about 1e-15 on bin
    windows of eps = 0.25 and 0.05; its default epsrel (1.5e-8) left errors
    of 3e-10."""
    c = 2.0 * ((-0.5 + j * eps) - x) / eps
    lo, hi = max(-1.0, c - 1.0), min(1.0, c + 1.0)
    if hi <= lo:
        return 0.0
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "The occurrence of roundoff", IntegrationWarning)
        val, _ = quad(_bump_scalar, lo, hi, epsabs=1e-15, epsrel=1e-13)
    return val


def coefficient(j: int, k: int, eps: float) -> complex:
    """Closed form ``F_j(k) = 2*H(k*eps/2)*sin(k*eps/2)/k * exp(-i*center_j*k)``,
    with the limit ``eps*H(0)`` at ``k = 0``, for any integer k."""
    kp = k * eps / 2.0
    radial = eps * bump_fourier(0.0) if k == 0 else 2.0 * bump_fourier(kp) * math.sin(kp) / k
    phase = bin_centers(eps)[j] * k
    return radial * complex(math.cos(phase), -math.sin(phase))


def quad_bump_fourier(kp: float) -> float:
    """Oracle for the bump transform: adaptive oscillatory-weight quadrature
    (QUADPACK QAWO) with absolute error below 1e-13."""
    kp = abs(float(kp))
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        if kp == 0.0:
            val, _ = quad(_bump_scalar, -1.0, 1.0, epsabs=1e-13)
        else:
            val, _ = quad(
                _bump_scalar, -1.0, 1.0, weight="cos", wvar=kp, epsabs=1e-13, limit=500
            )
    return val / SQRT_2PI


def quad_radial(ks, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Oracle ``(H(k*eps/2), radial(k))`` for integer ``ks``: radial is
    ``2*H(k*eps/2)*sin(k*eps/2)/k``, and ``eps*H(0)`` at ``k = 0``."""
    ks = np.asarray(ks)
    h = np.array([quad_bump_fourier(k * eps / 2.0) for k in ks])
    safe = np.where(ks == 0, 1, ks)
    return h, np.where(ks == 0, eps * h, 2.0 * h * np.sin(ks * eps / 2.0) / safe)


class TestBump:
    def test_compact_support(self):
        assert bump(1.0) == 0.0
        assert bump(-1.0) == 0.0
        assert bump(2.0) == 0.0

    def test_center_value(self):
        assert bump(0.0) == pytest.approx(BUMP_NORM * math.exp(-1.0), rel=1e-14)

    def test_even_symmetry(self):
        assert bump(0.3) == bump(-0.3)

    def test_array_input(self):
        xs = np.array([-2.0, -0.5, 0.0, 0.5, 1.0])
        vals = bump(xs)
        assert vals[0] == 0.0 and vals[-1] == 0.0
        assert vals[1] == vals[3]


class TestBumpNorm:
    def test_reference_band(self):
        assert 2.24 <= BUMP_NORM <= 2.26

    def test_against_dense_trapezoid_oracle(self):
        # Independent reference: 20001-node trapezoid; the integrand is smooth
        # with all derivatives vanishing at the endpoints, so this converges
        # far past 1e-6.
        xs = np.linspace(-1.0, 1.0, 20_001)
        with np.errstate(divide="ignore", over="ignore"):
            ys = np.where(np.abs(xs) < 1.0, np.exp(-1.0 / (1.0 - xs**2)), 0.0)
        oracle = 1.0 / np.trapezoid(ys, xs)
        assert BUMP_NORM == pytest.approx(oracle, abs=1e-6)
        assert BUMP_NORM == pytest.approx(2.252283621, abs=1e-6)

    def test_literal_matches_adaptive_quadrature(self):
        # The frozen constant is the double 1/quad(...) returns; another
        # QUADPACK build may round the integral differently, so allow 2 ulp.
        val, _ = quad(
            lambda x: math.exp(-1.0 / (1.0 - x * x)), -1.0, 1.0, epsabs=1e-14, epsrel=1e-13
        )
        assert abs(BUMP_NORM - 1.0 / val) <= 2 * math.ulp(BUMP_NORM)
        assert BUMP_NORM == 2.2522836210435813

    def test_normalizes_bump_to_unit_mass(self):
        xs = np.linspace(-1.0, 1.0, 20_001)
        assert np.trapezoid(bump(xs), xs) == pytest.approx(1.0, abs=1e-9)


class TestBumpFourier:
    def test_zero_frequency_value(self):
        assert bump_fourier(0.0) == pytest.approx(1.0 / SQRT_2PI, abs=1e-9)

    def test_even_in_frequency(self):
        assert bump_fourier(-5.0) == bump_fourier(5.0)

    def test_bounded_by_zero_frequency_value(self):
        for kp in (0.5, 1.0, 3.0, 7.5, 40.0):
            assert abs(bump_fourier(kp)) <= bump_fourier(0.0) + 1e-15

    def test_decay_bound_on_scan(self):
        for kp in np.arange(10.0, 201.0, 10.0):
            assert abs(bump_fourier(kp)) <= math.exp(-math.sqrt(kp))

    def test_decay_onset_recorded(self):
        assert decay_onset() == 10.0

    def test_array_input_matches_scalar_calls(self):
        kps = np.array([0.0, -3.0, 12.5, 40.0])
        vals = bump_fourier(kps)
        assert vals.shape == kps.shape
        for kp, v in zip(kps, vals):
            assert v == pytest.approx(bump_fourier(float(kp)), abs=1e-15)

    def test_against_dense_cosine_trapezoid_oracle(self):
        xs = np.linspace(-1.0, 1.0, 40_001)
        for kp in (0.0, 2.5, 10.0):
            oracle = np.trapezoid(bump(xs) * np.cos(kp * xs), xs) / SQRT_2PI
            assert bump_fourier(kp) == pytest.approx(oracle, abs=1e-9)


class TestFilterCoefficient:
    """The coefficients ``F_j(k)``, read from ``bank.row(j)``."""

    def test_zero_frequency_coefficient(self):
        for eps in (0.25, 0.005):
            for j in (0, 2):
                assert build_filterbank(eps, 2).row(j)[0] == pytest.approx(
                    eps / SQRT_2PI, abs=1e-10
                )

    def test_conjugate_symmetry(self):
        # F_j(-k) = radial(-k) * exp(i*center_j*k) = conj(F_j(k)) because the
        # radial profile is real and even.
        bank = build_filterbank(0.25, 41)
        for j, k in ((0, 1), (2, 7), (4, 40)):
            assert _radial(-k, 0.25) == _radial(k, 0.25)
            f_minus = _radial(-k, 0.25) * np.exp(1j * bank.centers[j] * k)
            assert f_minus == pytest.approx(bank.row(j)[k].conjugate(), abs=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(k=st.integers(0, 20_000), inv=st.integers(1, 400))
    def test_radial_is_even_property(self, k, inv):
        assert _radial(-k, 1.0 / inv) == _radial(k, 1.0 / inv)

    def test_matches_transform_of_quadrature_filter(self):
        # Independent route: integrate the quadrature-evaluated filter against
        # the Fourier kernel directly, with no use of the closed form.
        eps, j = 0.25, 2
        center = bin_centers(eps)[j]
        lo, hi = center - eps, center + eps
        row = build_filterbank(eps, 6).row(j)
        for k in (0, 1, 5):
            re, _ = quad(lambda x: quad_filter(j, x, eps) * math.cos(k * x), lo, hi, epsabs=1e-11)
            im, _ = quad(
                lambda x: -quad_filter(j, x, eps) * math.sin(k * x), lo, hi, epsabs=1e-11
            )
            oracle = (re + 1j * im) / SQRT_2PI
            assert row[k] == pytest.approx(oracle, abs=1e-9)

    def test_sharp_magnitude_cap(self, bank_appc):
        # |F_j(k)| <= eps/sqrt(2*pi) for every (j, k), attained at k = 0.
        cap = bank_appc.eps / SQRT_2PI + 1e-12
        assert max(np.max(np.abs(bank_appc.row(j))) for j in range(bank_appc.m_bins)) <= cap
        assert abs(bank_appc.row(0)[0]) == pytest.approx(bank_appc.eps / SQRT_2PI, abs=1e-12)

    def test_bin_index_out_of_range(self):
        with pytest.raises(ValueError):
            build_filterbank(0.25, 2).row(5)

    def test_fractional_bin_count_rejected(self):
        with pytest.raises(ValueError):
            build_filterbank(0.24, 2)


class TestEvaluateFilter:
    """Filter values ``f_j(x)`` from :func:`filter_values`."""

    def test_unit_value_at_bin_center(self):
        for eps, j in ((0.25, 2), (0.005, 100)):
            center = bin_centers(eps)[j]
            assert filter_values([center], eps)[j, 0] == pytest.approx(1.0, abs=1e-9)

    def test_exact_zero_at_and_beyond_support_edge(self):
        eps, j = 0.25, 2
        center = bin_centers(eps)[j]
        xs = [center - eps, center + eps, center + 2 * eps, -10.0]
        assert np.all(filter_values(xs, eps)[j] == 0.0)

    def test_adjacent_filters_sum_to_one_in_overlap(self):
        eps, j = 0.25, 1
        centers = bin_centers(eps)
        table = filter_values(np.linspace(centers[j], centers[j + 1], 20), eps)
        for total in table[j] + table[j + 1]:
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_non_negative_everywhere(self):
        table = filter_values(np.linspace(-0.5, 0.5, 41), 0.25)
        assert np.all(table >= -1e-12)

    def test_partition_of_unity_on_grid(self):
        table = filter_values(np.linspace(-0.5, 0.5, 201), 0.25)
        assert np.max(np.abs(table.sum(axis=0) - 1.0)) <= 1e-9

    def test_bin_index_out_of_range(self):
        bank = build_filterbank(0.25, 2)
        for j in (9, -1):
            with pytest.raises(ValueError):
                bank.row(j)

    @pytest.mark.parametrize("x", [[0.1, math.nan], [math.inf], [[0.0]]])
    def test_bad_points_rejected(self, x):
        with pytest.raises(ValueError):
            filter_values(x, 0.25)

    @pytest.mark.parametrize("eps", [0.25, 0.05, 0.005])
    def test_matches_quadrature_oracle(self, eps):
        xs = np.concatenate(
            [np.linspace(-0.5, 0.5, 201), np.random.default_rng(11).uniform(-0.5, 0.5, 100)]
        )
        table = filter_values(xs, eps)
        centers = bin_centers(eps)
        assert table.shape == (centers.size, xs.size)
        support = np.abs(centers[:, None] - xs) < eps
        assert np.all(table[~support] == 0.0)
        oracle = [quad_filter(j, xs[i], eps) for j, i in zip(*np.nonzero(support))]
        assert np.max(np.abs(table[support] - oracle)) <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(
        inv=st.integers(1, 400),
        xs=st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=20),
    )
    def test_partition_support_and_center_property(self, inv, xs):
        eps = 1.0 / inv
        centers = bin_centers(eps)
        table = filter_values(xs, eps)
        assert np.max(np.abs(table.sum(axis=0) - 1.0)) <= 1e-15
        assert np.all(table >= 0.0)
        assert np.all(table[np.abs(centers[:, None] - np.asarray(xs)) >= eps] == 0.0)
        assert np.all(np.diag(filter_values(centers, eps)) == 1.0)


def series(bank, x: float) -> np.ndarray:
    """Truncated Fourier series of every bin filter at ``x``: the estimator's
    own sum applied to the one-line signal ``g_k = exp(-i*x*k)``."""
    return truncated_bins(Spectrum(lambdas=[x], weights=[1.0]), bank).values


class TestEvaluateFilterSeries:
    def test_center_value_against_quadrature(self):
        # At N = 200 the truncated series sits ~1.3e-4 off the exact value.
        bank = build_filterbank(0.25, 200)
        oracle = filter_values([0.0], 0.25)[2, 0]
        assert series(bank, 0.0)[2] == pytest.approx(oracle, abs=2e-4)

    def test_matches_quadrature_tightly_at_strict_truncation(self, bank_quarter_strict):
        bank = bank_quarter_strict
        xs = [-0.4, -0.1, 0.0, 0.23]
        table = filter_values(xs, bank.eps)
        for i, x in enumerate(xs):
            values = series(bank, x)
            for j in (0, 2, 4):
                assert values[j] == pytest.approx(table[j, i], abs=1e-5)

    def test_unsymmetrized_sum_is_real(self, bank_quarter_strict):
        # Materializing the negative-k half explicitly must cancel the
        # imaginary parts to rounding level.
        bank = bank_quarter_strict
        j, x = 1, 0.13
        ks = np.arange(1, bank.n_trunc)
        row = bank.row(j)
        total = row[0] + np.sum(row[1:] * np.exp(1j * x * ks)) + np.sum(
            np.conj(row[1:]) * np.exp(-1j * x * ks)
        )
        assert abs(total.imag) <= 1e-12
        assert total.real / SQRT_2PI == pytest.approx(series(bank, x)[j], abs=1e-12)

    def test_lines_superpose(self, bank_quarter_strict):
        # The estimator is linear in the signal, so on a multi-line spectrum
        # it is the weighted sum of the one-line series.
        bank = bank_quarter_strict
        xs = np.linspace(-0.5, 0.5, 7)
        weights = np.arange(1.0, 8.0) / 28.0
        spec = Spectrum(lambdas=xs, weights=weights)
        expected = sum(w * series(bank, float(x)) for x, w in zip(xs, weights))
        assert np.max(np.abs(truncated_bins(spec, bank).values - expected)) <= 1e-12

    @pytest.mark.parametrize("bank_name", ["bank_quarter_strict", "bank_mid_strict"])
    def test_partition_of_unity_at_strict_order(self, request, bank_name):
        bank = request.getfixturevalue(bank_name)

        @settings(max_examples=200, deadline=None)
        @given(x=st.floats(-0.5, 0.5))
        def check(x):
            assert abs(series(bank, x).sum() - 1.0) <= bank.eps / (2 * bank.m_bins)

        check()


class TestTailBound:
    def test_reference_value(self):
        # 4*exp(-sqrt(y))*(1+sqrt(y)) at y = 565*0.005/2, written out directly.
        y = 565 * 0.005 / 2.0
        reference = 4.0 * math.exp(-math.sqrt(y)) * (1.0 + math.sqrt(y))
        assert tail_bound(566, 0.005) == pytest.approx(reference, rel=1e-15)
        assert tail_bound(566, 0.005) == pytest.approx(2.667, abs=2e-3)

    def test_strictly_decreasing_in_truncation_order(self):
        values = [tail_bound(n, 0.005) for n in (100, 200, 400, 800, 1600)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestChooseTruncation:
    def test_empirical_reference_points(self):
        assert choose_truncation(0.005) == 566
        assert choose_truncation(0.01) == 216

    def test_empirical_formula_directly(self):
        m = 101
        assert choose_truncation(0.01) == math.ceil(math.log(m) ** 2 * m / 10)

    def test_strict_matches_independent_bisection(self):
        for eps in (0.25, 0.05, 0.005):
            m = 1 + round(1 / eps)
            target = eps / (2 * m)
            n = 2
            while tail_bound(n, eps) > target:
                n += 1 + n // 8  # coarse upward scan
            while tail_bound(n - 1, eps) <= target:
                n -= 1
            assert choose_truncation(eps, TruncationMode.STRICT) == n

    def test_strict_reference_band(self):
        n = choose_truncation(0.005, TruncationMode.STRICT)
        assert 9e4 <= n <= 1.1e5

    def test_strict_order_is_past_decay_onset(self):
        # tail_bound holds only from the decay onset on; STRICT never stops
        # short of it (the smallest margin, y = 20.5 against 10, is at eps = 1).
        onset = decay_onset()
        for inv in range(1, 201):
            eps = 1.0 / inv
            n = choose_truncation(eps, TruncationMode.STRICT)
            assert (n - 1) * eps / 2.0 >= onset, inv


class TestBuildFilterBank:
    def test_zero_column_value(self):
        bank = build_filterbank(0.25, 50)
        assert bank.m_bins == 5
        zero_column = [bank.row(j)[0] for j in range(bank.m_bins)]
        assert np.allclose(zero_column, 0.25 / SQRT_2PI, atol=1e-10)

    def test_rebuild_is_bit_identical(self):
        a = build_filterbank(0.25, 64)
        b = build_filterbank(0.25, 64)
        assert np.array_equal(a.radial, b.radial)

    def test_table_matches_scalar_coefficients(self):
        bank = build_filterbank(0.25, 32)
        for j in (0, 3):
            for k in (0, 1, 17):
                assert bank.row(j)[k] == pytest.approx(coefficient(j, k, 0.25), abs=1e-13)

    def test_negative_k_available_through_conjugation(self):
        bank = build_filterbank(0.25, 32)
        assert np.conj(bank.row(2)[5]) == pytest.approx(coefficient(2, -5, 0.25), abs=1e-13)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_filterbank(0.24, 16)
        with pytest.raises(ValueError):
            build_filterbank(0.25, 1)

    def test_appc_dimensions(self, bank_appc):
        assert bank_appc.m_bins == 201
        assert bank_appc.radial.shape == (566,)
        assert bank_appc.row(200).shape == (566,)
        assert bank_appc.centers.shape == (201,)

    def test_appc_build_time_within_budget(self):
        import time

        start = time.perf_counter()
        build_filterbank(0.005, 566)
        assert time.perf_counter() - start < 60.0


class TestRadialAgainstQuadrature:
    """The trapezoid transform behind every bank against the quadrature oracle."""

    def test_every_k_at_strict_orders(self, bank_quarter_strict, bank_mid_strict):
        for bank in (bank_quarter_strict, bank_mid_strict):
            ks = np.arange(bank.n_trunc)
            h, radial = quad_radial(ks, bank.eps)
            assert np.max(np.abs(bank.radial - radial)) <= 1e-12
            assert np.max(np.abs(bump_fourier(ks * bank.eps / 2.0) - h)) <= 1e-12

    def test_sample_at_paper_strict_order(self, bank_paper_strict):
        bank = bank_paper_strict
        ks = np.unique(np.linspace(0, bank.n_trunc - 1, 400).astype(int))
        assert ks[-1] == bank.n_trunc - 1
        assert np.max(np.abs(bank.radial[ks] - quad_radial(ks, bank.eps)[1])) <= 1e-12

    def test_sample_far_past_strict_frequencies(self):
        # kp reaches 1000 here, against 240 at the paper's strict order.
        bank = build_filterbank(0.25, 8001)
        ks = np.unique(np.linspace(0, bank.n_trunc - 1, 200).astype(int))
        assert ks[-1] * bank.eps / 2.0 == 1000.0
        assert np.max(np.abs(bank.radial[ks] - quad_radial(ks, bank.eps)[1])) <= 1e-12


class TestEpsSnapping:
    def test_near_integral_inverse_gives_exact_last_center(self):
        eps = 0.0050000049
        assert bin_centers(eps)[-1] == 0.5
        assert bin_centers(eps).size == 201
        assert build_filterbank(eps, 8).eps == 0.005

    def test_exact_inverses_keep_their_bits(self):
        for eps in (0.25, 0.05, 0.005):
            assert 1.0 / round(1.0 / eps) == eps
            assert _snap_eps(eps) == eps
            assert build_filterbank(eps, 4).eps == eps
            assert np.array_equal(bin_centers(eps), -0.5 + eps * np.arange(1 + round(1 / eps)))


def test_filter_grid_support_structure():
    xs = np.linspace(-0.5, 0.5, 101)
    table = filter_values(xs, 0.25)
    assert table.shape == (5, 101)
    centers = bin_centers(0.25)
    for j in range(5):
        outside = np.abs(xs - centers[j]) >= 0.25
        assert np.all(table[j, outside] == 0.0)

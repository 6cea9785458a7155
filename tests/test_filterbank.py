import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from qeep import (
    FilterBank,
    Spectrum,
    TruncationMode,
    bin_centers,
    build_filterbank,
    bump,
    bump_fourier,
    choose_truncation,
    exact_bins,
    fig6_spectrum,
    filter_values,
    tail_bound,
    truncated_bins,
)
from qeep.filterbank import BUMP_NORM, SQRT_2PI, _radial, _snap_eps, _trapezoid_rule


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
        # Step 0.1 over [10, 900], past y = 239.74, the largest of any STRICT
        # order for 1/eps <= 200 (test_strict_order_is_past_decay_onset); the
        # largest ratio is 0.367, at kp = 10.7.
        kps = np.linspace(10.0, 900.0, 8901)
        assert np.all(np.abs(bump_fourier(kps)) <= np.exp(-np.sqrt(kps)))

    def test_decay_onset_recorded(self):
        # tail_bound's docstring records the onset, y = 10, which is the
        # first frequency of the scan above, where the bound already holds.
        assert "``y >= 10``" in tail_bound.__doc__
        assert abs(bump_fourier(10.0)) <= math.exp(-math.sqrt(10.0))

    def test_decay_onset_of_a_given_scan(self):
        # The scan above starts past the onset; a unit-step scan finds it
        # inside: the bound fails at kp = 1, 2, 3 and holds for good from 4.
        kps = np.arange(1.0, 901.0)
        holds = np.abs(bump_fourier(kps)) <= np.exp(-np.sqrt(kps))
        assert kps[~holds].tolist() == [1.0, 2.0, 3.0]

    def test_array_input_matches_scalar_calls(self):
        kps = np.array([0.0, -3.0, 12.5, 40.0])
        vals = bump_fourier(kps)
        assert vals.shape == kps.shape
        for kp, v in zip(kps, vals):
            assert v == pytest.approx(bump_fourier(float(kp)), abs=1e-15)

    @pytest.mark.parametrize("kps", [[], np.zeros((2, 0))], ids=["empty", "two-by-zero"])
    def test_empty_input_gives_empty_output(self, kps):
        assert bump_fourier(kps).shape == bump(kps).shape == np.shape(kps)

    def test_against_dense_cosine_trapezoid_oracle(self):
        xs = np.linspace(-1.0, 1.0, 40_001)
        for kp in (0.0, 2.5, 10.0):
            oracle = np.trapezoid(bump(xs) * np.cos(kp * xs), xs) / SQRT_2PI
            assert bump_fourier(kp) == pytest.approx(oracle, abs=1e-9)

    # Bank frequencies k*eps/2, k < N: the paper's STRICT order, the trials
    # workload's, and one whose kp reaches 1000, past the decay scan's 900.
    @pytest.mark.parametrize("eps, n_trunc", [(0.005, 95_896), (0.05, 4_469), (0.25, 8_001)])
    def test_aliases_are_below_rounding(self, eps, n_trunc):
        # One far frequency appended to the input doubles the panel count, so
        # every alias of _trapezoid_rule moves twice as far past its floor.
        # H then moves by rounding only: at most 2*sqrt(panels) ulp of H(0)
        # (8.1, 4.0 and 28.3 ulp measured, against 44.3, 42.4 and 54.1).
        kps = np.arange(n_trunc) * eps / 2.0
        kp_max = float(kps[-1])
        half = _trapezoid_rule(kp_max)[0]
        far = 2.0 * kp_max + math.log(1.0 / np.finfo(float).eps) ** 2
        assert _trapezoid_rule(far)[0] == 2 * half
        worst = 0.0
        for chunk in np.array_split(kps, -(-n_trunc // 4096)):
            own, doubled = (bump_fourier(np.append(chunk, kp))[:-1] for kp in (kp_max, far))
            worst = max(worst, float(np.max(np.abs(own - doubled))))
        assert worst <= 2.0 * math.sqrt(2 * half) * math.ulp(bump_fourier(0.0))


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

    def test_sharp_magnitude_cap(self, bank_paper):
        # |F_j(k)| <= eps/sqrt(2*pi) for every (j, k), attained at k = 0.
        cap = bank_paper.eps / SQRT_2PI + 1e-12
        assert max(np.max(np.abs(bank_paper.row(j))) for j in range(bank_paper.m_bins)) <= cap
        assert abs(bank_paper.row(0)[0]) == pytest.approx(bank_paper.eps / SQRT_2PI, abs=1e-12)

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

    def test_zero_order_rejected(self):
        with pytest.raises(ValueError, match=r"n_trunc must lie in \[1, "):
            tail_bound(0, 0.005)


class TestChooseTruncation:
    def test_empirical_reference_points(self):
        assert choose_truncation(0.005) == 566
        assert choose_truncation(0.01) == 216

    def test_empirical_formula_directly(self):
        m = 101
        assert choose_truncation(0.01) == math.ceil(math.log(m) ** 2 * m / 10)

    def test_empirical_order_is_at_least_two(self):
        # The formula gives 1 for M = 2 and 3 bins, below the bank's least order.
        for eps in (1.0, 0.5):
            assert choose_truncation(eps) == 2
            assert build_filterbank(eps, choose_truncation(eps)).n_trunc == 2

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

    def test_mode_must_be_the_enum(self):
        with pytest.raises(ValueError, match="unknown truncation mode"):
            choose_truncation(0.005, "strict")

    def test_integer_order_is_returned(self):
        assert choose_truncation(0.005, 700) == 700
        order = choose_truncation(0.005, np.int64(700))
        assert order == 700 and type(order) is int

    @pytest.mark.parametrize("mode", [True, 700.0])
    def test_order_that_is_not_an_integer_rejected(self, mode):
        with pytest.raises(ValueError, match="unknown truncation mode"):
            choose_truncation(0.005, mode)

    def test_strict_reference_band(self):
        n = choose_truncation(0.005, TruncationMode.STRICT)
        assert 9e4 <= n <= 1.1e5

    def test_strict_order_is_past_decay_onset(self):
        # tail_bound holds only from the decay onset kp = 10 on (its
        # docstring); STRICT never stops short of it (the smallest margin,
        # y = 20.5 against 10, is at eps = 1), nor goes past the decay scan's
        # 900 (the largest y is 239.74, at eps = 1/200). Each is the least
        # order of at least 2 whose bound meets eps / (2*M).
        for inv in range(1, 201):
            eps = 1.0 / inv
            n = choose_truncation(eps, TruncationMode.STRICT)
            assert 10.0 <= (n - 1) * eps / 2.0 <= 900.0, inv
            target = eps / (2 * (1 + inv))
            assert tail_bound(n, eps) <= target, inv
            assert n == 2 or target < tail_bound(n - 1, eps), inv


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
        # The bin sums take at least one term k >= 1.
        with pytest.raises(ValueError, match=r"n_trunc must lie in \[2, "):
            FilterBank(eps=0.25, radial=[0.1])
        with pytest.raises(ValueError, match=r"^radial must be a finite 1-d array of length at "):
            FilterBank(eps=0.25, radial=np.zeros((2, 3)))

    def test_copies_the_callers_array(self):
        radial = np.array([0.1, 0.2, 0.3])
        bank = FilterBank(eps=0.25, radial=radial)
        radial[0] = 0.5
        assert bank.radial[0] == 0.1
        assert not bank.radial.flags.writeable

    def test_appc_dimensions(self, bank_paper):
        assert bank_paper.m_bins == 201
        assert bank_paper.radial.shape == (566,)
        assert bank_paper.row(200).shape == (566,)
        assert bank_paper.centers.shape == (201,)

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


def recurrence_radial(eps: float, n_trunc: int) -> np.ndarray:
    """``radial(k)`` for ``k < n_trunc`` on the bank's trapezoid rule, with the
    node phases advanced by one complex multiply per node: the loop the
    blocked product replaced, kept as the accuracy baseline."""
    kps = np.arange(n_trunc) * eps / 2.0
    half, weights = _trapezoid_rule(float(kps[-1]))
    step = np.exp(1j * kps / half)
    phase = step.copy()
    total = np.zeros_like(kps)
    for weight in weights:
        total += weight * phase.real
        phase *= step
    return eps * (bump(0.0) + 2.0 * total) / (half * SQRT_2PI) * np.sinc(kps / math.pi)


def long_double_radial(eps: float, n_trunc: int) -> np.ndarray:
    """The same rule and weights summed in long double: a reference for the
    rounding of the double evaluations (80-bit on x86-64)."""
    ld = np.longdouble
    half, weights = _trapezoid_rule((n_trunc - 1) * eps / 2.0)
    kps = np.arange(n_trunc, dtype=ld) * ld(eps) / 2
    nodes = np.arange(1, half, dtype=ld) / half
    sums = np.cos(np.multiply.outer(kps, nodes)) @ weights.astype(ld)
    pi = 4 * np.arctan(ld(1))
    h = (ld(bump(0.0)) + 2 * sums) / (half * np.sqrt(2 * pi))
    sinc = np.sin(kps[1:]) / kps[1:]
    return ld(eps) * h * np.concatenate([[ld(1)], sinc])


class TestBlockedTransform:
    """The bank's blocked product against the dense rule and in long double."""

    # Both evaluate the same rule of about 250 nodes in another order, so they
    # agree to about sqrt(250) = 16 ulp of the largest value, radial(0).
    @pytest.mark.parametrize(
        "eps, n_trunc",
        [(0.25, 2), (0.25, 3), (0.25, 414), (1 / 205, 482), (0.05, 4469), (0.01, 4000),
         (0.25, 8001)],
    )
    def test_matches_dense_transform(self, eps, n_trunc):
        radial = build_filterbank(eps, n_trunc).radial
        dense = _radial(np.arange(n_trunc), eps)
        assert np.max(np.abs(radial - dense)) <= 16 * np.spacing(radial[0])

    def test_no_less_accurate_than_the_recurrence(self):
        eps, n_trunc = 0.01, 4000
        reference = long_double_radial(eps, n_trunc)
        blocked = np.max(np.abs(build_filterbank(eps, n_trunc).radial - reference))
        recurrence = np.max(np.abs(recurrence_radial(eps, n_trunc) - reference))
        assert blocked <= recurrence


class TestEpsSnapping:
    def test_near_integral_inverse_gives_exact_last_center(self):
        eps = 0.0050000049
        assert bin_centers(eps)[-1] == 0.5
        assert bin_centers(eps).size == 201
        assert build_filterbank(eps, 8).eps == 0.005
        assert exact_bins(fig6_spectrum(), eps).eps == 0.005

    def test_every_bin_count_derives_the_snapped_eps(self):
        # A distribution derives eps = 1/(M - 1) from its M values, and a bank
        # snaps the eps it is given; for every 1/eps both are the same double.
        spec = fig6_spectrum()
        for inv in range(1, 1001):
            eps = _snap_eps(1.0 / inv)
            assert exact_bins(spec, 1.0 / inv).eps == eps == build_filterbank(1.0 / inv, 2).eps

    def test_strict_order_is_that_of_the_snapped_eps(self):
        strict = TruncationMode.STRICT
        assert choose_truncation(0.0500000049, strict) == choose_truncation(0.05, strict) == 4469

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

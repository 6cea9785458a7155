import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qeep import (
    BinDistribution,
    BinKind,
    Spectrum,
    TimeSeries,
    TruncationMode,
    add_noise,
    bin_centers,
    choose_truncation,
    estimate_bins,
    estimate_moment,
    exact_bins,
    exact_moment,
    fig6_spectrum,
    generate_clean,
    moment_error_bound,
    random_spectrum,
    truncated_bins,
)
from qeep import _plan
from qeep._plan import moment_bound
from qeep.cli import main
from qeep.filterbank import SQRT_2PI, FilterBank, build_filterbank
from qeep.signal import Provenance
from qeep.ts_estimator import _bins_from_values


@st.composite
def spectra(draw):
    """One to eight lines anywhere in ``[-1/2, 1/2]``, each weighing at least
    1% of the heaviest."""
    d = draw(st.integers(1, 8))
    lambdas = draw(st.lists(st.floats(-0.5, 0.5), min_size=d, max_size=d))
    raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d)))
    return Spectrum(lambdas=lambdas, weights=raw / raw.sum())


def direct_bins(values: np.ndarray, bank: FilterBank) -> np.ndarray:
    """The linear form summed term by term, each with its explicit bin phase
    ``exp(-i*center_j*k)``: the oracle of the blocked product."""
    k = np.arange(1, bank.n_trunc)
    terms = bank.radial[1:] * np.conj(values[1 : bank.n_trunc])
    sums = (terms * np.exp(-1j * np.outer(bank.centers, k))).real.sum(axis=1)
    return bank.radial[0] / SQRT_2PI + math.sqrt(2.0 / math.pi) * sums


def recurrence_bins(values: np.ndarray, bank: FilterBank) -> np.ndarray:
    """The linear form with the bin phases advanced from bin to bin by one
    multiply with ``exp(-i*eps*k)``: the loop the blocked product replaced,
    kept as the accuracy baseline."""
    n = bank.n_trunc
    k = np.arange(1, n)
    terms = bank.radial[1:] * np.conj(values[1:n]) * np.exp(-1j * bank.centers[0] * k)
    step = np.exp(-1j * bank.eps * k)
    sums = np.empty(bank.m_bins)
    for j in range(sums.size):
        sums[j] = terms.real.sum()
        terms *= step
    return bank.radial[0] / SQRT_2PI + math.sqrt(2.0 / math.pi) * sums


def long_double_bins(values: np.ndarray, bank: FilterBank) -> np.ndarray:
    """The linear form of the coefficients ``FilterBank.row`` documents,
    ``radial(k) * exp(-i*center_j*k)``, summed in long double (80-bit on
    x86-64): a reference for the rounding of the double evaluations."""
    ld = np.longdouble
    n = bank.n_trunc
    terms = bank.radial[1:].astype(ld) * np.conj(values[1:n]).astype(np.clongdouble)
    phases = np.multiply.outer(bank.centers.astype(ld), np.arange(1, n, dtype=ld))
    sums = (terms.real * np.cos(phases) + terms.imag * np.sin(phases)).sum(axis=1)
    pi = 4 * np.arctan(ld(1))
    return ld(bank.radial[0]) / np.sqrt(2 * pi) + np.sqrt(2 / pi) * sums


def point_mass(lam: float) -> Spectrum:
    return Spectrum(lambdas=[lam], weights=[1.0])


class TestExactBins:
    def test_point_mass_at_bin_center(self):
        eps = 0.25
        centers = bin_centers(eps)
        dist = exact_bins(point_mass(centers[3]), eps)
        assert dist.kind is BinKind.EXACT_P
        assert dist.values[3] == pytest.approx(1.0, abs=1e-9)
        others = np.delete(dist.values, 3)
        assert np.max(np.abs(others)) <= 1e-12

    def test_point_mass_between_centers_splits_over_two_bins(self):
        eps = 0.25
        lam = bin_centers(eps)[3] + eps / 2
        dist = exact_bins(point_mass(lam), eps)
        assert dist.values[3] > 0 and dist.values[4] > 0
        assert dist.values[3] + dist.values[4] == pytest.approx(1.0, abs=1e-9)

    def test_support_limited_to_two_bins(self):
        eps = 0.005
        dist = exact_bins(point_mass(0.1234), eps)
        nonzero = np.nonzero(dist.values > 1e-12)[0]
        assert nonzero.size <= 2
        assert np.all(np.diff(nonzero) == 1)

    def test_fig6_probabilities_sum_to_one(self):
        dist = exact_bins(fig6_spectrum(), 0.005)
        assert dist.values.sum() == pytest.approx(1.0, abs=1e-9)

    def test_edge_eigenvalues_handled(self):
        for lam in (-0.5, 0.5):
            dist = exact_bins(point_mass(lam), 0.25)
            assert dist.values.sum() == pytest.approx(1.0, abs=1e-9)


class TestTruncatedBins:
    def test_l1_close_to_exact_at_strict_truncation(self, bank_quarter_strict):
        bank = bank_quarter_strict
        for seed in range(5):
            spec = random_spectrum(5, seed)
            p = exact_bins(spec, bank.eps)
            pp = truncated_bins(spec, bank)
            assert pp.kind is BinKind.TRUNCATED_P
            assert np.abs(pp.values - p.values).sum() <= bank.eps / 2

    def test_point_mass_peak_near_one_at_strict_truncation(self, bank_quarter_strict):
        bank = bank_quarter_strict
        center = bin_centers(bank.eps)[2]
        pp = truncated_bins(point_mass(center), bank)
        assert int(np.argmax(pp.values)) == 2
        assert abs(pp.values[2] - 1.0) <= bank.eps / 2


class TestEstimateBins:
    def test_clean_signal_reproduces_truncated_bins(self, bank_quarter_strict):
        bank = bank_quarter_strict
        spec = fig6_spectrum()
        q = estimate_bins(generate_clean(spec, bank.n_trunc), bank)
        pp = truncated_bins(spec, bank)
        assert q.kind is BinKind.ESTIMATED_Q
        assert np.max(np.abs(q.values - pp.values)) <= 1e-12

    def test_two_sum_forms_agree(self):
        # Reference: the symmetric sum over k in (-N, N) materialized term by
        # term, against the implementation's folded real-part form.
        from qeep import build_filterbank

        bank = build_filterbank(0.25, 40)
        spec = fig6_spectrum()
        g = generate_clean(spec, bank.n_trunc).values
        gfull = np.concatenate([np.conj(g[:0:-1]), g])
        ks = np.arange(-(bank.n_trunc - 1), bank.n_trunc)
        q = estimate_bins(generate_clean(spec, bank.n_trunc), bank)
        centers = bin_centers(bank.eps)
        for j in range(bank.m_bins):
            row = bank.row(j)[np.abs(ks)]
            coeffs = np.where(ks >= 0, row, np.conj(row))
            reference = np.sum(coeffs * np.conj(gfull)).real / SQRT_2PI
            assert q.values[j] == pytest.approx(reference, abs=1e-12)

    def test_noisy_estimate_within_half_eps_of_truncated(self, bank_quarter_strict):
        bank = bank_quarter_strict
        spec = fig6_spectrum()
        clean = generate_clean(spec, bank.n_trunc)
        pp = truncated_bins(spec, bank)
        for seed in range(5):
            noisy = add_noise(clean, bank.eps / bank.n_trunc, seed)
            q = estimate_bins(noisy, bank)
            assert np.abs(q.values - pp.values).sum() <= bank.eps / 2

    # The estimator is real-linear in the entries k >= 1 (g_0 is pinned to
    # 1): q(a*x + b*y) - q(0) = a*(q(x) - q(0)) + b*(q(y) - q(0)).
    @settings(max_examples=40, deadline=None)
    @given(
        eps=st.sampled_from([0.25, 0.1, 0.05]),
        n_trunc=st.integers(2, 64),
        a=st.floats(-10.0, 10.0),
        b=st.floats(-10.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_linear_in_the_signal_property(self, eps, n_trunc, a, b, seed):
        from qeep import build_filterbank

        bank = build_filterbank(eps, n_trunc)
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(2, n_trunc - 1)) + 1j * rng.normal(size=(2, n_trunc - 1))

        def q(tail):
            values = np.concatenate([[1.0], tail])
            return estimate_bins(TimeSeries(values=values, provenance=Provenance.clean()), bank).values

        zero = q(np.zeros(n_trunc - 1))
        lhs = q(a * x + b * y) - zero
        rhs = a * (q(x) - zero) + b * (q(y) - zero)
        scale = (1.0 + abs(a) + abs(b)) * np.sum(np.abs(bank.radial)) * np.max(np.abs([x, y]))
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * scale

    # ROADMAP aim 3's invariants at 1/eps in {4, 10, 20} and N <= 256, on
    # signals with |g_k| <= 1, each to 8 ulp of sum|radial| (at most 2.1 ulp
    # was seen over 3 000 draws).
    @staticmethod
    def _signal(rng, n_trunc):
        values = rng.uniform(0.0, 1.0, n_trunc) * np.exp(2j * np.pi * rng.uniform(size=n_trunc))
        values[0] = 1.0
        return values

    @staticmethod
    def _bins(values, bank):
        return estimate_bins(TimeSeries(values=values, provenance=Provenance.clean()), bank).values

    @settings(max_examples=40, deadline=None)
    @given(
        inv=st.sampled_from([4, 10, 20]),
        n_trunc=st.integers(2, 256),
        t=st.floats(-1.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_affine_in_the_signal_property(self, inv, n_trunc, t, seed):
        bank = build_filterbank(1.0 / inv, n_trunc)
        rng = np.random.default_rng(seed)
        g1, g2 = self._signal(rng, n_trunc), self._signal(rng, n_trunc)
        g = t * g1 + (1.0 - t) * g2
        g[0] = 1.0
        lhs = self._bins(g, bank)
        rhs = t * self._bins(g1, bank) + (1.0 - t) * self._bins(g2, bank)
        scale = (abs(t) + abs(1.0 - t)) * np.sum(np.abs(bank.radial))
        assert np.max(np.abs(lhs - rhs)) <= 8 * np.finfo(float).eps * scale

    # Bin j's center is minus bin M-1-j's, so conjugating the signal mirrors q.
    @settings(max_examples=40, deadline=None)
    @given(
        inv=st.sampled_from([4, 10, 20]),
        n_trunc=st.integers(2, 256),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_conjugate_signal_reverses_the_bins_property(self, inv, n_trunc, seed):
        bank = build_filterbank(1.0 / inv, n_trunc)
        g = self._signal(np.random.default_rng(seed), n_trunc)
        mirrored = self._bins(np.conj(g), bank)
        reversed_bins = self._bins(g, bank)[::-1]
        tolerance = 8 * np.finfo(float).eps * np.sum(np.abs(bank.radial))
        assert np.max(np.abs(mirrored - reversed_bins)) <= tolerance

    def test_short_signal_rejected(self, bank_quarter_strict):
        ts = generate_clean(fig6_spectrum(), bank_quarter_strict.n_trunc - 1)
        with pytest.raises(ValueError):
            estimate_bins(ts, bank_quarter_strict)

    # The N - 1 terms fill a zero-padded A x B table, B = ceil(sqrt(N - 1)):
    # N = 2 is one term in a 1 x 1 table, N = 10 fills a 3 x 3 table exactly,
    # and at N = 12 the 11 terms are no multiple of B = 4, so the last of the
    # three rows ends in a zero.
    @settings(max_examples=60, deadline=None)
    @given(
        inv=st.integers(1, 40),
        n_trunc=st.integers(2, 300),
        extra=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(inv=4, n_trunc=2, extra=0, seed=0)
    @example(inv=4, n_trunc=10, extra=0, seed=1)
    @example(inv=40, n_trunc=12, extra=2, seed=2)
    def test_blocked_sums_match_direct_sum_property(self, inv, n_trunc, extra, seed):
        rng = np.random.default_rng(seed)
        bank = FilterBank(eps=1.0 / inv, radial=rng.normal(size=n_trunc))
        values = rng.normal(size=n_trunc + extra) + 1j * rng.normal(size=n_trunc + extra)
        blocked = _bins_from_values(values, bank)
        # Each phase is rounded at a size up to N/2 on both sides.
        scale = abs(bank.radial[0]) + np.sum(np.abs(bank.radial[1:] * values[1:n_trunc]))
        tolerance = 4 * n_trunc * np.finfo(float).eps * scale
        assert np.max(np.abs(blocked - direct_bins(values, bank))) <= tolerance

    def test_no_less_accurate_than_the_recurrence(self):
        eps, n_trunc = 0.01, 4000
        bank = build_filterbank(eps, n_trunc)
        blocked = recurrence = 0.0
        for seed in (1, 2, 3):
            clean = generate_clean(random_spectrum(5, seed), n_trunc)
            values = add_noise(clean, eps / n_trunc, seed).values
            reference = long_double_bins(values, bank)
            blocked = max(blocked, np.max(np.abs(_bins_from_values(values, bank) - reference)))
            recurrence = max(recurrence, np.max(np.abs(recurrence_bins(values, bank) - reference)))
        assert blocked <= recurrence


class TestMoments:
    def test_zeroth_moment_is_total_mass(self, bank_quarter_strict):
        dist = exact_bins(fig6_spectrum(), 0.25)
        assert estimate_moment(dist, 0) == pytest.approx(dist.values.sum(), abs=1e-14)

    def test_point_mass_first_moment_is_exact_center(self):
        eps = 0.25
        center = bin_centers(eps)[3]
        dist = exact_bins(point_mass(center), eps)
        assert estimate_moment(dist, 1) == pytest.approx(center, abs=1e-12)

    def test_order_bounds_enforced(self):
        dist = exact_bins(fig6_spectrum(), 0.25)
        with pytest.raises(ValueError):
            estimate_moment(dist, -1)
        with pytest.raises(ValueError):
            estimate_moment(dist, 65)

    def test_empirical_order_misses_the_bound_on_some_spectra(self, bank_paper):
        # C10 is guaranteed only at the strict order. At eps = 0.005 and the
        # empirical N = 566, this clean spectrum (lines at -0.4976 and 0.4993,
        # near both ends of the range) misses its first-moment bound.
        assert bank_paper.n_trunc == choose_truncation(0.005, TruncationMode.EMPIRICAL)
        spec = random_spectrum(5, 9102)
        q = truncated_bins(spec, bank_paper)
        bound = moment_bound(0.005, 1)
        ratio = abs(estimate_moment(q, 1) - exact_moment(spec, 1)) / bound
        assert 1.3 < ratio < 1.33

    def test_moment_error_within_a_priori_bound(self, bank_mid_strict):
        bank = bank_mid_strict
        for seed in range(10):
            spec = random_spectrum(5, seed)
            noisy = add_noise(
                generate_clean(spec, bank.n_trunc), bank.eps / bank.n_trunc, seed
            )
            q = estimate_bins(noisy, bank)
            for s in (1, 2, 4):
                bound = moment_bound(bank.eps, s)
                assert abs(estimate_moment(q, s) - exact_moment(spec, s)) <= bound

    # C10 over arbitrary spectra, lines on the range's ends included: at the
    # strict truncation order with noise eps/N per entry, the moment error of
    # T(x) = x**s stays within eps * (sup|T| + sup|T'|) on |x| <= 1/2.
    @settings(max_examples=30, deadline=None)
    @example(spec=Spectrum(lambdas=[-0.5, 0.5], weights=[0.5, 0.5]), seed=0)
    @example(spec=Spectrum(lambdas=[0.0], weights=[1.0]), seed=1)
    @given(spec=spectra(), seed=st.integers(0, 2**32 - 1))
    def test_moment_error_within_a_priori_bound_property(self, bank_mid_strict, spec, seed):
        bank = bank_mid_strict
        noisy = add_noise(generate_clean(spec, bank.n_trunc), bank.eps / bank.n_trunc, seed)
        q = estimate_bins(noisy, bank)
        for s in (1, 2, 3, 4, 8):
            bound = moment_bound(bank.eps, s)
            assert abs(estimate_moment(q, s) - exact_moment(spec, s)) <= bound


class TestMomentErrorBound:
    def test_linear_function_bound(self):
        # T(x) = x on |x| <= 1/2: sup|T| = 1/2, sup|T'| = 1.
        assert moment_error_bound(0.01, 0.5, 1.0) == pytest.approx(0.015, abs=1e-15)

    def test_quadratic_function_bound(self):
        # T(x) = x**2: sup|T| = 1/4, sup|T'| = 1.
        assert moment_error_bound(0.01, 0.25, 1.0) == pytest.approx(0.0125, abs=1e-15)

    def test_constant_function_has_zero_actual_error(self):
        dist = exact_bins(random_spectrum(5, 3), 0.25)
        c = 2.7
        actual = abs(np.dot(dist.values, np.full(5, c)) - c)
        assert actual <= 1e-9 * abs(c)
        assert actual <= moment_error_bound(0.25, abs(c), 0.0)

    def test_negative_sup_norm_rejected(self):
        with pytest.raises(ValueError):
            moment_error_bound(0.01, -1.0, 0.0)

    @pytest.mark.parametrize("sup_norms", [(math.nan, 1.0), (1.0, math.nan)])
    def test_nan_sup_norm_rejected(self, sup_norms):
        with pytest.raises(ValueError, match=r"t(_prime)?_max must lie in \[0, "):
            moment_error_bound(0.1, *sup_norms)

    def test_public_name_is_the_planner_function(self):
        assert moment_error_bound is _plan.moment_error_bound

    @pytest.mark.parametrize("eps", [0.005, 0.05, 0.25, 1 / 3])
    def test_moment_bound_is_the_general_bound_of_x_to_the_s(self, eps):
        # T(x) = x**s on |x| <= 1/2: sup|T| = 2**-s and sup|T'| = s * 2**(1-s),
        # both exact powers of two times s, so the float is the same however
        # they are written.
        for s in range(65):
            t_max, t_prime_max = math.ldexp(1.0, -s), s * math.ldexp(1.0, 1 - s)
            assert moment_bound(eps, s) == moment_error_bound(eps, t_max, t_prime_max)

    @pytest.mark.parametrize("s", [-1, 65, 1.5, True])
    def test_moment_bound_rejects_orders_out_of_range(self, s):
        with pytest.raises(ValueError, match="moment order s"):
            moment_bound(0.005, s)


class TestBinDistributionType:
    def test_exact_kind_validates_probability_vector(self):
        with pytest.raises(ValueError, match="sum to 1"):
            BinDistribution(values=np.array([0.5, 0.6]), kind=BinKind.EXACT_P)
        for values in ([1.5, -0.5], [-0.5, 1.5]):
            with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
                BinDistribution(values=np.array(values), kind=BinKind.EXACT_P)

    @pytest.mark.parametrize("inv", [3, 7, 9])
    def test_eps_is_stored_snapped(self, inv):
        # As FilterBank does: eps is 1/round(1/eps), which the centers use.
        eps = round(1.0 / inv, 10)
        dist = exact_bins(fig6_spectrum(), eps)
        assert eps != 1.0 / inv
        assert dist.eps == 1.0 / inv and dist.to_dict()["eps"] == 1.0 / inv
        assert np.array_equal(dist.centers, bin_centers(1.0 / inv))

    def test_copies_the_callers_array(self):
        values = np.array([-0.01, 0.5, 0.52])
        dist = BinDistribution(values=values, kind=BinKind.ESTIMATED_Q)
        values[0] = 0.3
        assert dist.values[0] == -0.01
        assert not dist.values.flags.writeable

    def test_estimated_kind_allows_raw_values(self):
        dist = BinDistribution(values=np.array([-0.01, 0.5, 0.52]), kind=BinKind.ESTIMATED_Q)
        assert dist.values[0] == -0.01

    # One value would need eps = 1/0, the zero-eps record.
    @pytest.mark.parametrize(
        "values, message",
        [
            ([0.5], r"^bin count M must lie in \[2, "),
            ([1.0], r"^bin count M must lie in \[2, "),
            ([0.1, float("nan"), 0.9], r"^values must be .* with a non-finite entry$"),
            ([0.1, float("inf"), 0.9], r"^values must be .* with a non-finite entry$"),
            ([[0.5, 0.5]] * 2, r"^values must be a finite 1-d array of length at least 1, "),
        ],
        ids=["too-few", "zero-eps", "nan", "inf", "matrix"],
    )
    def test_malformed_record_rejected(self, values, message):
        with pytest.raises(ValueError, match=message):
            BinDistribution(values=np.array(values), kind=BinKind.ESTIMATED_Q)

    def test_csv_export(self, tmp_path):
        spec, sig, path = tmp_path / "spec.json", tmp_path / "sig.json", tmp_path / "bins.csv"
        assert main(["synth", "--fig6", "--out", str(spec)]) == 0
        assert main(["signal", "--spectrum", str(spec), "--n", "8", "--out", str(sig)]) == 0
        argv = ["estimate", "--signal", str(sig), "--method", "ts", "--eps", "0.25",
                "--out", str(tmp_path / "est.json"), "--csv", str(path)]
        assert main(argv) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "j,lambda_tilde,value"
        assert len(lines) == 6
        assert lines[1].split(",")[1] == "-0.5"

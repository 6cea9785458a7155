"""The one range rule, ``_records.number``, and every entry point it checks;
the one vector rule, ``_records.vector``, and every array argument it checks;
the one storage rule, ``_records.frozen``, and every array field it keeps."""

import math
import re
import sys
from fractions import Fraction
from numbers import Integral, Real

import numpy as np
import pytest

from qeep import _records
from qeep._plan import moment_error_bound
from qeep.dft_baseline import DftResult, dft
from qeep.filterbank import (
    FilterBank,
    bin_centers,
    bump_fourier,
    build_filterbank,
    choose_truncation,
    filter_values,
    tail_bound,
)
from qeep.matrix_pencil import MpEstimate, _pencil_dimension, mp_estimate, solve_amplitudes
from qeep.signal import (
    Provenance,
    TimeSeries,
    generate_clean,
    hoeffding_shots,
    hoeffding_shots_per_point,
    sample_shots,
)
from qeep.spectrum import Spectrum, exact_moment, fig6_spectrum, random_spectrum
from qeep.ts_estimator import BinDistribution, BinKind, estimate_moment, exact_bins

DOUBLE_MAX = sys.float_info.max


class TestNumber:
    @pytest.mark.parametrize(
        "value, kind",
        [(True, Integral), (False, Real), (2.5, Integral), (np.float64(3.0), Integral),
         ("3", Real), (None, Real), (1j, Real)],
        ids=["bool-integer", "bool-number", "fraction-integer", "numpy-float-integer",
             "string", "none", "complex"],
    )
    def test_wrong_kind_rejected(self, value, kind):
        what = "an integer" if kind is Integral else "a number"
        with pytest.raises(ValueError, match=f"^x must be {what}, got "):
            _records.number(value, "x", kind)

    @pytest.mark.parametrize(
        "value, kind",
        [(math.nan, Real), (math.inf, Real), (-math.inf, Real), (np.float64(math.nan), Real),
         (10**400, Integral), (-(10**400), Integral), (10**400, Real)],
        ids=["nan", "inf", "minus-inf", "numpy-nan", "huge-integer", "huge-negative-integer",
             "huge-integer-as-number"],
    )
    def test_outside_the_doubles_rejected(self, value, kind):
        doubles = re.escape(f"x must lie in [{-DOUBLE_MAX}, {DOUBLE_MAX}], got ")
        with pytest.raises(ValueError, match=doubles):
            _records.number(value, "x", kind)

    @pytest.mark.parametrize("value", [np.int64(7), np.int32(7), np.uint8(7), 7])
    def test_integers_come_back_as_int(self, value):
        out = _records.number(value, "x", Integral)
        assert out == 7 and type(out) is int

    @pytest.mark.parametrize("value", [np.float32(0.5), np.float64(0.5), Fraction(1, 2), 0.5])
    def test_numbers_come_back_as_float(self, value):
        out = _records.number(value, "x")
        assert out == 0.5 and type(out) is float

    def test_an_integer_as_a_number_is_a_float(self):
        out = _records.number(np.int64(3), "x")
        assert out == 3.0 and type(out) is float

    def test_both_bounds_are_inclusive(self):
        assert _records.number(1, "x", Integral, 1, 3) == 1
        assert _records.number(3, "x", Integral, 1, 3) == 3
        assert _records.number(0.0, "x", least=0.0, most=0.5) == 0.0
        assert _records.number(0.5, "x", least=0.0, most=0.5) == 0.5
        assert _records.number(DOUBLE_MAX, "x") == DOUBLE_MAX

    @pytest.mark.parametrize("value", [0, 4])
    def test_outside_the_range_rejected_with_the_one_message(self, value):
        with pytest.raises(ValueError, match=re.escape(f"x must lie in [1, 3], got {value}")):
            _records.number(value, "x", Integral, 1, 3)

    def test_huge_integers_are_bounded_exactly(self):
        # 2**63 - 1 rounds up to 2**63 as a double; the comparison stays exact.
        assert _records.number(2**63 - 1, "x", Integral, 1, 2**63 - 1) == 2**63 - 1
        with pytest.raises(ValueError, match="must lie in"):
            _records.number(2**63, "x", Integral, 1, 2**63 - 1)


# One row per entry point whose count, order, index, seed or magnitude goes
# through ``_records.number``, a bool and a string row per positive real
# (``eps`` and the planners' ``eps_prime`` and ``confidence``), and a
# non-finite and a misshapen row per
# array argument that goes through ``_records.vector``: each bad input must
# raise ValueError naming the parameter.
ROUTED = {
    "number-huge-fraction": (lambda: _records.number(Fraction(10**400, 3), "x"), "x"),
    "provenance-shots": (lambda: Provenance.shot_sampled(0, 1), "shots_per_point"),
    "provenance-seed": (lambda: Provenance.additive_noise(0.1, -1), "seed"),
    "provenance-eps-prime": (lambda: Provenance.additive_noise(math.inf, 1), "eps_prime"),
    "random-spectrum-d": (lambda: random_spectrum(0, 1), "d"),
    "random-spectrum-seed": (lambda: random_spectrum(3, -1), "seed"),
    "exact-moment-fraction": (lambda: exact_moment(fig6_spectrum(), 1.5), "moment order s"),
    "exact-moment-bool": (lambda: exact_moment(fig6_spectrum(), True), "moment order s"),
    "estimate-moment-fraction": (
        lambda: estimate_moment(exact_bins(fig6_spectrum(), 0.25), 0.5), "moment order s"),
    "generate-clean": (lambda: generate_clean(fig6_spectrum(), 2.5), "n_len"),
    "generate-clean-zero": (lambda: generate_clean(fig6_spectrum(), 0), "n_len"),
    "sample-shots-length": (lambda: sample_shots(fig6_spectrum(), 2.5, 3, 1), "n_len"),
    "hoeffding-bool": (lambda: hoeffding_shots(True, 0.1, 0.9), "n_len"),
    "hoeffding-huge": (lambda: hoeffding_shots(10**400, 0.1, 0.9), "n_len"),
    "hoeffding-per-point": (lambda: hoeffding_shots_per_point(2.5, 0.1, 0.9), "n_len"),
    "tail-bound-order": (lambda: tail_bound(2.5, 0.005), "n_trunc"),
    "tail-bound-eps": (lambda: tail_bound(10, math.nan), "eps"),
    "tail-bound-eps-bool": (lambda: tail_bound(10, True), "eps"),
    "tail-bound-eps-string": (lambda: tail_bound(10, "0.1"), "eps"),
    "bin-centers-bool": (lambda: bin_centers(True), "eps"),
    "bin-centers-string": (lambda: bin_centers("0.1"), "eps"),
    "build-filterbank-eps-bool": (lambda: build_filterbank(True, 4), "eps"),
    "filterbank-eps-string": (lambda: FilterBank("0.25", np.zeros(3)), "eps"),
    "hoeffding-eps-prime-bool": (lambda: hoeffding_shots(10, True, 0.5), "eps_prime"),
    "hoeffding-eps-prime-string": (lambda: hoeffding_shots(10, "0.1", 0.9), "eps_prime"),
    "hoeffding-confidence-bool": (lambda: hoeffding_shots_per_point(10, 0.1, True), "confidence"),
    "hoeffding-confidence-string": (lambda: hoeffding_shots(10, 0.1, "0.9"), "confidence"),
    "choose-truncation": (lambda: choose_truncation(0.25, -5), "n_trunc"),
    "build-filterbank": (lambda: build_filterbank(0.25, 6.5), "n_trunc"),
    "build-filterbank-one": (lambda: build_filterbank(0.25, 1), "n_trunc"),
    "row-fraction": (lambda: build_filterbank(0.25, 4).row(1.5), "bin index j"),
    "row-past-last": (lambda: build_filterbank(0.25, 4).row(5), "bin index j"),
    "pencil-dimension": (lambda: _pencil_dimension(566, 2.5), "l_dim"),
    "mp-estimate": (lambda: mp_estimate(generate_clean(fig6_spectrum(), 20), 2.5), "l_dim"),
    "solve-amplitudes-long": (
        lambda: solve_amplitudes(np.zeros(5), generate_clean(fig6_spectrum(), 4), np.ones(5)),
        "l_dim"),
    "error-bound-eps": (lambda: moment_error_bound(math.nan, 1, 1), "eps"),
    "error-bound-negative-eps": (lambda: moment_error_bound(-0.1, 1, 1), "eps"),
    "error-bound-t-max": (lambda: moment_error_bound(0.1, math.inf, 1), "t_max"),
    "error-bound-t-prime-max": (lambda: moment_error_bound(0.1, 1, -1), "t_prime_max"),
    "bump-fourier-inf": (lambda: bump_fourier(math.inf), "kp"),
    "bump-fourier-minus-inf": (lambda: bump_fourier(-math.inf), "kp"),
    "bump-fourier-nan": (lambda: bump_fourier(math.nan), "kp"),
    "dft-nan": (lambda: dft([1.0, math.nan]), "signal"),
    "dft-empty": (lambda: dft([]), "signal"),
    "filter-values-nan": (lambda: filter_values([0.1, math.nan], 0.25), "x"),
    "filter-values-two-d": (lambda: filter_values([[0.1, 0.2]], 0.25), "x"),
    "solve-amplitudes-phase-nan": (
        lambda: solve_amplitudes([math.nan, 0.2], generate_clean(fig6_spectrum(), 4), [1.0, 1.0]),
        "eigenphases"),
    "solve-amplitudes-modulus-nan": (
        lambda: solve_amplitudes([0.1, 0.2], generate_clean(fig6_spectrum(), 4), [1.0, math.nan]),
        "moduli"),
    "solve-amplitudes-unequal": (
        lambda: solve_amplitudes([0.1, 0.2], generate_clean(fig6_spectrum(), 4), [1.0]),
        "moduli"),
}


@pytest.mark.parametrize("call, name", ROUTED.values(), ids=ROUTED.keys())
def test_bad_input_is_a_value_error_naming_the_parameter(call, name):
    with pytest.raises(ValueError, match=f"^{name} must "):
        call()


def test_valid_open_interval_inputs_give_the_same_values():
    # Values written before the open intervals took the type rule.
    assert bin_centers(0.25).tolist() == [-0.5, -0.25, 0.0, 0.25, 0.5]
    assert build_filterbank(np.float64(0.25), 8).radial[7] == 0.08230384387252769
    assert tail_bound(566, 0.005) == 2.6671703244643754
    assert tail_bound(10, 1) == 1.4966512567899422
    assert hoeffding_shots(566, 0.005, 0.99) == 526919351
    assert hoeffding_shots(10, Fraction(1, 10), 0.9) == 10597
    assert hoeffding_shots_per_point(566, 0.005, 0.99) == 1972527
    assert _records.number(Fraction(1, 3), "x") == 1 / 3


def test_numpy_integers_give_what_python_integers_give():
    spec = random_spectrum(np.int64(4), np.int64(9))
    assert spec.entries == random_spectrum(4, 9).entries
    ts = generate_clean(spec, np.int64(30))
    assert np.array_equal(ts.values, generate_clean(spec, 30).values)
    assert exact_moment(spec, np.int64(3)) == exact_moment(spec, 3)
    assert tail_bound(np.int64(566), 0.005) == tail_bound(566, 0.005)
    assert hoeffding_shots(np.int64(10), 0.1, 0.9) == hoeffding_shots(10, 0.1, 0.9)
    bank = build_filterbank(0.25, np.int64(8))
    assert type(bank.n_trunc) is int
    assert np.array_equal(bank.row(np.int64(2)), build_filterbank(0.25, 8).row(2))
    est = mp_estimate(ts, np.int64(12))
    assert type(est.l_dim) is int
    assert np.array_equal(est.amplitudes, mp_estimate(ts, 12).amplitudes)


def _pencil(**given):
    arrays = {name: np.zeros(2) for name in ("eigenphases", "amplitudes", "moduli")}
    return MpEstimate(**{**arrays, **given}, residual=0.0)


# One row per array field of the six value types: the type built from an
# input array already of the field's dtype (which a plain ``np.asarray`` would
# alias), that field's name and the dtype it documents, which the field also
# holds when given the input in single precision.
ARRAY_FIELDS = {
    "spectrum-lambdas": (
        lambda a: Spectrum(lambdas=a, weights=[0.5, 0.5]), np.array([0.25, -0.125]),
        "lambdas", np.float64),
    "spectrum-weights": (
        lambda a: Spectrum(lambdas=[0.25, -0.125], weights=a), np.array([0.75, 0.25]),
        "weights", np.float64),
    "time-series-values": (
        lambda a: TimeSeries(values=a, provenance=Provenance.clean()),
        np.array([1.0, 0.5 - 0.25j]), "values", np.complex128),
    "filterbank-radial": (
        lambda a: FilterBank(0.25, a), np.array([1.0, 0.5, 0.25]), "radial", np.float64),
    "bin-distribution-values": (
        lambda a: BinDistribution(values=a, kind=BinKind.ESTIMATED_Q),
        np.linspace(0.0, 0.4, 5), "values", np.float64),
    "mp-estimate-eigenphases": (
        lambda a: _pencil(eigenphases=a), np.array([-0.5, 0.5]), "eigenphases", np.float64),
    "mp-estimate-amplitudes": (
        lambda a: _pencil(amplitudes=a), np.array([0.5 + 0.5j, 0.5j]), "amplitudes",
        np.complex128),
    "mp-estimate-moduli": (
        lambda a: _pencil(moduli=a), np.array([1.0, 0.75]), "moduli", np.float64),
    "dft-coefficients": (
        lambda a: DftResult(coefficients=a, frequency_grid=[0.0, 1.0]),
        np.array([1.0 + 0.5j, -0.5j]), "coefficients", np.complex128),
    "dft-frequency-grid": (
        lambda a: DftResult(coefficients=[1.0, 0.0], frequency_grid=a),
        np.array([0.0, 1.0]), "frequency_grid", np.float64),
}


@pytest.mark.parametrize("make, given, name, dtype", ARRAY_FIELDS.values(), ids=ARRAY_FIELDS.keys())
def test_array_fields_are_private_read_only_copies(make, given, name, dtype):
    given = given.copy()
    single = given.astype(np.complex64 if dtype is np.complex128 else np.float32)
    field = getattr(make(given), name)
    kept = field.copy()
    given *= 2
    assert not field.flags.writeable
    assert field.dtype == getattr(make(single), name).dtype == dtype
    assert field.tobytes() == kept.tobytes()


def _flawed(given):
    """The flawed versions of a valid field array, each named: its last entry
    NaN or +inf (``values[0]`` of a time series must stay 1), the same entries
    as one row of a 2-d array, and no entries."""
    nan, inf = given.copy(), given.copy()
    nan[-1], inf[-1] = math.nan, math.inf
    return {"nan": nan, "inf": inf, "two-d": given[None, :], "empty": given[:0]}


@pytest.mark.parametrize("make, given, name, dtype", ARRAY_FIELDS.values(), ids=ARRAY_FIELDS.keys())
@pytest.mark.parametrize("flaw", ["nan", "inf", "two-d", "empty"])
def test_array_fields_reject_what_is_not_a_finite_vector(make, given, name, dtype, flaw):
    with pytest.raises(ValueError, match=f"^{name} must "):
        make(_flawed(given)[flaw])

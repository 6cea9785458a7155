import base64
import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qeep import (
    Spectrum,
    TimeSeries,
    add_noise,
    fig6_spectrum,
    generate_clean,
    hoeffding_shots,
    hoeffding_shots_per_point,
    random_spectrum,
    sample_shots,
)
from qeep.cli import main
from qeep.signal import MAX_SHOTS_PER_POINT, Provenance


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Finite doubles, drawing the signed zeros, subnormals and the largest
# magnitudes often.
EDGE_OR_FINITE = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.7e308, -1.7e308]) | FINITE

PROVENANCES = st.one_of(
    st.just(Provenance.clean()),
    st.builds(Provenance.additive_noise, st.floats(0.0, allow_infinity=False), st.integers(0)),
    st.builds(Provenance.shot_sampled, st.integers(1, MAX_SHOTS_PER_POINT), st.integers(0)),
)


class TestTimeSeriesType:
    def test_first_entry_must_be_one(self):
        with pytest.raises(ValueError):
            TimeSeries(values=np.array([0.9 + 0j, 1.0]), provenance=Provenance.clean())

    def test_non_finite_values_rejected(self):
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            with pytest.raises(ValueError):
                TimeSeries(values=np.array([1.0 + 0j, bad]), provenance=Provenance.clean())

    def test_two_dimensional_values_rejected(self):
        with pytest.raises(ValueError, match="^values must be a finite 1-d array of length "):
            TimeSeries(values=np.ones((2, 2), dtype=complex), provenance=Provenance.clean())

    def test_values_read_only(self):
        ts = generate_clean(fig6_spectrum(), 4)
        with pytest.raises(ValueError):
            ts.values[1] = 0.0

    def test_json_round_trip_preserves_values_and_provenance(self):
        ts = add_noise(generate_clean(fig6_spectrum(), 16), 0.01, 5)
        again = TimeSeries.from_dict(ts.to_dict())
        assert np.array_equal(again.values, ts.values)
        assert again.provenance == ts.provenance

    # Any finite complex128 array whose first entry equals 1, with the signed
    # zeros, subnormals and largest magnitudes drawn explicitly, reads back
    # bit for bit from the JSON text.
    @settings(max_examples=100, deadline=None)
    @example(tail=[(0.0, -0.0), (-0.0, -0.0)], first_im=-0.0, provenance=Provenance.clean())
    @example(
        tail=[(5e-324, -5e-324), (1.7e308, -1.7e308)], first_im=0.0, provenance=Provenance.clean()
    )
    @given(
        tail=st.lists(st.tuples(EDGE_OR_FINITE, EDGE_OR_FINITE), max_size=40),
        first_im=st.sampled_from([0.0, -0.0]),
        provenance=PROVENANCES,
    )
    def test_json_text_round_trip_is_exact_property(self, tail, first_im, provenance):
        values = np.array([complex(1.0, first_im)] + [complex(re, im) for re, im in tail])
        ts = TimeSeries(values=values, provenance=provenance)
        record = ts.to_dict()
        assert len(base64.b64decode(record["values_c16le"])) == 16 * values.size
        again = TimeSeries.from_dict(json.loads(json.dumps(record)))
        assert again.values.tobytes() == values.tobytes()
        assert again.provenance == ts.provenance

    def test_from_dict_rejects_inconsistent_lengths(self):
        record = generate_clean(fig6_spectrum(), 3).to_dict()
        # 64 base64 characters hold the 48 bytes of three entries; 60 hold 45.
        assert len(record["values_c16le"]) == 64
        with pytest.raises(ValueError, match="not a multiple of 16"):
            TimeSeries.from_dict({**record, "values_c16le": record["values_c16le"][:60]})
        with pytest.raises(ValueError, match="n_len"):
            TimeSeries.from_dict({**record, "n_len": 99})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_len", 3.0),
            ("n_len", True),
            ("n_len", "3"),
            ("values_c16le", "AAAA*AAA"),
            ("values_c16le", "AAAA AAA"),
            ("values_c16le", "AAA"),
            ("values_c16le", 5),
            ("values_c16le", ["AAAA"]),
            ("n_len", 10**400),
            ("extra", 3),
            ("provenance", "clean"),
            ("provenance", {"kind": "clean", "extra": 3}),
            ("provenance", {}),
            (None, {"n_len": 3, "provenance": {"kind": "clean"}}),
            (None, [3]),
        ],
        ids=["n_len-float", "n_len-bool", "n_len-string", "payload-star", "payload-space",
             "payload-unpadded", "payload-number", "payload-list", "n_len-oversized",
             "unknown-key", "provenance-string", "provenance-unknown-key", "provenance-empty",
             "no-payload", "record-list"],
    )
    def test_from_dict_rejects_malformed_fields(self, key, value):
        # With ``key`` None, ``value`` is the whole record.
        record = generate_clean(fig6_spectrum(), 3).to_dict()
        with pytest.raises(ValueError):
            TimeSeries.from_dict(value if key is None else {**record, key: value})

    def test_from_dict_rejects_a_character_outside_base64(self):
        record = generate_clean(fig6_spectrum(), 3).to_dict()
        payload = record["values_c16le"]
        for char in "*", "\n", " ":
            with pytest.raises(ValueError, match="not base64"):
                TimeSeries.from_dict({**record, "values_c16le": payload[:32] + char + payload[32:]})

    def test_from_dict_rejects_the_list_format(self):
        ts = generate_clean(fig6_spectrum(), 3)
        record = {
            "n_len": 3,
            "provenance": {"kind": "clean"},
            "values_re": ts.values.real.tolist(),
            "values_im": ts.values.imag.tolist(),
        }
        with pytest.raises(ValueError, match="values_c16le"):
            TimeSeries.from_dict(record)


class TestProvenance:
    @pytest.mark.parametrize(
        "record",
        [
            {"kind": "bogus"},
            {"kind": ["clean"]},
            {"kind": "additive_noise"},
            {"kind": "additive_noise", "eps_prime": 0.01},
            {"kind": "additive_noise", "seed": 5},
            {"kind": "shot_sampled", "seed": 5},
            {"kind": "clean", "seed": 5},
            {"kind": "additive_noise", "eps_prime": 0.01, "seed": 5, "shots_per_point": 9},
            # Values outside each field's type or range.
            {"kind": "additive_noise", "eps_prime": "abc", "seed": -2.5},
            {"kind": "additive_noise", "eps_prime": "0.01", "seed": 5},
            {"kind": "additive_noise", "eps_prime": -0.01, "seed": 5},
            {"kind": "additive_noise", "eps_prime": float("nan"), "seed": 5},
            {"kind": "additive_noise", "eps_prime": float("inf"), "seed": 5},
            {"kind": "additive_noise", "eps_prime": True, "seed": 5},
            {"kind": "additive_noise", "eps_prime": 0.01, "seed": -1},
            {"kind": "additive_noise", "eps_prime": 0.01, "seed": 2.0},
            {"kind": "additive_noise", "eps_prime": 0.01, "seed": False},
            {"kind": "shot_sampled", "shots_per_point": 0, "seed": 5},
            {"kind": "shot_sampled", "shots_per_point": 1.5, "seed": 5},
            {"kind": "shot_sampled", "shots_per_point": True, "seed": 5},
            {"kind": "shot_sampled", "shots_per_point": 9, "seed": "5"},
            # More shots per point than sample_shots can draw.
            {"kind": "shot_sampled", "shots_per_point": 2**70, "seed": 1},
            {"kind": "shot_sampled", "shots_per_point": MAX_SHOTS_PER_POINT + 1, "seed": 1},
        ],
    )
    def test_malformed_record_rejected(self, record):
        with pytest.raises(ValueError):
            Provenance.from_dict(record)
        with pytest.raises(ValueError):
            Provenance(**record)


    @pytest.mark.parametrize(
        "record",
        [
            {"kind": "clean"},
            {"kind": "additive_noise", "eps_prime": 0.0, "seed": 0},
            {"kind": "additive_noise", "eps_prime": 0, "seed": 2**70},
            {"kind": "shot_sampled", "shots_per_point": 1, "seed": 0},
            {"kind": "shot_sampled", "shots_per_point": MAX_SHOTS_PER_POINT, "seed": 0},
        ],
    )
    def test_edge_values_accepted(self, record):
        assert Provenance.from_dict(record).to_dict() == record

    # Each kind reads back equal, and writes the same JSON text, so a stored
    # -0.0 keeps its sign.
    @settings(max_examples=60, deadline=None)
    @example(provenance=Provenance.clean())
    @example(provenance=Provenance.additive_noise(-0.0, 0))
    @example(provenance=Provenance.additive_noise(5e-324, 2**70))
    @example(provenance=Provenance.additive_noise(1.7976931348623157e308, 1))
    @example(provenance=Provenance.shot_sampled(MAX_SHOTS_PER_POINT, 0))
    @given(provenance=PROVENANCES)
    def test_json_text_round_trip_is_exact_property(self, provenance):
        text = json.dumps(provenance.to_dict())
        again = Provenance.from_dict(json.loads(text))
        assert again == provenance
        assert json.dumps(again.to_dict()) == text

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            Provenance.from_dict({"kind": "clean", "bogus": 3})
        with pytest.raises(ValueError, match="bogus"):
            Provenance.from_dict({"kind": "additive_noise", "eps_prime": 0.01, "seed": 5, "bogus": 3})

    def test_constructors_accept_numpy_numbers(self):
        prov = Provenance.additive_noise(np.float64(0.01), np.int64(3))
        assert prov == Provenance(kind="additive_noise", eps_prime=0.01, seed=3)
        assert Provenance.shot_sampled(np.int64(9), 2).shots_per_point == 9

    def test_numpy_numbers_are_stored_as_python_numbers(self):
        prov = Provenance(kind="shot_sampled", shots_per_point=np.uint32(9), seed=np.int64(2))
        assert json.dumps(prov.to_dict()) == '{"kind": "shot_sampled", "seed": 2, "shots_per_point": 9}'
        prov = Provenance(kind="additive_noise", eps_prime=np.float32(0.5), seed=np.int8(1))
        assert json.dumps(prov.to_dict()) == '{"kind": "additive_noise", "eps_prime": 0.5, "seed": 1}'


# A count or seed of 1.5 or True is no integer: the provenance rejects it
# before any draw, where the binomial sampler would truncate 1.5 to 1 and the
# generator would read True as seed 1.
@pytest.mark.parametrize("bad", [1.5, True], ids=["float", "bool"])
@pytest.mark.parametrize(
    "make, name",
    [
        (lambda bad: sample_shots(fig6_spectrum(), 6, bad, 0), "shots_per_point"),
        (lambda bad: sample_shots(fig6_spectrum(), 6, 3, bad), "seed"),
        (lambda bad: add_noise(generate_clean(fig6_spectrum(), 6), 0.01, bad), "seed"),
        (lambda bad: Provenance.shot_sampled(bad, 0), "shots_per_point"),
        (lambda bad: Provenance.shot_sampled(3, bad), "seed"),
        (lambda bad: Provenance.additive_noise(0.01, bad), "seed"),
    ],
    ids=["sample_shots-count", "sample_shots-seed", "add_noise-seed", "shot_sampled-count",
         "shot_sampled-seed", "additive_noise-seed"],
)
def test_non_integer_count_or_seed_rejected_before_any_draw(monkeypatch, make, name, bad):
    def no_draw(seed=None):
        raise AssertionError(f"a generator was opened with seed {seed!r}")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        make(bad)


def test_numpy_number_arguments_write_the_same_record():
    spec = fig6_spectrum()
    clean = generate_clean(spec, 8)
    pairs = [
        (add_noise(clean, np.float64(0.01), np.int64(3)), add_noise(clean, 0.01, 3)),
        (sample_shots(spec, 8, np.int64(50), np.uint16(4)), sample_shots(spec, 8, 50, 4)),
    ]
    for numpy_args, python_args in pairs:
        assert json.dumps(numpy_args.to_dict()) == json.dumps(python_args.to_dict())


class TestGenerateClean:
    def test_zero_eigenvalue_gives_constant_signal(self):
        spec = Spectrum(lambdas=[0.0], weights=[1.0])
        ts = generate_clean(spec, 4)
        assert np.array_equal(ts.values, np.ones(4, dtype=complex))

    def test_first_value_is_one(self):
        for seed in range(5):
            ts = generate_clean(random_spectrum(5, seed), 8)
            assert ts.values[0] == 1.0 + 0.0j

    def test_fig6_k1_matches_five_term_reference_sum(self):
        # Independent reference: direct five-term complex accumulation.
        expected = 0.0 + 0.0j
        for lam, w in fig6_spectrum().entries:
            expected += w * cmath.exp(-1j * lam)
        ts = generate_clean(fig6_spectrum(), 2)
        assert ts.values[1] == pytest.approx(expected, abs=1e-14)
        assert expected.real == pytest.approx(0.9574570986708473, abs=1e-12)

    def test_all_values_match_reference_sum(self):
        spec = random_spectrum(4, 11)
        ts = generate_clean(spec, 10)
        for k in range(10):
            ref = sum(w * cmath.exp(-1j * lam * k) for lam, w in spec.entries)
            assert ts.values[k] == pytest.approx(ref, abs=1e-13)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            generate_clean(fig6_spectrum(), 0)

    @pytest.mark.parametrize("n", [4097, 8193])
    @pytest.mark.parametrize("d", [5, 64])
    def test_blocked_synthesis_matches_the_single_product_bit_for_bit(self, d, n):
        # Two and three blocks of the phase table against the whole N x D product.
        spec = random_spectrum(d, 1)
        whole = np.exp(-1j * np.outer(np.arange(n), spec.lambdas)) @ spec.weights.astype(complex)
        whole[0] = 1.0
        assert generate_clean(spec, n).values.tobytes() == whole.tobytes()


class TestAddNoise:
    def test_zero_noise_is_identity(self):
        ts = generate_clean(fig6_spectrum(), 32)
        out = add_noise(ts, 0.0, 7)
        assert np.array_equal(out.values, ts.values)

    def test_perturbation_bounded_by_eps_prime(self):
        ts = generate_clean(fig6_spectrum(), 64)
        for seed in range(10):
            out = add_noise(ts, 0.005, seed)
            assert out.values[0] == 1.0 + 0.0j
            assert np.max(np.abs(out.values[1:] - ts.values[1:])) <= 0.005 + 1e-15

    def test_deterministic_in_seed(self):
        ts = generate_clean(fig6_spectrum(), 32)
        a = add_noise(ts, 0.01, 42)
        b = add_noise(ts, 0.01, 42)
        assert np.array_equal(a.values, b.values)

    def test_l1_budget_holds_with_scaled_noise(self):
        # Per-entry magnitude eps/n keeps the total L1 perturbation below eps.
        eps, n = 0.25, 414
        ts = generate_clean(fig6_spectrum(), n)
        for seed in range(5):
            out = add_noise(ts, eps / n, seed)
            assert np.sum(np.abs(out.values - ts.values)) <= eps

    def test_magnitudes_bounded_by_one_plus_eps_prime(self):
        for seed in range(5):
            out = add_noise(generate_clean(random_spectrum(5, seed), 32), 0.05, seed)
            assert np.max(np.abs(out.values)) <= 1.0 + 0.05 + 1e-15

    def test_requires_clean_input(self):
        noisy = add_noise(generate_clean(fig6_spectrum(), 8), 0.01, 1)
        with pytest.raises(ValueError):
            add_noise(noisy, 0.01, 2)

    def test_negative_eps_prime_rejected(self):
        with pytest.raises(ValueError):
            add_noise(generate_clean(fig6_spectrum(), 8), -0.1, 1)

    @pytest.mark.parametrize("eps_prime", [math.nan, math.inf, -math.inf])
    def test_non_finite_eps_prime_rejected(self, eps_prime):
        with pytest.raises(ValueError, match=r"eps_prime must lie in \[0, "):
            add_noise(generate_clean(fig6_spectrum(), 8), eps_prime, 1)


class TestSampleShots:
    def test_certain_outcome_is_exact(self):
        spec = Spectrum(lambdas=[0.0], weights=[1.0])
        ts = sample_shots(spec, 6, 13, 3)
        assert np.array_equal(ts.values.real, np.ones(6))

    def test_deterministic_in_seed(self):
        a = sample_shots(fig6_spectrum(), 8, 100, 9)
        b = sample_shots(fig6_spectrum(), 8, 100, 9)
        assert np.array_equal(a.values, b.values)

    def test_magnitudes_bounded_by_sqrt_two(self):
        # each quadrature mean lies in [-1, 1]
        for seed in range(5):
            ts = sample_shots(random_spectrum(5, seed), 16, 7, seed)
            assert np.max(np.abs(ts.values)) <= math.sqrt(2.0) + 1e-15

    def test_sample_mean_is_unbiased(self):
        spec = fig6_spectrum()
        g = generate_clean(spec, 4).values
        draws = np.stack([sample_shots(spec, 4, 50, seed).values for seed in range(1000)])
        for k in (1, 2, 3):
            for part in ("real", "imag"):
                samples = getattr(draws[:, k], part)
                se = samples.std(ddof=1) / math.sqrt(samples.size)
                assert abs(samples.mean() - getattr(g[k], part)) <= 4.0 * se

    def test_error_shrinks_as_inverse_sqrt_shots(self):
        spec = fig6_spectrum()
        g = generate_clean(spec, 8).values
        shot_counts = (100, 1_000, 10_000, 100_000)
        errs = []
        for shots in shot_counts:
            per_seed = [
                np.abs(sample_shots(spec, 8, shots, seed).values[1:] - g[1:]).mean()
                for seed in range(40)
            ]
            errs.append(np.mean(per_seed))
        slope = np.polyfit(np.log10(shot_counts), np.log10(errs), 1)[0]
        assert -0.65 < slope < -0.35

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            sample_shots(fig6_spectrum(), 4, 0, 1)

    def test_shot_count_bound_is_what_binomial_takes(self):
        ts = sample_shots(fig6_spectrum(), 4, MAX_SHOTS_PER_POINT, 1)
        assert np.all(np.abs(ts.values.real) <= 1.0) and np.all(np.abs(ts.values.imag) <= 1.0)
        with pytest.raises(ValueError, match="shots_per_point must lie in"):
            sample_shots(fig6_spectrum(), 4, MAX_SHOTS_PER_POINT + 1, 1)


class TestHoeffdingShots:
    def test_reference_configuration(self):
        assert hoeffding_shots(566, 0.005, 0.99) == 526_919_351

    def test_small_case_formula(self):
        # ceil(2 * ln(4)) = 3
        assert hoeffding_shots(1, 1.0, 0.5) == 3

    def test_monotone_in_signal_length(self):
        base = hoeffding_shots(100, 0.01, 0.95)
        assert hoeffding_shots(200, 0.01, 0.95) > 2 * base - 1

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            hoeffding_shots(0, 0.01, 0.9)
        with pytest.raises(ValueError):
            hoeffding_shots(10, 0.0, 0.9)
        with pytest.raises(ValueError):
            hoeffding_shots(10, 0.01, 1.0)

    @pytest.mark.parametrize("eps_prime", [math.inf, math.nan])
    def test_non_finite_eps_prime_rejected(self, eps_prime):
        with pytest.raises(ValueError, match=r"eps_prime must lie in \[5e-324, "):
            hoeffding_shots(10, eps_prime, 0.9)

    # 1e-200**2 is zero (ZeroDivisionError), 2 * 10 / 1e-160**2 is infinite
    # (OverflowError in ceil).
    @pytest.mark.parametrize("eps_prime", [1e-200, 1e-160])
    def test_count_that_is_not_finite_rejected(self, eps_prime):
        with pytest.raises(ValueError, match="no finite shot count"):
            hoeffding_shots(10, eps_prime, 0.9)

    # Past about 1.34e154, eps_prime**2 overflows but the count does not: the
    # planners divide by eps_prime twice there, so the count keeps falling
    # across the boundary to 1, the least.
    @pytest.mark.parametrize(
        "n_len, eps_prime, count",
        [(10**306, 1.3e154, 9), (10**306, 1.35e154, 8), (10**306, 1e160, 1), (10, 1e200, 1)],
        ids=["square-finite", "square-overflows", "far-past", "short-signal"],
    )
    def test_eps_prime_whose_square_overflows_gives_its_count(self, n_len, eps_prime, count):
        assert hoeffding_shots(n_len, eps_prime, 0.9) == count

    # The union over 1 - confidence is past the doubles for these, but its log
    # is not: the planners take the difference of the two logs there.
    @pytest.mark.parametrize(
        "planner, n_len, eps_prime, confidence, count",
        [
            (hoeffding_shots, 10**300, 1.0, 0.9999999999999999, pytest.approx(1.4564e303, rel=1e-4)),
            (hoeffding_shots_per_point, 10**300, 1.0, 0.9999999999999999, 2916),
            (hoeffding_shots_per_point, 10**307, 1e200, 0.9, 1),
        ],
        ids=["total", "per-point", "per-point-square-overflows"],
    )
    def test_union_whose_ratio_overflows_gives_its_count(
        self, planner, n_len, eps_prime, confidence, count
    ):
        assert planner(n_len, eps_prime, confidence) == count


# Both planners check eps_prime in [5e-324, largest double] and confidence in
# [5e-324, 0.9999999999999999], the doubles of (0, inf) and (0, 1). A value
# the check accepts gives a count, 1 at the largest eps_prime, or "no finite
# shot count" where eps_prime**2 underflows to zero; one it rejects raises a
# ValueError naming the parameter.
@pytest.mark.parametrize("planner", [hoeffding_shots, hoeffding_shots_per_point])
@pytest.mark.parametrize(
    "name, value, accepted",
    [
        ("eps_prime", 5e-324, True),
        ("eps_prime", 1.7976931348623157e308, True),
        ("confidence", 5e-324, True),
        ("confidence", 0.9999999999999999, True),
        ("confidence", 1.0, False),
    ]
    + [
        (name, value, False)
        for name in ("eps_prime", "confidence")
        for value in (0.0, -0.0, math.nan, math.inf, -math.inf, True, "0.1")
    ],
)
def test_planner_ranges_are_the_open_intervals_over_doubles(planner, name, value, accepted):
    args = {"n_len": 10, "eps_prime": 0.1, "confidence": 0.9, name: value}
    if not accepted:
        with pytest.raises(ValueError, match=f"^{name} must "):
            planner(**args)
    elif name == "eps_prime" and value < 1:
        with pytest.raises(ValueError, match="^no finite shot count"):
            planner(**args)
    elif name == "eps_prime":
        assert planner(**args) == 1
    else:
        assert planner(**args) >= 1


class TestHoeffdingShotsPerPoint:
    def test_reference_value(self):
        # ceil((4 / 0.005**2) * ln(4 * 565 / 0.01)), 267x below C11's total.
        assert hoeffding_shots_per_point(566, 0.005, 0.99) == 1_972_527

    def test_small_case_formula(self):
        # ceil(4 * ln(4 * 1 / 0.5)) = ceil(8.32) = 9
        assert hoeffding_shots_per_point(2, 1.0, 0.5) == 9

    def test_one_entry_signal_samples_the_least_count(self):
        assert hoeffding_shots_per_point(1, 0.01, 0.9) == 1

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, 0.01, 0.9), r"n_len must lie in \[1, "),
            ((1, 0.0, 0.9), r"eps_prime must lie in \[5e-324, "),
            ((1, math.nan, 0.9), r"eps_prime must lie in \[5e-324, "),
            ((10, 0.01, 1.0), r"confidence must lie in \[5e-324, 0\.9999999999999999\]"),
            ((10, 1e-200, 0.9), "no finite shot count"),
        ],
    )
    def test_invalid_arguments_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            hoeffding_shots_per_point(*args)

    @pytest.mark.parametrize("seed", range(5))
    def test_every_entry_within_eps_prime(self, seed):
        spec = random_spectrum(3, seed)
        shots = hoeffding_shots_per_point(64, 0.1, 0.9)
        error = sample_shots(spec, 64, shots, seed).values - generate_clean(spec, 64).values
        assert np.max(np.abs(error)) <= 0.1


def test_csv_export_columns_and_determinism(tmp_path):
    spec = tmp_path / "spec.json"
    assert main(["synth", "--fig6", "--out", str(spec)]) == 0
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (p1, p2):
        argv = ["signal", "--spectrum", str(spec), "--n", "8", "--noise", "0.01", "--seed", "4",
                "--out", str(tmp_path / "sig.json"), "--csv", str(path)]
        assert main(argv) == 0
    lines = p1.read_text().splitlines()
    assert lines[0] == "k,re,im"
    assert len(lines) == 9
    assert lines[1].startswith("0,1,0")
    assert p1.read_bytes() == p2.read_bytes()

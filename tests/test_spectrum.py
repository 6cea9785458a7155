import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qeep import Spectrum, exact_moment, fig6_spectrum, random_spectrum

FIG6_PAIRS = [(-0.134, 0.33), (-0.130, 0.08), (0.208, 0.20), (0.408, 0.18), (0.438, 0.21)]


class TestSpectrumType:
    def test_entries_sorted_ascending(self):
        spec = Spectrum(lambdas=[0.3, -0.2, 0.1], weights=[0.5, 0.25, 0.25])
        assert [l for l, _ in spec.entries] == [-0.2, 0.1, 0.3]

    def test_duplicate_lambdas_merged_by_weight_sum(self):
        spec = Spectrum(lambdas=[0.1, 0.1, -0.3], weights=[0.2, 0.3, 0.5])
        assert len(spec) == 2
        assert spec.entries == [(-0.3, 0.5), (0.1, 0.5)]

    def test_rejects_lambda_out_of_range(self):
        with pytest.raises(ValueError):
            Spectrum(lambdas=[0.51], weights=[1.0])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            Spectrum(lambdas=[0.0, 0.1], weights=[1.5, -0.5])

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ValueError):
            Spectrum(lambdas=[0.0], weights=[0.999])

    def test_immutable_arrays(self):
        spec = fig6_spectrum()
        with pytest.raises(ValueError):
            spec.lambdas[0] = 0.0

    def test_json_round_trip(self):
        spec = random_spectrum(7, 99)
        again = Spectrum.from_dict(spec.to_dict())
        assert np.array_equal(again.lambdas, spec.lambdas)
        assert np.array_equal(again.weights, spec.weights)

    @pytest.mark.parametrize(
        "record",
        [
            {"entries": [{"lambda": "0.1", "weight": True}]},
            {"entries": [{"lambda": "0.1", "weight": 1.0}]},
            {"entries": [{"lambda": 0.1, "weight": True}]},
            {"entries": [{"lambda": 0.1, "weight": "1"}]},
            {"entries": [{"lambda": [0.1], "weight": 1.0}]},
            {"entries": [{"lambda": None, "weight": 1.0}]},
            {"entries": [{"lambda": 10**400, "weight": 1.0}]},
            {"entries": [[0.1, 1.0]]},
            {"entries": [{"lambda": 0.1, "weight": 1.0, "extra": 3}]},
            {"entries": [{"lambda": 0.1}]},
            {"entries": 5},
            {"entries": [{"lambda": 0.1, "weight": 1.0}], "extra": 3},
            {},
            [{"lambda": 0.1, "weight": 1.0}],
        ],
        ids=["string-and-bool", "string-lambda", "bool-weight", "string-weight", "list-lambda",
             "null-lambda", "oversized-integer", "entry-list", "entry-unknown-key",
             "entry-without-weight", "entries-number", "unknown-key", "empty-record",
             "record-list"],
    )
    def test_from_dict_rejects_non_numbers(self, record):
        with pytest.raises(ValueError):
            Spectrum.from_dict(record)

    @settings(max_examples=60, deadline=None)
    @example(entries=[(-0.0, 1.0)])
    @example(entries=[(-0.5, 0.1), (0.5, 0.2), (5e-324, 0.7)])
    @given(
        entries=st.lists(
            st.tuples(st.floats(-0.5, 0.5), st.floats(0.0, 1.0)), min_size=1, max_size=12
        ).filter(lambda e: sum(w for _, w in e) > 0)
    )
    def test_json_text_round_trip_is_exact_property(self, entries):
        lambdas, weights = np.array(entries).T
        spec = Spectrum(lambdas=lambdas, weights=weights / weights.sum())
        again = Spectrum.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again.lambdas.tobytes() == spec.lambdas.tobytes()
        assert again.weights.tobytes() == spec.weights.tobytes()


class TestRandomSpectrum:
    def test_single_entry_has_weight_one(self):
        spec = random_spectrum(1, 123)
        assert spec.weights[0] == 1.0

    def test_invariants_hold_for_many_seeds(self):
        for seed in range(50):
            spec = random_spectrum(5, seed)
            assert len(spec) == 5
            assert abs(spec.weights.sum() - 1.0) <= 1e-12
            assert np.all(np.abs(spec.lambdas) <= 0.5)

    def test_deterministic_in_seed(self):
        a = random_spectrum(5, 42)
        b = random_spectrum(5, 42)
        assert np.array_equal(a.lambdas, b.lambdas)
        assert np.array_equal(a.weights, b.weights)

    def test_zero_d_rejected(self):
        with pytest.raises(ValueError):
            random_spectrum(0, 1)


class TestFig6Spectrum:
    def test_entries_match_reference_values(self):
        assert fig6_spectrum().entries == [(l, w) for l, w in FIG6_PAIRS]

    def test_weights_sum_to_one_exactly(self):
        assert fig6_spectrum().weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_minimum_gap(self):
        lam = fig6_spectrum().lambdas
        assert np.min(np.diff(lam)) == pytest.approx(0.004, abs=1e-12)


class TestExactMoment:
    def test_zeroth_moment_is_one(self):
        for seed in (0, 1, 2):
            assert exact_moment(random_spectrum(4, seed), 0) == pytest.approx(1.0, abs=1e-12)

    def test_single_entry_power(self):
        spec = Spectrum(lambdas=[0.5], weights=[1.0])
        assert exact_moment(spec, 2) == pytest.approx(0.25, abs=1e-15)

    def test_fig6_first_moment_against_hand_sum(self):
        # Independent reference: plain accumulation over the five pairs.
        expected = 0.0
        for lam, w in FIG6_PAIRS:
            expected += w * lam
        assert expected == pytest.approx(0.1524, abs=1e-10)
        assert exact_moment(fig6_spectrum(), 1) == pytest.approx(expected, abs=1e-15)

    def test_moment_magnitude_bounded_by_half_power(self):
        for seed in range(20):
            spec = random_spectrum(6, seed)
            for s in (1, 2, 3, 5, 8):
                assert abs(exact_moment(spec, s)) <= 2.0**-s + 1e-15

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            exact_moment(fig6_spectrum(), -1)

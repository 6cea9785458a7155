import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qeep import (
    MpEstimate,
    NumericError,
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
    solve_amplitudes,
    solve_pencil,
)
from qeep.matrix_pencil import _eigenphase_pairs
from qeep.signal import Provenance


def point_mass(lam: float) -> Spectrum:
    return Spectrum(lambdas=[lam], weights=[1.0])


class TestBuildHankel:
    def test_shape_and_corner_entries(self):
        ts = generate_clean(fig6_spectrum(), 3)
        h = build_hankel(ts, 2)
        assert h.shape == (2, 4)
        # entry (l, c) = g_{l + c - N + 1}; (0, 0) reaches g_{-2}.
        assert h[0, 0] == np.conj(ts.values[2])
        assert h[1, 2] == ts.values[1]
        assert h[1, 3] == ts.values[2]

    def test_hand_built_reference(self):
        ts = generate_clean(fig6_spectrum(), 4)
        g = ts.values
        full = {k: g[k] for k in range(4)}
        full.update({-k: np.conj(g[k]) for k in range(1, 4)})
        h = build_hankel(ts, 2)
        for l in range(2):
            for c in range(6):
                assert h[l, c] == full[l + c - 4 + 1]

    def test_shift_advances_every_index_by_one(self):
        # The pencil pair is the column windows H0 = H[:, :-1], H1 = H[:, 1:];
        # H1 is H0 with every index advanced by one, i.e. H0 one row down.
        ts = generate_clean(fig6_spectrum(), 5)
        h = build_hankel(ts, 3)
        h0, h1 = h[:, :-1], h[:, 1:]
        assert np.array_equal(h1[:-1], h0[1:])

    def test_constant_signal_gives_all_ones(self):
        ts = generate_clean(point_mass(0.0), 4)
        assert np.array_equal(build_hankel(ts, 2), np.ones((2, 6), dtype=complex))

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
        assert h.shape == (l_dim, 2 * n - l_dim)
        index = np.arange(l_dim)[:, None] + np.arange(2 * n - l_dim)[None, :] - n + 1
        expected = np.where(index >= 0, g[np.abs(index)], np.conj(g[np.abs(index)]))
        assert np.array_equal(h, expected)


def pencil_pair(ts, l_dim):
    h = build_hankel(ts, l_dim)
    return h[:, :-1], h[:, 1:]


class TestSolvePencil:
    def test_single_eigenvalue_rank_one_shift(self):
        lam = 0.37
        ts = generate_clean(point_mass(lam), 8)
        k = solve_pencil(*pencil_pair(ts, 3))
        mu = np.linalg.eigvals(k)
        top = mu[np.argmax(np.abs(mu))]
        assert top == pytest.approx(np.exp(-1j * lam), abs=1e-10)

    def test_identity_shift_has_unit_eigenvalue(self):
        # rank-1 signal: K = h0 @ pinv(h0) projects onto the signal subspace,
        # so the spectrum is one unit eigenvalue plus zeros.
        ts = generate_clean(point_mass(0.0), 6)
        h0, _ = pencil_pair(ts, 2)
        mu = np.sort(np.abs(np.linalg.eigvals(solve_pencil(h0, h0))))
        assert mu[-1] == pytest.approx(1.0, abs=1e-10)
        assert np.all(mu[:-1] <= 1e-10)

    def test_rank_structure_for_five_lines(self):
        ts = generate_clean(fig6_spectrum(), 20)
        k = solve_pencil(*pencil_pair(ts, 10))
        mu = np.sort(np.abs(np.linalg.eigvals(k)))
        assert np.all(np.abs(mu[-5:] - 1.0) <= 1e-6)
        assert np.all(mu[:-5] <= 1e-6)

    def test_residual_of_noiseless_pencil(self):
        ts = generate_clean(fig6_spectrum(), 20)
        h0, h1 = pencil_pair(ts, 10)
        k = solve_pencil(h0, h1)
        assert np.linalg.norm(k @ h0 - h1) <= 1e-8

    def test_zero_pencil_rejected(self):
        zero = np.zeros((2, 3), dtype=complex)
        with pytest.raises(NumericError):
            solve_pencil(zero, zero)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_pencil(np.ones((2, 3)), np.ones((2, 4)))


class TestPencilEigenphases:
    def test_diagonal_case(self):
        k = np.diag([np.exp(-1j * 0.3)])
        phases, mu = _eigenphase_pairs(k)
        assert phases == pytest.approx([0.3], abs=1e-14)
        assert mu == pytest.approx([np.exp(-1j * 0.3)], abs=1e-14)

    def test_sorted_and_in_half_open_interval(self):
        k = np.diag([np.exp(-1j * 0.5), np.exp(1j * 0.2), -1.0])
        phases = np.sort(_eigenphase_pairs(k)[0])
        assert np.all(np.diff(phases) >= 0)
        assert np.all((phases > -math.pi) & (phases <= math.pi))
        # -1 = exp(-i*pi): the phase lands on pi, not -pi.
        assert phases[-1] == pytest.approx(math.pi, abs=1e-12)


class TestSolveAmplitudes:
    def test_single_line_unit_amplitude(self):
        ts = generate_clean(point_mass(0.2), 4)
        fit = solve_amplitudes(np.array([0.2]), ts, 1)
        assert fit.amplitudes[0] == pytest.approx(1.0, abs=1e-12)
        assert fit.rank == 1

    def test_exact_phases_recover_weights(self):
        spec = fig6_spectrum()
        ts = generate_clean(spec, 12)
        fit = solve_amplitudes(spec.lambdas, ts, 5)
        assert np.max(np.abs(fit.amplitudes.real - spec.weights)) <= 1e-6
        assert np.max(np.abs(fit.amplitudes.imag)) <= 1e-6
        assert fit.residual <= 1e-8

    def test_duplicate_phases_finite_solution(self):
        ts = generate_clean(point_mass(0.1), 6)
        fit = solve_amplitudes(np.array([0.1, 0.1, 0.1]), ts, 3)
        assert np.all(np.isfinite(fit.amplitudes))
        assert fit.rank < 3
        assert fit.residual <= 1e-10

    def test_length_validation(self):
        ts = generate_clean(fig6_spectrum(), 4)
        with pytest.raises(ValueError):
            solve_amplitudes(np.array([0.1, 0.2]), ts, 3)
        with pytest.raises(ValueError):
            solve_amplitudes(np.arange(5.0), ts, 5)


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

    def test_json_round_trip(self):
        est = mp_estimate(generate_clean(fig6_spectrum(), 20), 10)
        again = MpEstimate.from_dict(est.to_dict())
        assert np.array_equal(again.eigenphases, est.eigenphases)
        assert np.array_equal(again.amplitudes, est.amplitudes)
        assert again.l_dim == est.l_dim


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

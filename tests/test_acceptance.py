"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines. Two checks are marked strict-xfail because they are
mathematically unattainable exactly as stated; each carries an inline
explanation and a passing sharp counterpart elsewhere in the suite.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from qeep import (
    Spectrum,
    add_noise,
    bin_centers,
    build_filterbank,
    bump_fourier,
    dft,
    estimate_bins,
    estimate_moment,
    exact_bins,
    exact_moment,
    fig6_spectrum,
    filter_values,
    generate_clean,
    hoeffding_shots,
    hoeffding_shots_per_point,
    mp_estimate,
    random_spectrum,
    sample_shots,
    truncated_bins,
)
from qeep._plan import moment_bound
from qeep.cli import main
from qeep.filterbank import BUMP_NORM, SQRT_2PI, _radial


def _report(cid: str, name: str, detail: str = "") -> None:
    line = f"ACCEPTANCE {cid} {name}: PASS"
    if detail:
        line += f" ({detail})"
    print(line)


def test_c01_bump_normalization():
    a = BUMP_NORM
    assert 2.24 <= a <= 2.26
    xs = np.linspace(-1.0, 1.0, 20_001)
    with np.errstate(divide="ignore", over="ignore"):
        ys = np.where(np.abs(xs) < 1.0, np.exp(-1.0 / (1.0 - xs**2)), 0.0)
    oracle = 1.0 / np.trapezoid(ys, xs)
    assert abs(a - oracle) <= 1e-6
    _report("C01", "bump-normalization", f"a={a:.9f}")


def test_c02_partition_of_unity():
    start = time.perf_counter()
    for eps in (0.25, 0.005):
        xs = np.linspace(-0.5, 0.5, 201)
        table = filter_values(xs, eps)
        total = table.sum(axis=0)
        assert np.max(np.abs(total - 1.0)) <= 1e-9
        centers = bin_centers(eps)
        for j in range(centers.size):
            outside = np.abs(xs - centers[j]) >= eps
            assert np.all(table[j, outside] == 0.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("C02", "partition-of-unity", f"{elapsed:.1f}s")


def test_c03_coefficient_identities(bank_paper):
    eps = bank_paper.eps
    zero_column = np.array([bank_paper.row(j)[0] for j in range(bank_paper.m_bins)])
    assert np.max(np.abs(zero_column - eps / SQRT_2PI)) <= 1e-10
    for j, k in ((0, 1), (57, 13), (200, 565)):
        # F_j(-k) = radial(-k) * exp(i*center_j*k) is conj(F_j(k)) because the
        # radial profile is real and even.
        assert _radial(-k, eps) == _radial(k, eps)
        f_minus = _radial(-k, eps) * np.exp(1j * bank_paper.centers[j] * k)
        assert f_minus == pytest.approx(np.conj(bank_paper.row(j)[k]), abs=1e-15)
        # The closed form 2*H(k*eps/2)*sin(k*eps/2)/k * exp(-i*center_j*k).
        closed = 2.0 * bump_fourier(k * eps / 2.0) * math.sin(k * eps / 2.0) / k
        closed *= np.exp(-1j * bin_centers(eps)[j] * k)
        assert bank_paper.row(j)[k] == pytest.approx(closed, abs=1e-13)
    _report("C03", "coefficient-identities")


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: the k = 0 coefficient is exactly "
    "eps/sqrt(2*pi), which already exceeds the stated cap eps/(2*pi); the "
    "sharp bound eps/sqrt(2*pi) is verified in test_filterbank.py",
)
def test_c03_coefficient_cap_as_stated(bank_paper):
    eps = bank_paper.eps
    max_mag = max(float(np.max(np.abs(bank_paper.row(j)))) for j in range(bank_paper.m_bins))
    print(
        "ACCEPTANCE C03 coefficient-cap-as-stated: FAIL "
        f"(max |F|={max_mag:.6g} vs stated cap {eps / (2 * math.pi):.6g}; "
        f"sharp cap {eps / SQRT_2PI:.6g} holds)"
    )
    assert max_mag <= eps / (2.0 * math.pi) + 1e-12


def test_c04_decay_regime():
    kps = np.linspace(10.0, 900.0, 8901)
    assert np.all(np.abs(bump_fourier(kps)) <= np.exp(-np.sqrt(kps)))
    _report("C04", "decay-regime", f"bound holds on kp={kps[0]:g}..{kps[-1]:g}")


def _series_table(bank, xs) -> np.ndarray:
    """Truncated series of every filter on ``xs``, ``table[j, i] = f_j(xs[i])``,
    as the estimator's own sum on one-line spectra."""
    return np.column_stack(
        [truncated_bins(Spectrum(lambdas=[x], weights=[1.0]), bank).values for x in xs]
    )


def test_c05_series_quadrature_convergence(bank_quarter_strict):
    eps = 0.25
    xs = np.linspace(-0.5, 0.5, 101)
    exact_table = filter_values(xs, eps)
    errors = []
    for n in (50, 100, 200, 400, 800):
        series = _series_table(build_filterbank(eps, n), xs)
        errors.append(float(np.max(np.abs(series - exact_table))))
    assert all(b < a for a, b in zip(errors, errors[1:]))
    strict_bank = bank_quarter_strict
    worst_strict = float(np.max(np.abs(_series_table(strict_bank, xs) - exact_table)))
    assert worst_strict <= eps / (2 * strict_bank.m_bins)
    _report(
        "C05",
        "series-quadrature-convergence",
        f"errors {['%.2e' % e for e in errors]}, strict gap {worst_strict:.2e}",
    )


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: at N = 566 the dropped-series sidelobes "
    "contribute ~1e-3 per bin across 201 bins, so the L1 distance is O(1) "
    "rather than eps/2; the bound does hold at the strict truncation order "
    "(see C07 and test_ts_estimator.py), and moment errors at N = 566 stay "
    "small because the sidelobes cancel (see C08, C10)",
)
def test_c06_noiseless_l1_as_stated(bank_paper):
    eps = bank_paper.eps
    worst = 0.0
    for seed in range(20):
        spec = random_spectrum(5, seed)
        q = estimate_bins(generate_clean(spec, bank_paper.n_trunc), bank_paper)
        p = exact_bins(spec, eps)
        worst = max(worst, float(np.abs(q.values - p.values).sum()))
    print(
        "ACCEPTANCE C06 noiseless-l1-as-stated: FAIL "
        f"(worst L1={worst:.3f} vs stated bound {eps / 2})"
    )
    assert worst <= eps / 2


def test_c07_noisy_l1_bound(bank_quarter_strict, bank_mid_strict):
    worst_ratio = 0.0
    for bank in (bank_quarter_strict, bank_mid_strict):
        eps = bank.eps
        for seed in range(10):
            spec = random_spectrum(5, seed + 500)
            clean = generate_clean(spec, bank.n_trunc)
            noisy = add_noise(clean, eps / bank.n_trunc, seed)
            assert np.abs(noisy.values - clean.values).sum() <= eps
            q = estimate_bins(noisy, bank)
            p = exact_bins(spec, eps)
            l1 = float(np.abs(q.values - p.values).sum())
            assert l1 <= eps
            worst_ratio = max(worst_ratio, l1 / eps)
    _report("C07", "noisy-l1-bound", f"20 runs, worst L1/eps={worst_ratio:.2e}")


def test_c08_reference_table_bands(tmp_path):
    # The shipped path: `reproduce fig5` at the paper's defaults, whose seeds
    # run on the CLI's thread pool.
    start = time.perf_counter()
    assert main(["reproduce", "fig5", "--outdir", str(tmp_path)]) == 0
    parameters = json.loads((tmp_path / "fig5_summary.json").read_text())["parameters"]
    assert parameters == {
        "eps": 0.005,
        "eps_prime": 0.005,
        "m_bins": 201,
        "n_trunc": 566,
        "l_dim": 565,
        "d_spectrum": 5,
        "seeds": [1, 2, 3, 4, 5],
    }
    bands = {1: 1.5, 2: 0.6, 4: 0.3}
    delta_ts = {s: [] for s in bands}
    delta_mp = {s: [] for s in bands}
    with open(tmp_path / "fig5_deltas.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            s = int(row["s"])
            delta_ts[s].append(float(row["delta_ts"]))
            delta_mp[s].append(float(row["delta_mp"]))
    for s, band in bands.items():
        assert len(delta_ts[s]) == 5
        within = sum(abs(d) <= band for d in delta_ts[s])
        assert within >= 4, f"s={s}: only {within}/5 runs within |delta|<={band}"
    mean_mp4 = float(np.mean(np.abs(delta_mp[4])))
    mean_ts4 = float(np.mean(np.abs(delta_ts[4])))
    assert mean_mp4 > mean_ts4
    elapsed = time.perf_counter() - start
    assert elapsed < 15 * 60
    _report(
        "C08",
        "reference-table-bands",
        f"max|dTS|={ {s: round(max(map(abs, v)), 3) for s, v in delta_ts.items()} }, "
        f"mean|dMP|(s=4)={mean_mp4:.1f}, {elapsed:.1f}s",
    )


def test_c09_pencil_noiseless_exactness():
    start = time.perf_counter()
    spec = fig6_spectrum()
    est = mp_estimate(generate_clean(spec, 20), 10)
    keep = np.abs(est.moduli - 1.0) <= 0.5
    assert keep.sum() == 5
    phases = est.eigenphases[keep]
    amps = est.amplitudes[keep]
    order = np.argsort(phases)
    assert np.max(np.abs(phases[order] - spec.lambdas)) <= 1e-6
    assert np.max(np.abs(amps[order] - spec.weights)) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("C09", "pencil-noiseless-exactness", f"{elapsed:.2f}s")


def test_c09_pencil_noiseless_exactness_at_paper_shape():
    # The paper's N = 566 at the CLI's default L = N - 1: the clean Hankel has
    # rank five, so five unit eigenvalues carry the spectrum and the other
    # 560 are exact zeros with no amplitude.
    spec = fig6_spectrum()
    est = mp_estimate(generate_clean(spec, 566), 565)
    zero = est.moduli == 0
    assert np.count_nonzero(zero) == 560
    assert np.all(est.amplitudes[zero] == 0)
    phases, amps = est.eigenphases[~zero], est.amplitudes[~zero]
    order = np.argsort(phases)
    assert np.max(np.abs(est.moduli[~zero] - 1.0)) <= 1e-10
    assert np.max(np.abs(phases[order] - spec.lambdas)) <= 1e-10
    assert np.max(np.abs(amps[order] - spec.weights)) <= 1e-10
    _report("C09", "pencil-noiseless-exactness-paper-shape", "N=566, L=565")


def test_c10_moment_error_bound(bank_mid_strict):
    bank = bank_mid_strict
    eps = bank.eps
    violations = 0
    worst_ratio = 0.0
    for i in range(50):
        spec = random_spectrum(5, 7000 + i)
        noisy = add_noise(generate_clean(spec, bank.n_trunc), eps / bank.n_trunc, i)
        q = estimate_bins(noisy, bank)
        for s in (1, 2, 4):
            bound = moment_bound(eps, s)
            err = abs(estimate_moment(q, s) - exact_moment(spec, s))
            worst_ratio = max(worst_ratio, err / bound)
            if err > bound:
                violations += 1
    assert violations == 0
    _report("C10", "moment-error-bound", f"50 pairs, worst err/bound={worst_ratio:.3f}")


def test_c07_c10_at_paper_eps_strict(bank_paper_strict):
    # The paper's own eps = 0.005 at its strict truncation order N = 95896,
    # with noise eps/N per entry.
    start = time.perf_counter()
    bank = bank_paper_strict
    eps, n_trunc = bank.eps, bank.n_trunc
    assert (eps, n_trunc) == (0.005, 95_896)
    worst_l1 = worst_moment = 0.0
    for seed in range(3):
        spec = random_spectrum(5, 9000 + seed)
        noisy = add_noise(generate_clean(spec, n_trunc), eps / n_trunc, seed)
        q = estimate_bins(noisy, bank)
        l1 = float(np.abs(q.values - exact_bins(spec, eps).values).sum())
        assert l1 <= eps
        worst_l1 = max(worst_l1, l1 / eps)
        for s in (1, 2, 4):
            bound = moment_bound(eps, s)
            err = abs(estimate_moment(q, s) - exact_moment(spec, s))
            assert err <= bound
            worst_moment = max(worst_moment, err / bound)
    elapsed = time.perf_counter() - start
    assert elapsed < 3.0
    _report(
        "C07/C10",
        "paper-eps-strict",
        f"3 runs, worst L1/eps={worst_l1:.2e}, worst err/bound={worst_moment:.3f}, {elapsed:.2f}s",
    )


def test_c11_shot_planner():
    shots = hoeffding_shots(566, 0.005, 0.99)
    assert 5.2e8 <= shots <= 5.3e8
    _report("C11", "shot-planner", f"R={shots}")


def test_c11_planned_shots_per_point_meet_c10(bank_paper):
    # fig5's configuration (eps = eps' = 0.005, N = 566, seeds 1..5), with the
    # noise replaced by shots at the per-point count ``signal --plan`` samples.
    eps, n_len = bank_paper.eps, bank_paper.n_trunc
    shots = hoeffding_shots_per_point(n_len, eps, 0.99)
    assert shots == 1_972_527
    assert hoeffding_shots(n_len, eps, 0.99) == 526_919_351
    worst_entry = worst_moment = 0.0
    for seed in range(1, 6):
        spec = random_spectrum(5, seed)
        signal = sample_shots(spec, n_len, shots, seed)
        entry = float(np.max(np.abs(signal.values - generate_clean(spec, n_len).values)))
        assert entry <= eps
        worst_entry = max(worst_entry, entry / eps)
        q = estimate_bins(signal, bank_paper)
        for s in (1, 2, 4):
            bound = moment_bound(eps, s)
            err = abs(estimate_moment(q, s) - exact_moment(spec, s))
            assert err <= bound
            worst_moment = max(worst_moment, err / bound)
    _report(
        "C11",
        "planned-shots-per-point",
        f"{shots} per point, worst entry/eps'={worst_entry:.2f}, worst err/bound={worst_moment:.3f}",
    )


def test_c12_dft_leakage():
    m = 20
    lam = 2.0 * math.pi / 80.0
    result = dft(np.exp(-1j * lam * np.arange(m)))
    mags = np.abs(result.coefficients)
    assert np.all(mags > 0)
    peak = int(np.argmax(mags))
    nearest = int(np.argmin(np.abs(result.frequency_grid - lam)))
    assert peak == nearest
    floor_at = lambda d: min(mags[(peak + d) % m], mags[(peak - d) % m])
    c = floor_at(1)
    for d in range(1, 6):
        assert floor_at(d) >= c / d - 1e-12
    _report("C12", "dft-leakage", f"peak at {result.frequency_grid[peak]:.3f}")


def test_c13_mass_concentration(bank_paper):
    eps = bank_paper.eps
    spec = fig6_spectrum()
    centers = bin_centers(eps)
    near = np.zeros(centers.size, dtype=bool)
    for lam in spec.lambdas:
        near |= np.abs(centers - lam) <= 2.0 * eps + 1e-15

    p = exact_bins(spec, eps)
    assert p.values[near].sum() == pytest.approx(1.0, abs=1e-9)

    fractions = []
    for seed in (7, 42, 2026):
        noisy = add_noise(generate_clean(spec, bank_paper.n_trunc), eps, seed)
        q = estimate_bins(noisy, bank_paper)
        frac = float(q.values[near].sum() / q.values.sum())
        assert frac >= 0.95
        fractions.append(frac)
    _report("C13", "mass-concentration", f"fractions={[round(f, 4) for f in fractions]}")

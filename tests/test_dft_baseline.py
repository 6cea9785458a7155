import math

import numpy as np
import pytest

from qeep import DftResult, dft
from qeep.cli import main

FIG3_M = 20
FIG3_LAMBDA = 2.0 * math.pi / 80.0


def tone(lam: float, m: int) -> np.ndarray:
    return np.exp(-1j * lam * np.arange(m))


class TestDft:
    def test_on_grid_tone_hits_single_bin(self):
        m, j0 = 16, 3
        lam = 2.0 * math.pi * j0 / m
        result = dft(tone(lam, m))
        mags = np.abs(result.coefficients)
        peak = int(np.argmax(mags))
        # the tone lands at -lam wrapped into (-pi, pi]
        assert result.frequency_grid[peak] == pytest.approx(-lam, abs=1e-12)
        assert mags[peak] == pytest.approx(math.sqrt(m), abs=1e-10)
        assert np.max(np.delete(mags, peak)) <= 1e-10

    def test_frequency_grid_sorted_and_wrapped(self):
        result = dft(np.ones(10, dtype=complex))
        grid = result.frequency_grid
        assert np.all(np.diff(grid) > 0)
        assert np.all((grid > -math.pi) & (grid <= math.pi))

    def test_off_grid_tone_leaks_into_every_bin(self):
        result = dft(tone(FIG3_LAMBDA, FIG3_M))
        mags = np.abs(result.coefficients)
        assert np.all(mags > 1e-6)
        peak_freq = result.frequency_grid[np.argmax(mags)]
        # peak sits at the grid frequency nearest the tone
        dist = np.abs(result.frequency_grid - FIG3_LAMBDA)
        assert peak_freq == result.frequency_grid[np.argmin(dist)]

    def test_leakage_decays_no_faster_than_inverse_offset(self):
        result = dft(tone(FIG3_LAMBDA, FIG3_M))
        mags = np.abs(result.coefficients)
        peak = int(np.argmax(mags))
        floor_at = lambda d: min(mags[(peak + d) % FIG3_M], mags[(peak - d) % FIG3_M])
        c = floor_at(1)
        for d in range(1, 6):
            assert floor_at(d) >= c / d - 1e-12

    def test_parseval_for_random_inputs(self):
        rng = np.random.default_rng(0)
        for m in (7, 33, 256, 4096):
            signal = rng.normal(size=m) + 1j * rng.normal(size=m)
            result = dft(signal)
            assert np.sum(np.abs(result.coefficients) ** 2) == pytest.approx(
                np.sum(np.abs(signal) ** 2), rel=1e-10
            )

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            dft(np.array([], dtype=complex))

    def test_copies_the_callers_arrays(self):
        coefficients, grid = np.ones(3, dtype=complex), np.array([-1.0, 0.0, 1.0])
        result = DftResult(coefficients=coefficients, frequency_grid=grid)
        coefficients[0], grid[0] = 2.0, -2.0
        assert result.coefficients[0] == 1.0 and result.frequency_grid[0] == -1.0
        assert not result.coefficients.flags.writeable

    @pytest.mark.parametrize(
        "coefficients, grid, message",
        [
            (np.zeros(3), np.zeros(2), r"^frequency_grid must be a finite 1-d array of length 3, "),
            (np.zeros((2, 2)), np.zeros((2, 2)), r"^coefficients must be a finite 1-d array of "),
        ],
        ids=["unequal", "two-d"],
    )
    def test_result_shape_mismatch_rejected(self, coefficients, grid, message):
        with pytest.raises(ValueError, match=message):
            DftResult(coefficients=coefficients, frequency_grid=grid)


def test_csv_export(tmp_path):
    # ``reproduce fig3`` exports the DFT of the figure's tone.
    result = dft(tone(FIG3_LAMBDA, FIG3_M))
    assert main(["reproduce", "fig3", "--outdir", str(tmp_path)]) == 0
    lines = (tmp_path / "fig3_dft.csv").read_text().splitlines()
    assert lines[0] == "lambda_prime,re,im"
    assert len(lines) == FIG3_M + 1
    table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert np.array_equal(table[:, 0], result.frequency_grid)
    assert np.array_equal(table[:, 1] + 1j * table[:, 2], result.coefficients)

"""Plain DFT baseline, used to demonstrate spectral leakage on off-grid tones."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _records


@dataclass(frozen=True)
class DftResult:
    """Unitary DFT output sorted by the frequency axis ``(-pi, pi]``."""

    coefficients: np.ndarray
    frequency_grid: np.ndarray

    def __post_init__(self):
        c = _records.frozen(self, "coefficients", self.coefficients, complex)
        _records.frozen(self, "frequency_grid", self.frequency_grid, float, c.size)


def dft(signal) -> DftResult:
    """Unitary DFT with forward kernel ``exp(-2*pi*i*k*m/M)`` and ``1/sqrt(M)``
    normalization.

    Bin ``m`` maps to ``lambda' = 2*pi*m/M`` wrapped into ``(-pi, pi]``; output
    is sorted by ``lambda'``. A pure tone ``exp(-i*lambda*k)`` with on-grid
    ``lambda`` lands entirely on the bin at ``-lambda`` (wrapped); off-grid
    tones leak into every bin.
    """
    values = _records.vector(signal, "signal", complex)
    m = values.size
    coeffs = np.fft.fft(values) / math.sqrt(m)
    grid = 2.0 * math.pi * np.arange(m) / m
    grid = np.where(grid > math.pi, grid - 2.0 * math.pi, grid)
    order = np.argsort(grid)
    return DftResult(coefficients=coeffs[order], frequency_grid=grid[order])

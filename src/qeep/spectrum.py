"""Ground-truth spectral data: eigenvalues and their support probabilities.

A :class:`Spectrum` is the list of ``(lambda, weight)`` pairs that defines a
state's support on the eigenstates of a dimensionless Hamiltonian with
``|lambda| <= 1/2``. It is the input to every signal simulator and the oracle
every estimator is judged against.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import _records

WEIGHT_SUM_TOL = 1e-12
MAX_MOMENT_ORDER = 64


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in ``[-1/2, 1/2]`` with probabilities summing to one.

    Entries are stored sorted ascending by eigenvalue; entries with
    bitwise-equal eigenvalues are merged by summing their weights. Instances
    are immutable and safe to share across threads.
    """

    lambdas: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        lam = _records.vector(self.lambdas, "lambdas", float)
        w = _records.vector(self.weights, "weights", float, lam.size)
        if np.any(np.abs(lam) > 0.5):
            raise ValueError("every eigenvalue must lie in [-1/2, 1/2]")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        # Merge bitwise-equal eigenvalues; np.unique also sorts ascending.
        lam_u, inverse = np.unique(lam, return_inverse=True)
        w_u = np.zeros_like(lam_u)
        np.add.at(w_u, inverse, w)
        _records.frozen(self, "lambdas", lam_u, float)
        total = _records.frozen(self, "weights", w_u, float).sum()
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}")

    @property
    def entries(self) -> list[tuple[float, float]]:
        return [(float(l), float(w)) for l, w in zip(self.lambdas, self.weights)]

    def __len__(self) -> int:
        return self.lambdas.size

    def to_dict(self) -> dict:
        return {"entries": [{"lambda": l, "weight": w} for l, w in self.entries]}

    @classmethod
    def from_dict(cls, data: dict) -> "Spectrum":
        entries = _records.record(data, "spectrum", ("entries",))["entries"]
        if not isinstance(entries, list):
            raise ValueError(f"entries must be a list, got {entries!r:.40}")
        for entry in entries:
            _records.record(entry, "each entry", ("lambda", "weight"))
        return cls(
            lambdas=_records.numbers([e["lambda"] for e in entries], "lambda"),
            weights=_records.numbers([e["weight"] for e in entries], "weight"),
        )


def random_spectrum(d: int, seed: int) -> Spectrum:
    """Draw ``d`` eigenvalues uniformly from ``[-1/2, 1/2]`` with uniform,
    normalized weights. Pure function of ``(d, seed)``."""
    d = _records.number(d, "d", Integral, 1)
    rng = np.random.default_rng(_records.number(seed, "seed", Integral, 0))
    lam = rng.uniform(-0.5, 0.5, d)
    w = rng.uniform(0.0, 1.0, d)
    w = w / w.sum()
    return Spectrum(lambdas=lam, weights=w)


def fig6_spectrum() -> Spectrum:
    """The fixed five-line spectrum used by the reference experiments."""
    return Spectrum(
        lambdas=np.array([-0.134, -0.130, 0.208, 0.408, 0.438]),
        weights=np.array([0.33, 0.08, 0.20, 0.18, 0.21]),
    )


def exact_moment(spec: Spectrum, s: int) -> float:
    """Exact spectral moment ``sum_d weight_d * lambda_d**s``.

    ``s = 0`` returns 1 for every valid spectrum; since ``|lambda| <= 1/2``
    the result is bounded by ``2**-s`` in magnitude.
    """
    return _moment(spec.weights, spec.lambdas, s)


def _moment_order(s: int) -> int:
    """``s`` as an ``int``, once it is checked to be an integer in ``[0, MAX_MOMENT_ORDER]``."""
    return _records.number(s, "moment order s", Integral, 0, MAX_MOMENT_ORDER)


def _moment(weights: np.ndarray, points: np.ndarray, s: int) -> float:
    """The order-``s`` moment ``sum(weights * points**s)`` of a weighted point set."""
    return float(np.sum(weights * points ** _moment_order(s)))

"""Ground-truth spectral data: eigenvalues and their support probabilities.

A :class:`Spectrum` is the list of ``(lambda, weight)`` pairs that defines a
state's support on the eigenstates of a dimensionless Hamiltonian with
``|lambda| <= 1/2``. It is the input to every signal simulator and the oracle
every estimator is judged against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _records

WEIGHT_SUM_TOL = 1e-12


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
        lam = np.asarray(self.lambdas, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if lam.ndim != 1 or w.shape != lam.shape or lam.size == 0:
            raise ValueError("lambdas and weights must be equal-length 1-d arrays")
        if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(w))):
            raise ValueError("spectrum entries must be finite")
        if np.any(np.abs(lam) > 0.5):
            raise ValueError("every eigenvalue must lie in [-1/2, 1/2]")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        # Merge bitwise-equal eigenvalues; np.unique also sorts ascending.
        lam_u, inverse = np.unique(lam, return_inverse=True)
        w_u = np.zeros_like(lam_u)
        np.add.at(w_u, inverse, w)
        if abs(w_u.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {w_u.sum()!r}")
        lam_u.setflags(write=False)
        w_u.setflags(write=False)
        object.__setattr__(self, "lambdas", lam_u)
        object.__setattr__(self, "weights", w_u)

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
    if d < 1:
        raise ValueError("d must be a positive integer")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    rng = np.random.default_rng(seed)
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
    if s < 0:
        raise ValueError("moment order s must be non-negative")
    return float(np.sum(spec.weights * spec.lambdas**s))

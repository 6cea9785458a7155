"""Time-series generation: clean signals, analytic noise, and shot sampling.

The signal at integer time ``k`` is ``g_k = sum_d w_d * exp(-i * lambda_d * k)``,
the expectation of the evolution operator on the given spectrum. Estimators
consume negative indices through the identity ``g_{-k} = conj(g_k)``, which is
exact for this model. ``g_0`` is pinned to 1 rather than sampled.

All stochastic operations are pure functions of their seed.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from . import _records
from .spectrum import Spectrum

CLEAN = "clean"
ADDITIVE_NOISE = "additive_noise"
SHOT_SAMPLED = "shot_sampled"

# The largest shot count per point: rng.binomial takes a C long.
MAX_SHOTS_PER_POINT = 2**63 - 1

# The optional fields each provenance kind carries: exactly those its
# constructor sets.
_KIND_FIELDS = {
    CLEAN: (),
    ADDITIVE_NOISE: ("eps_prime", "seed"),
    SHOT_SAMPLED: ("shots_per_point", "seed"),
}
# The optional fields in record order, each with its number type and least
# value.
_FIELD_RULES = {"eps_prime": (Real, 0), "seed": (Integral, 0), "shots_per_point": (Integral, 1)}


@dataclass(frozen=True)
class Provenance:
    """How a time series was produced; part of the experiment record.

    ``kind`` is one of ``clean``, ``additive_noise`` or ``shot_sampled``, and
    the record carries exactly the fields that kind's constructor sets.
    """

    kind: str
    eps_prime: float | None = None
    seed: int | None = None
    shots_per_point: int | None = None

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in _KIND_FIELDS):
            raise ValueError(f"unknown provenance kind {self.kind!r}")
        for name, (number, least) in _FIELD_RULES.items():
            value = getattr(self, name)
            given = value is not None
            if given != (name in _KIND_FIELDS[self.kind]):
                verb = "cannot carry" if given else "needs"
                raise ValueError(f"{self.kind} provenance {verb} {name}")
            if given and not least <= _records.number(value, name, number) < math.inf:
                raise ValueError(f"{name} must be finite and >= {least}, got {value!r}")

    @classmethod
    def clean(cls) -> "Provenance":
        return cls(kind=CLEAN)

    @classmethod
    def additive_noise(cls, eps_prime: float, seed: int) -> "Provenance":
        return cls(kind=ADDITIVE_NOISE, eps_prime=float(eps_prime), seed=int(seed))

    @classmethod
    def shot_sampled(cls, shots_per_point: int, seed: int) -> "Provenance":
        return cls(kind=SHOT_SAMPLED, shots_per_point=int(shots_per_point), seed=int(seed))

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for name in _FIELD_RULES:
            if getattr(self, name) is not None:
                out[name] = getattr(self, name)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Provenance":
        _records.record(data, "provenance", ("kind",), _FIELD_RULES)
        return cls(kind=data["kind"], **{name: data.get(name) for name in _FIELD_RULES})


@dataclass(frozen=True)
class TimeSeries:
    """Complex signal values at integer times ``k = 0 .. n_len - 1``.

    ``values[0]`` must be exactly ``1 + 0j``; constructors of derived series
    re-pin it instead of sampling a known value. Immutable once built.

    The JSON record holds ``n_len``, the provenance, and the values as exact
    binary: ``values_c16le`` is the standard base64 of the little-endian
    complex128 bytes, real and imaginary parts interleaved
    (``values.astype("<c16").tobytes()``), so a record reads back bit for bit
    and without parsing decimal text. ``signal --csv`` writes a readable copy.
    The record ``signal --plan`` writes also holds ``planned_shots``, which
    :meth:`from_dict` accepts and ignores.
    """

    values: np.ndarray
    provenance: Provenance

    def __post_init__(self):
        v = np.array(self.values, dtype=complex)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("values must be a non-empty 1-d complex array")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        if v[0] != 1.0 + 0.0j:
            raise ValueError("values[0] must equal 1 exactly")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n_len(self) -> int:
        return self.values.size

    def to_dict(self) -> dict:
        return {
            "n_len": self.n_len,
            "provenance": self.provenance.to_dict(),
            "values_c16le": base64.b64encode(self.values.astype("<c16").tobytes()).decode("ascii"),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TimeSeries":
        _records.record(data, "signal", ("n_len", "provenance", "values_c16le"), ("planned_shots",))
        payload = data["values_c16le"]
        if not isinstance(payload, str):
            raise ValueError(f"values_c16le must be a base64 string, got {payload!r:.40}")
        try:
            raw = base64.b64decode(payload, validate=True)
        except ValueError as exc:
            raise ValueError(f"values_c16le is not base64: {exc}") from None
        if len(raw) % 16:
            raise ValueError(f"values_c16le holds {len(raw)} bytes, not a multiple of 16")
        values = np.frombuffer(raw, "<c16")
        n_len = _records.number(data["n_len"], "n_len", Integral)
        if n_len != values.size:
            raise ValueError(f"n_len is {n_len} but the record holds {values.size} values")
        return cls(values=values, provenance=Provenance.from_dict(data["provenance"]))


def generate_clean(spec: Spectrum, n_len: int) -> TimeSeries:
    """Exact signal ``g_k = sum_d w_d * exp(-i * lambda_d * k)`` for ``k < n_len``."""
    if n_len < 1:
        raise ValueError("n_len must be a positive integer")
    k = np.arange(n_len)
    values = np.exp(-1j * np.outer(k, spec.lambdas)) @ spec.weights.astype(complex)
    values[0] = 1.0  # sum of weights, pinned exactly
    return TimeSeries(values=values, provenance=Provenance.clean())


def add_noise(ts: TimeSeries, eps_prime: float, seed: int) -> TimeSeries:
    """Perturb each ``k >= 1`` entry by an i.i.d. complex number with magnitude
    uniform on ``[0, eps_prime]`` and phase uniform on ``[0, 2*pi]``.

    Magnitudes are drawn first, then phases, from one ``default_rng(seed)``
    stream, so results are bit-reproducible for a fixed seed.
    """
    if not 0.0 <= eps_prime < math.inf:
        raise ValueError(f"eps_prime must be finite and non-negative, got {eps_prime!r}")
    if ts.provenance.kind != CLEAN:
        raise ValueError("add_noise expects a clean input series")
    rng = np.random.default_rng(seed)
    n = ts.n_len
    magnitude = rng.uniform(0.0, eps_prime, n - 1)
    phase = rng.uniform(0.0, 2.0 * math.pi, n - 1)
    values = np.array(ts.values)
    values[1:] = values[1:] + magnitude * np.exp(1j * phase)
    values[0] = 1.0
    return TimeSeries(values=values, provenance=Provenance.additive_noise(eps_prime, seed))


def sample_shots(spec: Spectrum, n_len: int, shots_per_point: int, seed: int) -> TimeSeries:
    """Simulate per-quadrature +/-1 measurements of the exact signal.

    For each ``k >= 1`` the real quadrature is the mean of ``shots_per_point``
    outcomes with ``P(+1) = (1 + Re g_k) / 2`` and the imaginary quadrature the
    mean of an independent batch with ``P(+1) = (1 + Im g_k) / 2``. Real draws
    for all k happen before imaginary draws.
    """
    if not 1 <= shots_per_point <= MAX_SHOTS_PER_POINT:
        raise ValueError(
            f"shots_per_point must lie in [1, {MAX_SHOTS_PER_POINT}], got {shots_per_point}"
        )
    rng = np.random.default_rng(seed)
    g = generate_clean(spec, n_len).values
    p_re = np.clip((1.0 + g.real[1:]) / 2.0, 0.0, 1.0)
    p_im = np.clip((1.0 + g.imag[1:]) / 2.0, 0.0, 1.0)
    hits_re = rng.binomial(shots_per_point, p_re)
    hits_im = rng.binomial(shots_per_point, p_im)
    values = np.empty(n_len, dtype=complex)
    values[0] = 1.0
    values[1:] = (2.0 * hits_re / shots_per_point - 1.0) + 1j * (
        2.0 * hits_im / shots_per_point - 1.0
    )
    return TimeSeries(values=values, provenance=Provenance.shot_sampled(shots_per_point, seed))


def hoeffding_shots(n_len: int, eps_prime: float, confidence: float) -> int:
    """Total number of +/-1 samples sufficient to estimate all ``n_len`` signal
    entries within ``eps_prime`` at overall confidence ``confidence``:
    ``ceil((2*n_len/eps_prime**2) * ln(2*n_len/(1-confidence)))``; a count that
    is not finite raises ``ValueError``. :func:`sample_shots` takes the count
    of :func:`hoeffding_shots_per_point`.
    """
    return _hoeffding_count(n_len, eps_prime, confidence, 2.0 * n_len, 2.0 * n_len)


def hoeffding_shots_per_point(n_len: int, eps_prime: float, confidence: float) -> int:
    """Shots per quadrature and time that keep every entry :func:`sample_shots`
    draws within ``eps_prime`` of ``g_k`` at overall confidence ``confidence``:
    ``ceil((4/eps_prime**2) * ln(4*(n_len-1)/(1-confidence)))``, and 1, the
    least count, for ``n_len = 1``, which samples nothing.

    A quadrature is the mean of ``R`` outcomes in ``[-1, 1]``, so by Hoeffding's
    inequality it misses by ``t`` or more with probability at most
    ``2*exp(-R*t**2/2)``. Both quadratures within ``t = eps_prime/sqrt(2)`` keep
    ``g_k`` within ``eps_prime``, and a union over the ``2*(n_len-1)`` sampled
    quadratures (``g_0`` is pinned) fails with probability at most
    ``4*(n_len-1)*exp(-R*eps_prime**2/4)``: ``1-confidence`` at the ``R`` above.
    """
    return _hoeffding_count(n_len, eps_prime, confidence, 4.0, 4.0 * (n_len - 1))


def _hoeffding_count(n_len, eps_prime, confidence, scale: float, union: float) -> int:
    """``ceil((scale/eps_prime**2) * ln(union/(1-confidence)))``, or 1 for a
    ``union`` of 0, once the arguments are checked."""
    if n_len < 1:
        raise ValueError("n_len must be a positive integer")
    if not 0.0 < eps_prime < math.inf:
        raise ValueError(f"eps_prime must be positive and finite, got {eps_prime!r}")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly between 0 and 1")
    if union == 0:
        return 1
    try:
        return math.ceil((scale / eps_prime**2) * math.log(union / (1.0 - confidence)))
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"no finite shot count: n_len={n_len}, eps_prime={eps_prime!r}") from None

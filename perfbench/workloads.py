"""The benchmark's workloads: the CLI arguments each one runs, the untimed
inputs it prepares, and the checks its outputs must pass.

Every workload is a pure function of its workload seed ``S``: the seed picks
the spectra and noise streams, and the program sees only the generated inputs
and flags. Why each workload exists, and which layer it is predicted to load,
is recorded in ``README.md`` next to this file.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from scipy.integrate import quad

# Paper defaults: eps = eps' = 0.005, D = 5, EMPIRICAL N = 566, L = N - 1.
PAPER_EPS = 0.005
# Reference-table bands of |delta_TS| per moment order (tests/C08). They are a
# reported ratio, not a pass/fail check: about 2% of correct single runs fall
# outside them.
C08_BANDS = {1: 1.5, 2: 0.6, 4: 0.3}
MOMENTS = (1, 2, 4)

STRICT_N = 95_896  # STRICT truncation order at eps = 0.005
STRICT_NOISE = 5.2e-8  # <= eps / N, the regime of the L1 guarantee

TRIALS_EPS = 0.05
TRIALS_EPS_PRIME = 1e-5  # 4469 * 1e-5 <= eps, so the noise sum stays within eps
TRIALS_SEEDS = 25


def moment_bound_factor(s: int) -> float:
    """C10 bound on the order-s moment error, in units of eps:
    ``T_max + T'_max`` of ``T(x) = x**s`` on ``|x| <= 1/2``."""
    return 2.0**-s + s * 2.0 ** -(s - 1)


class Workload:
    name = ""
    # (per-layer metric, phase) predicted to dominate: "run" is the warm
    # invocation, "setup" the cold one.
    predicted = ("", "run")

    def prepare(self, seed: int, workdir: Path, qeep) -> None:
        """Write untimed inputs; ``qeep(args)`` runs one CLI invocation."""

    def argv(self, seed: int, workdir: Path, outdir: Path) -> list[str]:
        raise NotImplementedError

    def check(self, seed: int, workdir: Path, outdir: Path) -> tuple[list[str], float]:
        """Problems found in one invocation's outputs, and the worst ratio of
        TS estimator error to the paper's bound over those outputs."""
        raise NotImplementedError


def _seed_list(seed: int, count: int) -> str:
    return ",".join(str(s) for s in range(seed, seed + count))


def _delta_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [
            {"seed": int(r["seed"]), "s": int(r["s"]), "delta_ts": float(r["delta_ts"])}
            for r in csv.DictReader(fh)
        ]


def _check_delta_table(seed: int, n_seeds: int, outdir: Path, factor) -> tuple[list[str], float]:
    rows = _delta_rows(outdir / "fig5_deltas.csv")
    expected = {(sd, s) for sd in range(seed, seed + n_seeds) for s in MOMENTS}
    problems = []
    if {(r["seed"], r["s"]) for r in rows} != expected or len(rows) != len(expected):
        problems.append("fig5_deltas.csv does not hold one row per (seed, moment)")
    ratio = max((abs(r["delta_ts"]) / factor(r["s"]) for r in rows), default=math.inf)
    return problems, ratio


class Fig5(Workload):
    """The paper's reference experiment at its defaults, five seeds."""

    name = "fig5"
    predicted = ("matrix_pencil.eig_s", "run")
    n_seeds = 5

    def argv(self, seed, workdir, outdir):
        return ["reproduce", "fig5", "--seeds", _seed_list(seed, self.n_seeds), "--outdir", str(outdir)]

    def check(self, seed, workdir, outdir):
        return _check_delta_table(seed, self.n_seeds, outdir, C08_BANDS.__getitem__)


class Trials(Workload):
    """Twenty-five STRICT trials at eps = 0.05 sharing one bank, each with a
    wide 64 x 8874 Hankel pencil."""

    name = "trials"
    predicted = ("matrix_pencil.pinv_s", "run")

    def argv(self, seed, workdir, outdir):
        return [
            "reproduce", "fig5",
            "--eps", repr(TRIALS_EPS),
            "--truncation", "strict",
            "--eps-prime", repr(TRIALS_EPS_PRIME),
            "--l-dim", "64",
            "--seeds", _seed_list(seed, TRIALS_SEEDS),
            "--outdir", str(outdir),
        ]  # fmt: skip

    def check(self, seed, workdir, outdir):
        problems, ratio = _check_delta_table(seed, TRIALS_SEEDS, outdir, moment_bound_factor)
        if ratio > 1.0:
            problems.append(f"a moment error exceeds the C10 bound (ratio {ratio:.3g})")
        return problems, ratio


class Strict(Workload):
    """One TS estimate at the paper's eps with the STRICT truncation order."""

    name = "strict"
    predicted = ("filterbank.build_s", "setup")

    def prepare(self, seed, workdir, qeep):
        qeep(["synth", "--d", "5", "--seed", str(seed), "--out", str(workdir / "spectrum.json")])
        qeep(
            [
                "signal", "--spectrum", str(workdir / "spectrum.json"),
                "--n", str(STRICT_N), "--noise", repr(STRICT_NOISE), "--seed", str(seed),
                "--out", str(workdir / "signal.json"),
            ]  # fmt: skip
        )

    def argv(self, seed, workdir, outdir):
        return [
            "estimate",
            "--signal", str(workdir / "signal.json"),
            "--method", "ts",
            "--truncation", "strict",
            "--eps", repr(PAPER_EPS),
            "--spectrum", str(workdir / "spectrum.json"),
            "--out", str(outdir / "estimate.json"),
        ]  # fmt: skip

    def check(self, seed, workdir, outdir):
        with open(workdir / "spectrum.json") as fh:
            entries = json.load(fh)["entries"]
        with open(outdir / "estimate.json") as fh:
            est = json.load(fh)
        lambdas = [e["lambda"] for e in entries]
        weights = [e["weight"] for e in entries]
        q = est["bins"]["values"]
        p = exact_bins(lambdas, weights, PAPER_EPS)
        problems = []
        if len(q) != len(p):
            return [f"estimate has {len(q)} bins, expected {len(p)}"], math.inf
        ratios = {"L1": sum(abs(a - b) for a, b in zip(q, p)) / PAPER_EPS}
        for s in MOMENTS:
            tau = sum(w * lam**s for lam, w in zip(lambdas, weights))
            err = abs(tau - est["moments"][str(s)])
            ratios[f"moment {s}"] = err / (PAPER_EPS * moment_bound_factor(s))
        for what, r in ratios.items():
            if not r <= 1.0:
                problems.append(f"{what} error exceeds its bound (ratio {r:.3g})")
        return problems, max(ratios.values())


WORKLOADS = {w.name: w for w in (Fig5(), Strict(), Trials())}


# ------------------------------------------------------------- the oracle

_BUMP = lambda x: math.exp(-1.0 / (1.0 - x * x))  # noqa: E731


def exact_bins(lambdas, weights, eps: float) -> list[float]:
    """Oracle bin probabilities ``p_j = sum_d w_d * f_j(lambda_d)``.

    Computed here by quadrature of the mollified bin indicator, independently
    of the package, so the check does not trust the code it measures.
    ``f_j(x)`` is the normalized bump integrated over ``[-1, 1]`` intersected
    with ``[c - 1, c + 1]``, ``c = 2 * (center_j - x) / eps``.
    """
    m = 1 + round(1.0 / eps)
    norm = 1.0 / quad(_BUMP, -1.0, 1.0, epsabs=1e-14, epsrel=1e-13)[0]
    p = [0.0] * m
    for lam, w in zip(lambdas, weights):
        for j in range(m):
            c = 2.0 * ((-0.5 + j * eps) - lam) / eps
            lo, hi = max(-1.0, c - 1.0), min(1.0, c + 1.0)
            if hi > lo:
                p[j] += w * norm * quad(_BUMP, lo, hi, epsabs=1e-12)[0]
    return p


def non_finite(outdir: Path) -> list[str]:
    """Names of output files holding a non-finite number."""
    bad = []
    for path in sorted(outdir.iterdir()):
        if path.suffix == ".json":
            with open(path) as fh:
                numbers = list(_json_numbers(json.load(fh)))
        elif path.suffix == ".csv":
            with open(path, newline="") as fh:
                numbers = [float(cell) for row in list(csv.reader(fh))[1:] for cell in row]
        else:
            continue
        if not all(math.isfinite(x) for x in numbers):
            bad.append(path.name)
    return bad


def _json_numbers(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        for item in obj:
            yield from _json_numbers(item)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield float(obj)

"""Experiment CLI: synth, signal, estimate, plan-shots, reproduce.

Every subcommand is deterministic given its flags (seeds included), so
re-running writes byte-identical files. Flags can also be supplied through a
JSON config file via ``--config``; explicit flags win. Exit codes: 0 success,
2 usage or validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dft_baseline import dft, write_dft_csv
from .errors import NumericError
from .filterbank import (
    TruncationMode,
    bin_centers,
    build_filterbank,
    choose_truncation,
    filter_grid,
)
from .matrix_pencil import mp_estimate, mp_moment
from .signal import (
    TimeSeries,
    add_noise,
    generate_clean,
    hoeffding_shots,
    sample_shots,
    write_timeseries_csv,
)
from .spectrum import Spectrum, exact_moment, fig6_spectrum, random_spectrum
from .ts_estimator import estimate_bins, estimate_moment, write_bins_csv

# Offset used to derive the noise stream from a run seed so that spectrum and
# noise draws never share a generator state.
NOISE_SEED_OFFSET = 2**32

DEFAULT_SEEDS = (1, 2, 3, 4, 5)
DEFAULT_MOMENTS = (1, 2, 4)


@dataclass
class ExperimentConfig:
    """Parameters of a reproduction run."""

    eps: float = 0.005
    eps_prime: float = 0.005
    d_spectrum: int = 5
    n_override: int | None = None
    l_override: int | None = None
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    moments: tuple[int, ...] = DEFAULT_MOMENTS
    truncation_mode: TruncationMode = TruncationMode.EMPIRICAL
    output_dir: Path = Path(".")

    def validate(self) -> None:
        bin_centers(self.eps)  # checks eps > 0 and 1/eps integral
        if self.eps_prime < 0:
            raise ValueError("eps_prime must be non-negative")
        if self.d_spectrum < 1:
            raise ValueError("d_spectrum must be positive")
        if not self.seeds:
            raise ValueError("at least one seed is required")

    @property
    def n_trunc(self) -> int:
        if self.n_override is not None:
            return self.n_override
        return choose_truncation(self.eps, self.truncation_mode)


def _write_json(obj, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _load_spectrum(path) -> Spectrum:
    return Spectrum.from_dict(_read_json(path))


def _load_signal(path) -> TimeSeries:
    return TimeSeries.from_dict(_read_json(path))


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from exc


def _merged(args: argparse.Namespace, key: str, default):
    """Resolution order: explicit flag, config-file entry, default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if getattr(args, "config", None):
        cfg = _read_json(args.config)
        if key in cfg:
            return cfg[key]
    return default


# ---------------------------------------------------------------- subcommands


def _cmd_synth(args) -> int:
    out = Path(_merged(args, "out", None) or "spectrum.json")
    if args.fig6:
        spec = fig6_spectrum()
    else:
        d = _merged(args, "d", None)
        if d is None:
            raise ValueError("either --fig6 or --d is required")
        seed = int(_merged(args, "seed", 0))
        spec = random_spectrum(int(d), seed)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_json(spec.to_dict(), out)
    print(f"wrote {out}")
    return 0


def _cmd_signal(args) -> int:
    spec = _load_spectrum(_merged(args, "spectrum", None) or "spectrum.json")
    n_len = int(_merged(args, "n", None) or 0)
    noise = _merged(args, "noise", None)
    shots = _merged(args, "shots", None)
    if noise is not None and shots is not None:
        raise ValueError("--noise and --shots are mutually exclusive")
    planned = None
    if shots == "auto":
        eps_prime = _merged(args, "eps_prime", None)
        confidence = _merged(args, "confidence", None)
        if eps_prime is None or confidence is None:
            raise ValueError("--shots auto requires --eps-prime and --confidence")
        planned = hoeffding_shots(n_len, float(eps_prime), float(confidence))
        shots = planned
    if shots is not None:
        ts = sample_shots(spec, n_len, int(shots), int(_merged(args, "seed", 0)))
    elif noise is not None and float(noise) > 0:
        ts = add_noise(generate_clean(spec, n_len), float(noise), int(_merged(args, "seed", 0)))
    else:
        ts = generate_clean(spec, n_len)
    payload = ts.to_dict()
    if planned is not None:
        payload["planned_shots"] = planned
    out = Path(_merged(args, "out", None) or "signal.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_json(payload, out)
    if args.csv:
        write_timeseries_csv(ts, args.csv)
    print(f"wrote {out}")
    return 0


def _cmd_plan_shots(args) -> int:
    n_len = int(_merged(args, "n", None) or 0)
    eps_prime = float(_merged(args, "eps_prime", None) or 0.0)
    confidence = float(_merged(args, "confidence", None) or 0.0)
    shots = hoeffding_shots(n_len, eps_prime, confidence)
    result = {"n_len": n_len, "eps_prime": eps_prime, "confidence": confidence, "shots": shots}
    if args.out:
        _write_json(result, Path(args.out))
    print(json.dumps(result, sort_keys=True))
    return 0


def _moments_and_deltas(moments, estimator, eps, spec):
    out_m, out_d = {}, {}
    for s in moments:
        tau_hat = estimator(int(s))
        out_m[str(s)] = tau_hat
        if spec is not None:
            out_d[str(s)] = (exact_moment(spec, int(s)) - tau_hat) / eps
    return out_m, out_d if spec is not None else None


def _cmd_estimate(args) -> int:
    ts = _load_signal(_merged(args, "signal", None) or "signal.json")
    method = _merged(args, "method", "ts")
    moments = tuple(_merged(args, "moments", DEFAULT_MOMENTS))
    spec = _load_spectrum(args.spectrum) if args.spectrum else None
    out = Path(_merged(args, "out", None) or "estimate.json")
    out.parent.mkdir(parents=True, exist_ok=True)

    if method == "ts":
        eps = _merged(args, "eps", None)
        if eps is None:
            raise ValueError("--eps is required for the ts method")
        eps = float(eps)
        mode = TruncationMode(_merged(args, "truncation", "empirical"))
        n_trunc = int(_merged(args, "n_trunc", None) or choose_truncation(eps, mode))
        bank = build_filterbank(eps, n_trunc)
        dist = estimate_bins(ts, bank)
        mom, deltas = _moments_and_deltas(
            moments, lambda s: estimate_moment(dist, s), eps, spec
        )
        payload = {
            "method": "ts",
            "eps": eps,
            "n_trunc": n_trunc,
            "bins": dist.to_dict(),
            "moments": mom,
        }
        if deltas is not None:
            payload["delta"] = deltas
        _write_json(payload, out)
        if args.csv:
            write_bins_csv(dist, args.csv)
    elif method == "mp":
        l_dim = _merged(args, "l_dim", None)
        est = mp_estimate(ts, int(l_dim) if l_dim is not None else None)
        eps = _merged(args, "eps", None)
        if spec is not None and eps is None:
            raise ValueError("--eps is required to report delta against a spectrum")
        eps = float(eps) if eps is not None else 1.0
        mom, deltas = _moments_and_deltas(moments, lambda s: mp_moment(est, s), eps, spec)
        payload = {"method": "mp", "estimate": est.to_dict(), "moments": mom}
        if deltas is not None:
            payload["delta"] = deltas
        _write_json(payload, out)
    else:
        raise ValueError(f"unknown method {method!r}")
    print(f"wrote {out}")
    return 0


# ------------------------------------------------------------- reproductions


def _delta_trials(cfg: ExperimentConfig):
    """Seeded runs shared by the fig5 and appc reproductions."""
    bank = build_filterbank(cfg.eps, cfg.n_trunc)
    l_dim = cfg.l_override if cfg.l_override is not None else cfg.n_trunc - 1
    rows = []
    for seed in cfg.seeds:
        spec = random_spectrum(cfg.d_spectrum, seed)
        clean = generate_clean(spec, cfg.n_trunc)
        noisy = add_noise(clean, cfg.eps_prime, seed + NOISE_SEED_OFFSET)
        dist = estimate_bins(noisy, bank)
        pencil = mp_estimate(noisy, l_dim)
        for s in cfg.moments:
            tau = exact_moment(spec, s)
            rows.append(
                {
                    "seed": seed,
                    "s": s,
                    "delta_ts": (tau - estimate_moment(dist, s)) / cfg.eps,
                    "delta_mp": (tau - mp_moment(pencil, s)) / cfg.eps,
                }
            )
    return rows


def _delta_summary(rows, moments):
    summary = {}
    for s in moments:
        ts_vals = [r["delta_ts"] for r in rows if r["s"] == s]
        mp_vals = [r["delta_mp"] for r in rows if r["s"] == s]
        summary[str(s)] = {
            "delta_ts": ts_vals,
            "delta_mp": mp_vals,
            "mean_abs_delta_ts": float(np.mean(np.abs(ts_vals))),
            "mean_abs_delta_mp": float(np.mean(np.abs(mp_vals))),
            "max_abs_delta_ts": float(np.max(np.abs(ts_vals))),
            "max_abs_delta_mp": float(np.max(np.abs(mp_vals))),
        }
    return summary


def _write_delta_csv(rows, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "s", "delta_ts", "delta_mp"])
        for r in rows:
            writer.writerow(
                [r["seed"], r["s"], format(r["delta_ts"], ".17g"), format(r["delta_mp"], ".17g")]
            )


def _reproduce_fig3(outdir: Path, cfg: ExperimentConfig) -> None:
    m = 20
    lam = 2.0 * math.pi / 80.0
    signal = np.exp(-1j * lam * np.arange(m))
    result = dft(signal)
    write_dft_csv(result, outdir / "fig3_dft.csv")
    peak = int(np.argmax(np.abs(result.coefficients)))
    _write_json(
        {
            "m": m,
            "lambda": lam,
            "peak_index": peak,
            "peak_frequency": float(result.frequency_grid[peak]),
            "min_abs_coefficient": float(np.min(np.abs(result.coefficients))),
        },
        outdir / "fig3_summary.json",
    )


def _reproduce_fig4(outdir: Path, cfg: ExperimentConfig) -> None:
    eps = 0.25
    xs, table = filter_grid(eps, 201)
    for j in range(table.shape[0]):
        with open(outdir / f"fig4_filter_{j}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "value"])
            for x, v in zip(xs, table[j]):
                writer.writerow([format(x, ".17g"), format(v, ".17g")])
    total = table.sum(axis=0)
    _write_json(
        {"eps": eps, "m_bins": table.shape[0], "max_abs_sum_minus_one": float(np.max(np.abs(total - 1.0)))},
        outdir / "fig4_summary.json",
    )


def _reproduce_fig5(outdir: Path, cfg: ExperimentConfig) -> None:
    rows = _delta_trials(cfg)
    _write_delta_csv(rows, outdir / "fig5_deltas.csv")
    _write_json(
        {
            "parameters": {
                "eps": cfg.eps,
                "eps_prime": cfg.eps_prime,
                "m_bins": bin_centers(cfg.eps).size,
                "n_trunc": cfg.n_trunc,
                "d_spectrum": cfg.d_spectrum,
                "seeds": list(cfg.seeds),
            },
            "summary": _delta_summary(rows, cfg.moments),
        },
        outdir / "fig5_summary.json",
    )


def _reproduce_fig6(outdir: Path, cfg: ExperimentConfig) -> None:
    spec = fig6_spectrum()
    bank = build_filterbank(cfg.eps, cfg.n_trunc)
    seed = cfg.seeds[0]
    noisy = add_noise(generate_clean(spec, cfg.n_trunc), cfg.eps_prime, seed + NOISE_SEED_OFFSET)
    dist = estimate_bins(noisy, bank)
    pencil = mp_estimate(noisy, cfg.l_override if cfg.l_override is not None else cfg.n_trunc - 1)

    with open(outdir / "fig6_true.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "weight"])
        for lam, w in spec.entries:
            writer.writerow([format(lam, ".17g"), format(w, ".17g")])
    write_bins_csv(dist, outdir / "fig6_ts.csv")
    with open(outdir / "fig6_mp.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eigenphase", "amplitude_re", "amplitude_im", "modulus"])
        for ph, amp, mod in zip(pencil.eigenphases, pencil.amplitudes, pencil.moduli):
            writer.writerow(
                [format(ph, ".17g"), format(amp.real, ".17g"), format(amp.imag, ".17g"), format(mod, ".17g")]
            )

    centers = dist.centers
    near = np.zeros(centers.size, dtype=bool)
    for lam in spec.lambdas:
        near |= np.abs(centers - lam) <= 2.0 * cfg.eps + 1e-15
    _write_json(
        {
            "seed": seed,
            "ts_near_mass_fraction": float(dist.values[near].sum() / dist.values.sum()),
            "mp_phases_outside_range": int(np.sum(np.abs(pencil.eigenphases) > 0.5)),
        },
        outdir / "fig6_summary.json",
    )


def _reproduce_appc(outdir: Path, cfg: ExperimentConfig) -> None:
    rows = _delta_trials(cfg)
    _write_delta_csv(rows, outdir / "appc_delta_table.csv")
    _write_json(
        {
            "parameters": {
                "eps": cfg.eps,
                "eps_prime": cfg.eps_prime,
                "m_bins": bin_centers(cfg.eps).size,
                "n_trunc": cfg.n_trunc,
                "l_dim": cfg.l_override if cfg.l_override is not None else cfg.n_trunc - 1,
                "d_spectrum": cfg.d_spectrum,
                "seeds": list(cfg.seeds),
            },
            "tables": _delta_summary(rows, cfg.moments),
        },
        outdir / "appc_summary.json",
    )


_FIGURES = {
    "fig3": _reproduce_fig3,
    "fig4": _reproduce_fig4,
    "fig5": _reproduce_fig5,
    "fig6": _reproduce_fig6,
    "appc": _reproduce_appc,
}


def _cmd_reproduce(args) -> int:
    n_override = _merged(args, "n_trunc", None)
    l_override = _merged(args, "l_dim", None)
    cfg = ExperimentConfig(
        eps=float(_merged(args, "eps", 0.005)),
        eps_prime=float(_merged(args, "eps_prime", 0.005)),
        d_spectrum=int(_merged(args, "d", 5)),
        n_override=int(n_override) if n_override is not None else None,
        l_override=int(l_override) if l_override is not None else None,
        seeds=tuple(_merged(args, "seeds", DEFAULT_SEEDS)),
        moments=tuple(_merged(args, "moments", DEFAULT_MOMENTS)),
        truncation_mode=TruncationMode(_merged(args, "truncation", "empirical")),
        output_dir=Path(_merged(args, "outdir", ".")),
    )
    cfg.validate()
    outdir = cfg.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    _FIGURES[args.figure](outdir, cfg)
    print(f"wrote {args.figure} bundle to {outdir}")
    return 0


# -------------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qeep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a spectrum file")
    p.add_argument("--config")
    p.add_argument("--fig6", action="store_true", help="use the fixed five-line spectrum")
    p.add_argument("--d", type=int, help="number of random eigenvalues")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("signal", help="generate a time series from a spectrum file")
    p.add_argument("--config")
    p.add_argument("--spectrum")
    p.add_argument("--n", type=int, help="signal length")
    p.add_argument("--noise", type=float, help="additive noise magnitude bound")
    p.add_argument("--shots", help="shots per point (integer) or 'auto'")
    p.add_argument("--eps-prime", dest="eps_prime", type=float)
    p.add_argument("--confidence", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_signal)

    p = sub.add_parser("plan-shots", help="Hoeffding shot count for a target precision")
    p.add_argument("--config")
    p.add_argument("--n", type=int)
    p.add_argument("--eps-prime", dest="eps_prime", type=float)
    p.add_argument("--confidence", type=float)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_plan_shots)

    p = sub.add_parser("estimate", help="run the ts or mp estimator on a signal file")
    p.add_argument("--config")
    p.add_argument("--signal")
    p.add_argument("--method", choices=["ts", "mp"])
    p.add_argument("--eps", type=float)
    p.add_argument("--n-trunc", dest="n_trunc", type=int)
    p.add_argument("--truncation", choices=["empirical", "strict"])
    p.add_argument("--l-dim", dest="l_dim", type=int)
    p.add_argument("--moments", type=_parse_int_list, help="comma-separated moment orders")
    p.add_argument("--spectrum", help="ground truth for delta reporting")
    p.add_argument("--out")
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("reproduce", help="rebuild a figure or table bundle")
    p.add_argument("figure", choices=sorted(_FIGURES))
    p.add_argument("--config")
    p.add_argument("--outdir")
    p.add_argument("--seeds", type=_parse_int_list)
    p.add_argument("--moments", type=_parse_int_list)
    p.add_argument("--eps", type=float)
    p.add_argument("--eps-prime", dest="eps_prime", type=float)
    p.add_argument("--d", type=int)
    p.add_argument("--n-trunc", dest="n_trunc", type=int)
    p.add_argument("--l-dim", dest="l_dim", type=int)
    p.add_argument("--truncation", choices=["empirical", "strict"])
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

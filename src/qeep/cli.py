"""Experiment CLI: synth, signal, estimate, plan-shots, reproduce.

Every subcommand is deterministic given its flags (seeds included), so
re-running writes byte-identical files. Flags can also be supplied through a
JSON config file via ``--config``; explicit flags win. Exit codes: 0 success,
2 usage or validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .dft_baseline import dft
from .errors import NumericError
from .filterbank import (
    TruncationMode,
    bin_centers,
    build_filterbank,
    choose_truncation,
    filter_values,
)
from .matrix_pencil import mp_estimate, mp_moment
from .signal import (
    TimeSeries,
    add_noise,
    generate_clean,
    hoeffding_shots,
    sample_shots,
)
from .spectrum import Spectrum, exact_moment, fig6_spectrum, random_spectrum
from .ts_estimator import MAX_MOMENT_ORDER, estimate_bins, estimate_moment

# Offset used to derive the noise stream from a run seed so that spectrum and
# noise draws never share a generator state.
NOISE_SEED_OFFSET = 2**32


def _write_json(obj, path) -> None:
    """Pretty, key-sorted JSON; missing parent directories are created."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write_csv(path, header, rows) -> None:
    """CSV with a header row; floats are written as ``.17g`` so they round-trip
    and a rerun writes the same bytes, everything else as ``str``. Missing
    parent directories are created."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [format(v, ".17g") if isinstance(v, float) else v for v in row] for row in rows
        )


def _load_spectrum(path) -> Spectrum:
    return Spectrum.from_dict(_read_json(path))


def _load_signal(path) -> TimeSeries:
    return TimeSeries.from_dict(_read_json(path))


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from exc


def _moment_orders(text: str) -> tuple[int, ...]:
    """A non-empty comma-separated list of moment orders in
    ``[0, MAX_MOMENT_ORDER]``."""
    orders = _parse_int_list(text)
    if not orders or not all(0 <= s <= MAX_MOMENT_ORDER for s in orders):
        raise argparse.ArgumentTypeError(
            f"expected moment orders in [0, {MAX_MOMENT_ORDER}], got {text!r}"
        )
    return orders


def _magnitude(text: str) -> float:
    """A noise magnitude bound: a finite, non-negative number."""
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite non-negative number, got {text!r}")
    return value


def _config_tokens(path, args: argparse.Namespace) -> list[str]:
    """The entries of a JSON config file as ``--flag=value`` tokens.

    Keys are flag names (``eps_prime`` or ``eps-prime``); a list becomes a
    comma-separated value, ``true`` a bare flag, and ``false`` or ``null``
    leaves the flag unset. A key must name an attribute of ``args`` exactly,
    so argparse never expands it as an abbreviation of a longer flag; keys
    that name no flag (``func``, ``figure``) argparse rejects itself.
    """
    cfg = _read_json(path)
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    tokens = []
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if dest == "config" or dest not in vars(args):
            raise ValueError(f"unknown config key {key!r} for {args.command}")
        flag = "--" + dest.replace("_", "-")
        if value is True:
            tokens.append(flag)
        elif value is not False and value is not None:
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            tokens.append(f"{flag}={value}")
    return tokens


# ---------------------------------------------------------------- subcommands


def _cmd_synth(args) -> int:
    out = Path(args.out)
    if args.fig6:
        spec = fig6_spectrum()
    else:
        if args.d is None:
            raise ValueError("either --fig6 or --d is required")
        spec = random_spectrum(args.d, args.seed)
    _write_json(spec.to_dict(), out)
    print(f"wrote {out}")
    return 0


def _cmd_signal(args) -> int:
    spec = _load_spectrum(args.spectrum)
    shots = args.shots
    if args.noise is not None and shots is not None:
        raise ValueError("--noise and --shots are mutually exclusive")
    planned = None
    if shots == "auto":
        if args.eps_prime is None or args.confidence is None:
            raise ValueError("--shots auto requires --eps-prime and --confidence")
        planned = hoeffding_shots(args.n, args.eps_prime, args.confidence)
        shots = planned
    if shots is not None:
        ts = sample_shots(spec, args.n, int(shots), args.seed)
    elif args.noise is not None and args.noise > 0:
        ts = add_noise(generate_clean(spec, args.n), args.noise, args.seed)
    else:
        ts = generate_clean(spec, args.n)
    payload = ts.to_dict()
    if planned is not None:
        payload["planned_shots"] = planned
    out = Path(args.out)
    _write_json(payload, out)
    if args.csv:
        rows = ((k, v.real, v.imag) for k, v in enumerate(ts.values))
        _write_csv(args.csv, ["k", "re", "im"], rows)
    print(f"wrote {out}")
    return 0


def _cmd_plan_shots(args) -> int:
    shots = hoeffding_shots(args.n, args.eps_prime, args.confidence)
    result = {
        "n_len": args.n,
        "eps_prime": args.eps_prime,
        "confidence": args.confidence,
        "shots": shots,
    }
    if args.out:
        _write_json(result, args.out)
    print(json.dumps(result, sort_keys=True))
    return 0


def _moments_and_deltas(moments, estimator, eps, spec):
    out_m, out_d = {}, {}
    for s in moments:
        tau_hat = estimator(s)
        out_m[str(s)] = tau_hat
        if spec is not None:
            out_d[str(s)] = (exact_moment(spec, s) - tau_hat) / eps
    return out_m, out_d if spec is not None else None


def _bins_rows(dist):
    return ((j, c, v) for j, (c, v) in enumerate(zip(dist.centers, dist.values)))


def _cmd_estimate(args) -> int:
    for dest in ("l_dim",) if args.method == "ts" else ("n_trunc", "csv"):
        if getattr(args, dest) is not None:
            flag = "--" + dest.replace("_", "-")
            raise ValueError(f"{flag} does not apply to --method {args.method}")
    ts = _load_signal(args.signal)
    spec = _load_spectrum(args.spectrum) if args.spectrum else None
    out = Path(args.out)

    if args.method == "ts":
        if args.eps is None:
            raise ValueError("--eps is required for the ts method")
        n_trunc = args.n_trunc
        if n_trunc is None:
            n_trunc = choose_truncation(args.eps, TruncationMode(args.truncation))
        bank = build_filterbank(args.eps, n_trunc)
        dist = estimate_bins(ts, bank)
        mom, deltas = _moments_and_deltas(
            args.moments, lambda s: estimate_moment(dist, s), args.eps, spec
        )
        payload = {
            "method": "ts",
            "eps": args.eps,
            "n_trunc": n_trunc,
            "bins": dist.to_dict(),
            "moments": mom,
        }
    else:
        if spec is not None and args.eps is None:
            raise ValueError("--eps is required to report delta against a spectrum")
        est = mp_estimate(ts, args.l_dim)
        eps = args.eps if args.eps is not None else 1.0
        mom, deltas = _moments_and_deltas(args.moments, lambda s: mp_moment(est, s), eps, spec)
        payload = {"method": "mp", "estimate": est.to_dict(), "moments": mom}
    if deltas is not None:
        payload["delta"] = deltas
    _write_json(payload, out)
    if args.csv:
        _write_csv(args.csv, ["j", "lambda_tilde", "value"], _bins_rows(dist))
    print(f"wrote {out}")
    return 0


# ------------------------------------------------------------- reproductions
#
# Each reproduction takes the parsed ``reproduce`` arguments with ``n_trunc``
# and ``l_dim`` resolved to numbers.

DELTA_HEADER = ["seed", "s", "delta_ts", "delta_mp"]


def _seeded_estimates(spec, args, bank, seed):
    """The TS bins and the pencil estimate of one seeded noisy signal of ``spec``."""
    clean = generate_clean(spec, args.n_trunc)
    noisy = add_noise(clean, args.eps_prime, seed + NOISE_SEED_OFFSET)
    return estimate_bins(noisy, bank), mp_estimate(noisy, args.l_dim)


def _trial_rows(args, bank, seed):
    """The ``DELTA_HEADER`` rows of one seeded run: one per moment order."""
    spec = random_spectrum(args.d, seed)
    dist, pencil = _seeded_estimates(spec, args, bank, seed)
    rows = []
    for s in args.moments:
        tau = exact_moment(spec, s)
        delta_ts = (tau - estimate_moment(dist, s)) / args.eps
        delta_mp = (tau - mp_moment(pencil, s)) / args.eps
        rows.append((seed, s, delta_ts, delta_mp))
    return rows


# The thread-count variables of the BLAS builds numpy ships with.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _map_single_blas_thread(func, items):
    """``[func(item) for item in items]``, each call in a worker of a pool of
    spawned processes, one item included.

    The workers start with one BLAS thread: a multi-threaded pencil solve sums
    in another order and moves the last digits of its result, so the outputs
    would depend on the machine.
    """
    import multiprocessing

    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        # A new interpreter reads the variables when it loads the BLAS, and
        # the pool starts all its workers here.
        pool = multiprocessing.get_context("spawn").Pool(min(len(items), os.cpu_count() or 1))
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    with pool:
        return pool.map(func, items)


def _delta_trials(args):
    """Seeded runs shared by the fig5 and appc reproductions, as rows of
    ``DELTA_HEADER`` in ``--seeds`` order. The seeds share only the filter
    bank, so each runs in its own worker."""
    bank = build_filterbank(args.eps, args.n_trunc)
    per_seed = _map_single_blas_thread(functools.partial(_trial_rows, args, bank), args.seeds)
    return [row for rows in per_seed for row in rows]


def _delta_summary(rows, moments):
    summary = {}
    for s in moments:
        ts_vals = [r[2] for r in rows if r[1] == s]
        mp_vals = [r[3] for r in rows if r[1] == s]
        summary[str(s)] = {
            "delta_ts": ts_vals,
            "delta_mp": mp_vals,
            "mean_abs_delta_ts": float(np.mean(np.abs(ts_vals))),
            "mean_abs_delta_mp": float(np.mean(np.abs(mp_vals))),
            "max_abs_delta_ts": float(np.max(np.abs(ts_vals))),
            "max_abs_delta_mp": float(np.max(np.abs(mp_vals))),
        }
    return summary


# Per delta table: CSV name, summary name, the summary's key for the
# per-moment statistics, and whether its parameters record ``l_dim``.
_DELTA_TABLES = {
    "fig5": ("fig5_deltas.csv", "fig5_summary.json", "summary", False),
    "appc": ("appc_delta_table.csv", "appc_summary.json", "tables", True),
}


def _reproduce_deltas(outdir: Path, args) -> None:
    csv_name, summary_name, summary_key, with_l_dim = _DELTA_TABLES[args.figure]
    rows = _delta_trials(args)
    _write_csv(outdir / csv_name, DELTA_HEADER, rows)
    parameters = {
        "eps": args.eps,
        "eps_prime": args.eps_prime,
        "m_bins": bin_centers(args.eps).size,
        "n_trunc": args.n_trunc,
        "d_spectrum": args.d,
        "seeds": list(args.seeds),
    }
    if with_l_dim:
        parameters["l_dim"] = args.l_dim
    _write_json(
        {"parameters": parameters, summary_key: _delta_summary(rows, args.moments)},
        outdir / summary_name,
    )


def _reproduce_fig3(outdir: Path, args) -> None:
    m = 20
    lam = 2.0 * math.pi / 80.0
    signal = np.exp(-1j * lam * np.arange(m))
    result = dft(signal)
    coeffs = result.coefficients
    _write_csv(
        outdir / "fig3_dft.csv",
        ["lambda_prime", "re", "im"],
        zip(result.frequency_grid, coeffs.real, coeffs.imag),
    )
    peak = int(np.argmax(np.abs(coeffs)))
    _write_json(
        {
            "m": m,
            "lambda": lam,
            "peak_index": peak,
            "peak_frequency": float(result.frequency_grid[peak]),
            "min_abs_coefficient": float(np.min(np.abs(coeffs))),
        },
        outdir / "fig3_summary.json",
    )


def _reproduce_fig4(outdir: Path, args) -> None:
    eps = 0.25
    xs = np.linspace(-0.5, 0.5, 201)
    table = filter_values(xs, eps)
    for j in range(table.shape[0]):
        _write_csv(outdir / f"fig4_filter_{j}.csv", ["x", "value"], zip(xs, table[j]))
    total = table.sum(axis=0)
    _write_json(
        {"eps": eps, "m_bins": table.shape[0], "max_abs_sum_minus_one": float(np.max(np.abs(total - 1.0)))},
        outdir / "fig4_summary.json",
    )


def _reproduce_fig6(outdir: Path, args) -> None:
    spec = fig6_spectrum()
    bank = build_filterbank(args.eps, args.n_trunc)
    seed = args.seeds[0]
    estimates = functools.partial(_seeded_estimates, spec, args, bank)
    [(dist, pencil)] = _map_single_blas_thread(estimates, [seed])

    _write_csv(outdir / "fig6_true.csv", ["lambda", "weight"], spec.entries)
    _write_csv(outdir / "fig6_ts.csv", ["j", "lambda_tilde", "value"], _bins_rows(dist))
    amps = pencil.amplitudes
    _write_csv(
        outdir / "fig6_mp.csv",
        ["eigenphase", "amplitude_re", "amplitude_im", "modulus"],
        zip(pencil.eigenphases, amps.real, amps.imag, pencil.moduli),
    )

    centers = dist.centers
    near = np.zeros(centers.size, dtype=bool)
    for lam in spec.lambdas:
        near |= np.abs(centers - lam) <= 2.0 * args.eps + 1e-15
    _write_json(
        {
            "seed": seed,
            "ts_near_mass_fraction": float(dist.values[near].sum() / dist.values.sum()),
            "mp_phases_outside_range": int(np.sum(np.abs(pencil.eigenphases) > 0.5)),
        },
        outdir / "fig6_summary.json",
    )


_FIGURES = {
    "fig3": _reproduce_fig3,
    "fig4": _reproduce_fig4,
    "fig5": _reproduce_deltas,
    "fig6": _reproduce_fig6,
    "appc": _reproduce_deltas,
}


def _cmd_reproduce(args) -> int:
    bin_centers(args.eps)  # checks eps > 0 and 1/eps integral
    if args.d < 1:
        raise ValueError("d_spectrum must be positive")
    if not args.seeds:
        raise ValueError("at least one seed is required")
    if args.n_trunc is None:
        args.n_trunc = choose_truncation(args.eps, TruncationMode(args.truncation))
    if args.l_dim is None:
        args.l_dim = args.n_trunc - 1
    if not 1 <= args.l_dim <= args.n_trunc - 1:
        raise ValueError(f"l_dim must lie in [1, n_trunc - 1] = [1, {args.n_trunc - 1}], "
                         f"got {args.l_dim}")
    outdir = Path(args.outdir)
    _FIGURES[args.figure](outdir, args)
    print(f"wrote {args.figure} bundle to {outdir}")
    return 0


# -------------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qeep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON object of flag values; explicit flags win")
        p.set_defaults(func=func)
        return p

    p = command("synth", _cmd_synth, "write a spectrum file")
    p.add_argument("--fig6", action="store_true", help="use the fixed five-line spectrum")
    p.add_argument("--d", type=int, help="number of random eigenvalues")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="spectrum.json")

    p = command("signal", _cmd_signal, "generate a time series from a spectrum file")
    p.add_argument("--spectrum", default="spectrum.json")
    p.add_argument("--n", type=int, default=0, help="signal length")
    p.add_argument("--noise", type=_magnitude, help="additive noise magnitude bound")
    p.add_argument("--shots", help="shots per point (integer) or 'auto'")
    p.add_argument("--eps-prime", dest="eps_prime", type=float)
    p.add_argument("--confidence", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="signal.json")
    p.add_argument("--csv")

    p = command("plan-shots", _cmd_plan_shots, "Hoeffding shot count for a target precision")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--eps-prime", dest="eps_prime", type=float, default=0.0)
    p.add_argument("--confidence", type=float, default=0.0)
    p.add_argument("--out")

    p = command("estimate", _cmd_estimate, "run the ts or mp estimator on a signal file")
    p.add_argument("--signal", default="signal.json")
    p.add_argument("--method", choices=["ts", "mp"], default="ts")
    p.add_argument("--eps", type=float)
    p.add_argument("--n-trunc", dest="n_trunc", type=int, help="ts only")
    p.add_argument(
        "--truncation", choices=["empirical", "strict"], default="empirical", help="ts only"
    )
    p.add_argument("--l-dim", dest="l_dim", type=int, help="mp only")
    p.add_argument(
        "--moments", type=_moment_orders, default=(1, 2, 4), help="comma-separated moment orders"
    )
    p.add_argument("--spectrum", help="ground truth for delta reporting")
    p.add_argument("--out", default="estimate.json")
    p.add_argument("--csv", help="ts only: bin distribution as CSV")

    p = command("reproduce", _cmd_reproduce, "rebuild a figure or table bundle")
    p.add_argument(
        "figure",
        choices=sorted(_FIGURES),
        help="fig3 and fig4 are fixed and ignore every other flag but --outdir; "
        "fig6 uses only the first of --seeds and ignores --moments and --d",
    )
    p.add_argument("--outdir", default=".")
    p.add_argument("--seeds", type=_parse_int_list, default=(1, 2, 3, 4, 5))
    p.add_argument("--moments", type=_moment_orders, default=(1, 2, 4))
    p.add_argument("--eps", type=float, default=0.005)
    p.add_argument("--eps-prime", dest="eps_prime", type=_magnitude, default=0.005)
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--n-trunc", dest="n_trunc", type=int)
    p.add_argument("--l-dim", dest="l_dim", type=int)
    p.add_argument("--truncation", choices=["empirical", "strict"], default="empirical")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # Config entries go right after the subcommand name, so explicit
            # flags, which come later, win, and argparse checks both alike.
            args = parser.parse_args(argv[:1] + _config_tokens(args.config, args) + argv[1:])
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
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

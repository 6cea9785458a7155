"""Experiment CLI: synth, signal, estimate, plan-shots, reproduce.

Every subcommand is deterministic given its flags (seeds included), so
re-running writes byte-identical files; each ``reproduce`` figure is a
subcommand that takes only the flags it reads. Flags can also come from an
argument file, ``qeep reproduce fig5 @paper.args``, which holds one token per
line (such as ``--seeds=1,2``) and is read as if its tokens stood in its place,
so later tokens win; figure flags go after the figure name. Exit codes: 0
success, 2 usage or validation error or an output that would hold a
non-finite number (one ``error:`` line naming it, which is not written), 3
numeric failure (numpy's ``LinAlgError``, one ``numeric failure:`` line), an
allocation that fails (one ``out of memory:`` line; neither prints a
traceback) or a CLI child (see below) killed by a signal.

Every command computes with one BLAS thread, so its bytes do not depend on
the machine. Loaded before numpy (``python -m qeep.cli``, the ``qeep`` script,
a program that imports it first), this module pins the BLAS thread variables
to one for the process, whose ``main`` runs each command, ``reproduce fig5``'s
seeds on a pool of threads. Loaded after numpy, ``main`` runs the command line
in a ``python -m qeep.cli`` child instead and passes back its output and exit
code.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import warnings
from numbers import Integral
from pathlib import Path

# The thread-count variables of the BLAS builds numpy ships with.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Whether numpy loads below, after its BLAS was pinned to one thread. It does
# unless the process imported numpy before this module (a library caller).
_NUMPY_LOADED_PINNED = "numpy" not in sys.modules
if _NUMPY_LOADED_PINNED:
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

import numpy as np

from . import _records
from .dft_baseline import dft
from .filterbank import (
    _LEAST_ORDER,
    TruncationMode,
    _snap_eps,
    build_filterbank,
    choose_truncation,
    filter_values,
)
from .matrix_pencil import _pencil_dimension, mp_estimate, mp_moment
from .signal import (
    MAX_SHOTS_PER_POINT,
    TimeSeries,
    add_noise,
    generate_clean,
    hoeffding_shots,
    hoeffding_shots_per_point,
    sample_shots,
)
from .spectrum import MAX_MOMENT_ORDER, Spectrum, exact_moment, fig6_spectrum, random_spectrum
from .ts_estimator import _check_signal_length, estimate_bins, estimate_moment

# Offset used to derive the noise stream from a run seed so that spectrum and
# noise draws never share a generator state.
NOISE_SEED_OFFSET = 2**32


def _non_finite(path) -> ValueError:
    """The error of an output at ``path`` that would hold NaN or an infinity."""
    return ValueError(f"{path}: not written: it would hold a non-finite number")


def _write_json(obj, path) -> None:
    """Pretty, key-sorted JSON; missing parent directories are created. An
    ``obj`` holding a non-finite float, which JSON has no number for, raises
    ``ValueError`` before anything is written."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise _non_finite(path) from None
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _read_record(cls, path):
    """The ``cls`` record in the JSON file at ``path``, or a ValueError naming it.
    JSON nested deeper than the parser's recursion limit is one such file."""
    with open(path) as fh:
        try:
            return cls.from_dict(json.load(fh))
        except (ValueError, RecursionError) as exc:
            reason = "nested too deeply" if isinstance(exc, RecursionError) else exc
            raise ValueError(f"{path}: not a {cls.__name__} record: {reason}") from None


def _write_csv(path, header, rows) -> None:
    """CSV with a header row; floats are written as ``.17g`` so they round-trip
    and a rerun writes the same bytes, everything else as ``str``. Missing
    parent directories are created; a non-finite float raises ``ValueError``
    before anything is written."""
    rows = [list(row) for row in rows]
    if not all(math.isfinite(v) for row in rows for v in row if isinstance(v, float)):
        raise _non_finite(path)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [format(v, ".17g") if isinstance(v, float) else v for v in row] for row in rows
        )


def _flag_type(convert, expected=None):
    """The argparse type ``convert(text)``, whose ``ValueError`` is the flag's one usage
    error: ``expected {expected}, got {text!r}``, or its own message for ``expected`` None."""

    def parse(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            message = str(exc) if expected is None else f"expected {expected}, got {text!r}"
            raise argparse.ArgumentTypeError(message) from None

    return parse


def _int_list(what: str, top: float = math.inf):
    """The argparse type of a non-empty comma-separated list of distinct
    ``what``, each an integer in ``[0, top]``."""

    def convert(text: str) -> tuple[int, ...]:
        tokens = (int(tok) for tok in text.split(",") if tok.strip())
        values = tuple(_records.number(value, what, Integral, 0, top) for value in tokens)
        if not values or len(set(values)) < len(values):
            raise ValueError
        return values

    return _flag_type(convert, f"distinct {what} in [0, {top}]")


_moment_orders = _int_list("moment orders", MAX_MOMENT_ORDER)
_seeds = _int_list("seeds")


def _word_or_int(words: dict, least: int, top: float = math.inf):
    """The argparse type of a key of ``words``, read as its value, or of an
    integer in ``[least, top]``."""
    expected = " or ".join([*map(repr, words), f"an integer in [{least}, {top}]"])

    def convert(text: str):
        if text in words:
            return words[text]
        return _records.number(int(text), "", Integral, least, top)

    return _flag_type(convert, expected)


# A truncation mode, or an order N that a filter bank takes.
_truncation = _word_or_int({mode.value: mode for mode in TruncationMode}, _LEAST_ORDER)
_shots = _word_or_int({}, 1, MAX_SHOTS_PER_POINT)
_seed = _word_or_int({}, 0)
_spectrum_size = _word_or_int({}, 1)

# A noise magnitude bound: a finite, non-negative number.
_magnitude = _flag_type(
    lambda text: _records.number(float(text), "", least=0), "a finite non-negative number"
)

# A bin width ``eps``: positive, with ``1/eps`` a positive integer, returned
# snapped to ``1/round(1/eps)``, the eps that every output records.
_bin_width = _flag_type(lambda text: _snap_eps(float(text)))


# ---------------------------------------------------------------- subcommands


def _cmd_synth(args) -> int:
    out = Path(args.out)
    spec = fig6_spectrum() if args.fig6 else random_spectrum(args.d, args.seed)
    _write_json(spec.to_dict(), out)
    print(f"wrote {out}")
    return 0


def _cmd_signal(args) -> int:
    spec = _read_record(Spectrum, args.spectrum)
    shots = hoeffding_shots_per_point(args.n, *args.plan) if args.plan else args.shots
    if shots is not None:
        ts = sample_shots(spec, args.n, shots, args.seed)
    elif args.noise is not None and args.noise > 0:
        ts = add_noise(generate_clean(spec, args.n), args.noise, args.seed)
    else:
        ts = generate_clean(spec, args.n)
    out = Path(args.out)
    _write_json(ts.to_dict(), out)
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


def _moment_blocks(moment, args, spec):
    """The ``moments`` block of an estimator whose order-s moment is
    ``moment(s)``, one entry per order in ``args.moments``, and given the
    spectrum ``spec``, the ``delta`` block: each moment's error in units of
    ``args.eps``."""
    moments = {str(s): moment(s) for s in args.moments}
    if spec is None:
        return {"moments": moments}
    deltas = {str(s): (exact_moment(spec, s) - moments[str(s)]) / args.eps for s in args.moments}
    return {"moments": moments, "delta": deltas}


def _write_bins_csv(path, dist) -> None:
    """The bin distribution ``dist`` as CSV, one row ``j, lambda_tilde, value`` per bin."""
    rows = ((j, c, v) for j, (c, v) in enumerate(zip(dist.centers, dist.values)))
    _write_csv(path, ["j", "lambda_tilde", "value"], rows)


def _cmd_estimate(args) -> int:
    for dest in ("l_dim",) if args.method == "ts" else ("truncation", "csv"):
        if getattr(args, dest) is not None:
            raise ValueError(f"--{dest.replace('_', '-')} does not apply to --method {args.method}")
    ts = _read_record(TimeSeries, args.signal)
    spec = _read_record(Spectrum, args.spectrum) if args.spectrum else None
    out = Path(args.out)

    if args.method == "ts":
        if args.eps is None:
            raise ValueError("--eps is required for the ts method")
        n_trunc = choose_truncation(args.eps, args.truncation or TruncationMode.EMPIRICAL)
        _check_signal_length(ts, n_trunc)
        bank = build_filterbank(args.eps, n_trunc)
        dist = estimate_bins(ts, bank)
        payload = {"method": "ts", "eps": args.eps, "n_trunc": n_trunc, "bins": dist.to_dict()}
        moment = functools.partial(estimate_moment, dist)
    else:
        if spec is not None and args.eps is None:
            raise ValueError("--eps is required to report delta against a spectrum")
        est = mp_estimate(ts, args.l_dim)
        payload = {"method": "mp", "estimate": est.to_dict()}
        moment = functools.partial(mp_moment, est)
    _write_json({**payload, **_moment_blocks(moment, args, spec)}, out)
    if args.csv:
        _write_bins_csv(args.csv, dist)
    print(f"wrote {out}")
    return 0


# ------------------------------------------------------------- reproductions

DELTA_HEADER = ["seed", "s", "delta_ts", "delta_mp"]


def _seeded_signal(spec, n_len, eps_prime, seed):
    """The noisy signal of trial ``seed``: ``n_len`` samples of ``spec`` at ``eps_prime``."""
    return add_noise(generate_clean(spec, n_len), eps_prime, seed + NOISE_SEED_OFFSET)


def _seeded_estimates(spec, args, bank, seed):
    """The TS bins and the pencil estimate of one seeded noisy signal of ``spec``."""
    noisy = _seeded_signal(spec, bank.n_trunc, args.eps_prime, seed)
    return estimate_bins(noisy, bank), mp_estimate(noisy, args.l_dim)


def _trial_rows(args, bank, seed):
    """The ``DELTA_HEADER`` rows of one seeded run: one per moment order."""
    spec = random_spectrum(args.d, seed)
    dist, pencil = _seeded_estimates(spec, args, bank, seed)
    delta_ts = _moment_blocks(functools.partial(estimate_moment, dist), args, spec)["delta"]
    delta_mp = _moment_blocks(functools.partial(mp_moment, pencil), args, spec)["delta"]
    return [(seed, s, delta_ts[str(s)], delta_mp[str(s)]) for s in args.moments]


def _map_single_blas_thread(func, items):
    """``[func(item) for item in items]``, the calls made on a pool of threads
    of this process, one thread per item and at most one per usable CPU.

    ``main`` calls this only in a process whose BLAS this module pinned to one
    thread, so each call's BLAS work runs in the thread that made the call.
    numpy releases the GIL in its BLAS and LAPACK calls, so the calls overlap
    there, not in Python code. Where calls raise, the exception of the first
    such item in item order is raised here.
    """
    from concurrent.futures import ThreadPoolExecutor

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(min(len(items), cpus or 1)) as pool:
        return list(pool.map(func, items))


def _pencil_bank(args):
    """Resolve ``args.l_dim``, then build the figure's filter bank, so a bad one fails first."""
    n_trunc = choose_truncation(args.eps, args.truncation)
    args.l_dim = _pencil_dimension(n_trunc, args.l_dim)
    return build_filterbank(args.eps, n_trunc)


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


def _reproduce_deltas(outdir: Path, args) -> None:
    """Fig. 5 and the Appendix C table: one pool task per seed, sharing the bank."""
    bank = _pencil_bank(args)
    per_seed = _map_single_blas_thread(functools.partial(_trial_rows, args, bank), args.seeds)
    rows = [row for seed_rows in per_seed for row in seed_rows]
    _write_csv(outdir / "fig5_deltas.csv", DELTA_HEADER, rows)
    parameters = {
        "eps": args.eps,
        "eps_prime": args.eps_prime,
        "m_bins": bank.m_bins,
        "n_trunc": bank.n_trunc,
        "l_dim": args.l_dim,
        "d_spectrum": args.d,
        "seeds": list(args.seeds),
    }
    _write_json(
        {"parameters": parameters, "summary": _delta_summary(rows, args.moments)},
        outdir / "fig5_summary.json",
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
    dist, pencil = _seeded_estimates(spec, args, _pencil_bank(args), args.seed)

    _write_csv(outdir / "fig6_true.csv", ["lambda", "weight"], spec.entries)
    _write_bins_csv(outdir / "fig6_ts.csv", dist)
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
            "seed": args.seed,
            "ts_near_mass_fraction": float(dist.values[near].sum() / dist.values.sum()),
            "mp_phases_outside_range": int(np.count_nonzero(np.abs(pencil.eigenphases) > 0.5)),
        },
        outdir / "fig6_summary.json",
    )


def _cmd_reproduce(args) -> int:
    outdir = Path(args.outdir)
    args.reproduce(outdir, args)
    print(f"wrote {args.figure} bundle to {outdir}")
    return 0


# -------------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: a prefix of a flag is not that flag.
    parser = argparse.ArgumentParser(
        prog="qeep", description=__doc__, fromfile_prefix_chars="@", allow_abbrev=False
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    p = command("synth", _cmd_synth, "write a spectrum file")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--fig6", action="store_true", help="use the fixed five-line spectrum")
    source.add_argument("--d", type=_spectrum_size, help="number of random eigenvalues")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="spectrum.json")

    p = command("signal", _cmd_signal, "generate a time series from a spectrum file")
    p.add_argument("--spectrum", default="spectrum.json")
    p.add_argument("--n", type=int, required=True, help="signal length")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--noise", type=_magnitude, help="additive noise magnitude bound")
    source.add_argument("--shots", type=_shots, help="shots per point")
    source.add_argument(
        "--plan", nargs=2, type=float, metavar=("EPS_PRIME", "CONFIDENCE"),
        help="Hoeffding's shots per point for EPS_PRIME at CONFIDENCE",
    )
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="signal.json")
    p.add_argument("--csv")

    p = command("plan-shots", _cmd_plan_shots, "Hoeffding shot count for a target precision")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps-prime", dest="eps_prime", type=float, required=True)
    p.add_argument("--confidence", type=float, required=True)
    p.add_argument("--out")

    p = command("estimate", _cmd_estimate, "run the ts or mp estimator on a signal file")
    p.add_argument("--signal", default="signal.json")
    p.add_argument("--method", choices=["ts", "mp"], default="ts")
    p.add_argument("--eps", type=_bin_width)
    p.add_argument(
        "--truncation", type=_truncation, help="ts only: empirical (default), strict or N >= 2"
    )
    p.add_argument("--l-dim", dest="l_dim", type=int, help="mp only")
    p.add_argument(
        "--moments", type=_moment_orders, default=(1, 2, 4), help="comma-separated moment orders"
    )
    p.add_argument("--spectrum", help="ground truth for delta reporting")
    p.add_argument("--out", default="estimate.json")
    p.add_argument("--csv", help="ts only: bin distribution as CSV")

    # Figure flags: ``outdir`` for all, ``pencil`` with a pencil.
    outdir = argparse.ArgumentParser(add_help=False)
    outdir.add_argument("--outdir", default=".")
    pencil = argparse.ArgumentParser(add_help=False, parents=[outdir])
    pencil.add_argument("--eps", type=_bin_width, default=0.005)
    pencil.add_argument("--eps-prime", dest="eps_prime", type=_magnitude, default=0.005)
    pencil.add_argument("--l-dim", dest="l_dim", type=int)
    pencil.add_argument(
        "--truncation", type=_truncation, default=TruncationMode.EMPIRICAL,
        help="empirical (default), strict or N >= 2",
    )
    p = command("reproduce", _cmd_reproduce, "rebuild a figure or table bundle")
    figures = p.add_subparsers(dest="figure", required=True)
    for name, parent, func, help in [
        ("fig3", outdir, _reproduce_fig3, "DFT leakage of an off-grid tone"),
        ("fig4", outdir, _reproduce_fig4, "filter curves and their unit sum"),
        ("fig5", pencil, _reproduce_deltas, "seeded moment errors of both estimators"),
        ("fig6", pencil, _reproduce_fig6, "true spectrum and both estimates"),
    ]:
        figure = figures.add_parser(name, parents=[parent], help=help, allow_abbrev=False)
        figure.set_defaults(reproduce=func)
    fig5 = figures.choices["fig5"]
    fig5.add_argument("--seeds", type=_seeds, default=(1, 2, 3, 4, 5))
    fig5.add_argument("--moments", type=_moment_orders, default=(1, 2, 4))
    fig5.add_argument("--d", type=_spectrum_size, default=5)
    figures.choices["fig6"].add_argument("--seed", type=_seed, default=1)

    return parser


def _main_in_child(argv) -> int:
    """``main(argv)`` in a ``python -m qeep.cli`` child with the BLAS thread
    variables at one, which runs it in-process as ``__main__``. Its output is
    written here and its exit code returned, 3 if a signal killed it; this
    process's environment is not changed."""
    import subprocess

    path = [str(Path(__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **dict.fromkeys(_BLAS_THREAD_VARS, "1")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    command = [sys.executable, "-m", "qeep.cli", *argv]
    proc = subprocess.run(command, env=env, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode < 0:
        print(f"worker failure: the CLI process died of signal {-proc.returncode}", file=sys.stderr)
    return 3 if proc.returncode < 0 else proc.returncode


def main(argv=None) -> int:
    if not _NUMPY_LOADED_PINNED and __name__ != "__main__":
        return _main_in_child(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except np.linalg.LinAlgError as exc:  # a ValueError, so caught first
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    """Exit with ``main``'s code, skipping the interpreter's teardown: ``main``
    closed every file it wrote, so only the standard streams need a flush. One
    that fails (a closed pipe) turns success into code 2, with no traceback.
    numpy's ``RuntimeWarning`` lines are dropped, here and not in ``main``, so
    a failing command prints its one error line and nothing more."""
    warnings.simplefilter("ignore", RuntimeWarning)
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            code = code or 2
    os._exit(code)


if __name__ == "__main__":
    entrypoint()

"""qeep benchmark: runs a workload's CLI invocations and reports its metrics.

    python3 perfbench/run.py --workload fig5 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 [--trace 1]   # every workload
    python3 perfbench/run.py --compare BASE.jsonl CHANGE.jsonl

Run from the root of a source checkout; the program is imported from its
``src`` directory. One client runs invocations back to back as fresh
subprocesses: a closed loop, nothing in parallel, one BLAS thread. Each
invocation is accounted on its own with ``os.wait4``: wall time, user+sys
time and that child's own peak RSS.

With ``--trace 0`` it reports the end-to-end metrics. ``setup_s`` is the first
invocation, against an empty ``$QEEP_CACHE_DIR``; ``run_s`` is the median of
the warm invocations repeated for ``--seconds``; ``peak_rss_mb`` is the
largest child RSS. With ``--trace 1`` it reports the per-layer metrics of a
traced in-process replay (see ``replay.py``) beside untraced warm
invocations. The last line of standard output is the result as JSON;
``--save FILE`` also appends the full record, environment included, for
``--compare``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from compare import compare, quartiles
from workloads import WORKLOADS, non_finite

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
HOME_CACHE = Path.home() / ".cache" / "qeep"
MIB = 2**20

# One BLAS thread. On a 2-vCPU machine the library default of two threads
# was no faster and far less steady: a 565x565 eigensolve took 0.55-0.78 s
# (median of 6, four trials) with two threads and 0.58-0.62 s with one.
BLAS_THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

DEADLINE_S = 160.0  # start no invocation that would end past this; runs must end within 180 s
STARTUP_SAMPLES = 3

# Per-layer time metrics and the replay spans whose self times they sum.
LAYER_SPANS = {
    "ts_estimator.estimate_bins_s": ("ts_estimator.estimate_bins",),
    "matrix_pencil.hankel_s": ("matrix_pencil.build_hankel",),
    "matrix_pencil.pinv_s": ("matrix_pencil.solve_pencil",),
    "matrix_pencil.eig_s": ("matrix_pencil.eigenphases",),
    "matrix_pencil.amplitude_s": ("matrix_pencil.solve_amplitudes",),
    "signal.synth_s": ("signal.generate_clean", "signal.add_noise"),
}


@dataclass
class Invocation:
    label: str
    wall: float
    cpu: float
    rss_mib: float
    code: int
    problems: list[str] = field(default_factory=list)
    ratio: float | None = None  # worst TS error / bound over the outputs


class Run:
    """One benchmark run: a private temp directory with its own empty
    ``QEEP_CACHE_DIR``, and every measured invocation made in it."""

    def __init__(self, workload, seed: int):
        TMP.mkdir(exist_ok=True)
        self.workload = workload
        self.seed = seed
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=TMP))
        self.cache = self.dir / "cache"
        path = os.environ.get("PYTHONPATH")
        self.env = {
            **os.environ,
            **BLAS_THREADS,
            "PYTHONPATH": str(SRC) + (os.pathsep + path if path else ""),
            "QEEP_CACHE_DIR": str(self.cache),
        }
        self.started = time.perf_counter()
        self.invocations: list[Invocation] = []
        self.problems: list[str] = []
        self.notes: list[str] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def spawn(self, label: str, argv: list[str]) -> Invocation:
        """Run one Python child to completion and account for it alone."""
        timeout = max(1.0, DEADLINE_S + 15.0 - self.elapsed())
        with open(self.dir / f"{label}.log", "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv],
                cwd=ROOT,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        inv = Invocation(
            label, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode
        )
        if inv.code != 0:
            inv.problems.append(f"{label}: exit code {inv.code}")
        return inv

    def prepare(self) -> None:
        """The workload's untimed inputs."""

        def qeep(args):
            inv = self.spawn(f"prepare-{args[0]}", ["-m", "qeep.cli", *args])
            self.problems += inv.problems

        self.workload.prepare(self.seed, self.dir, qeep)

    def measured(self, label: str, replay: bool = False) -> Invocation:
        """One timed invocation of the workload, with its output checks.
        Every invocation after the first must write the first's bytes."""
        outdir = self.dir / label
        outdir.mkdir()
        args = self.workload.argv(self.seed, self.dir, outdir)
        if replay:
            spans = self.dir / f"{label}.spans"
            inv = self.spawn(label, [str(HERE / "replay.py"), str(spans), "--", *args])
        else:
            inv = self.spawn(label, ["-m", "qeep.cli", *args])
        if inv.code == 0:
            try:
                problems, inv.ratio = self.workload.check(self.seed, self.dir, outdir)
                problems += [f"non-finite values in {name}" for name in non_finite(outdir)]
            except (OSError, KeyError, ValueError, TypeError) as exc:
                problems = [f"unreadable output ({exc!r})"]
            first = self.dir / "cold"
            if outdir != first and not same_files(first, outdir):
                problems.append("outputs differ from the first invocation's")
            inv.problems += [f"{label}: {p}" for p in problems]
        self.invocations.append(inv)
        return inv

    def spans(self, label: str) -> list:
        with open(self.dir / f"{label}.spans") as fh:
            return json.load(fh)

    def repeat(self, seconds: float) -> list[Invocation]:
        """Warm invocations back to back until ``seconds`` have been spent,
        starting none that would pass the deadline."""
        done: list[Invocation] = []
        while not done or sum(i.wall for i in done) < seconds:
            if done and self.elapsed() + 1.2 * done[-1].wall > DEADLINE_S:
                break
            done.append(self.measured(f"warm{len(done)}"))
        return done

    def alternate(self, seconds: float) -> tuple[list[Invocation], list[Invocation]]:
        """Untraced warm invocations and warm replays in turn, so that drift
        in the machine's speed reaches both alike, until both together have
        spent ``seconds``, with at least one of each."""
        warm: list[Invocation] = []
        replays: list[Invocation] = []
        while not warm or sum(i.wall for i in warm + replays) < seconds:
            if warm and self.elapsed() + 1.2 * (warm[-1].wall + replays[-1].wall) > DEADLINE_S:
                break
            warm.append(self.measured(f"warm{len(warm)}"))
            replays.append(self.measured(f"replay{len(replays)}", replay=True))
        return warm, replays

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass  # not empty: another run is using it


def same_files(a: Path, b: Path) -> bool:
    if not a.is_dir():
        return False
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


def dir_bytes(path: Path) -> int:
    if not path.exists():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def home_cache_listing() -> set:
    if not HOME_CACHE.is_dir():
        return set()
    return {(p.name, p.stat().st_size, p.stat().st_mtime_ns) for p in HOME_CACHE.iterdir()}


def entry(value, n: int, **extra) -> dict:
    return {"value": value, "n": n, **extra}


# ------------------------------------------------------------ measurement


def untraced(run: Run, seconds: int) -> dict:
    cold = run.measured("cold")
    warm = run.repeat(seconds)
    q1, med, q3 = quartiles([i.wall for i in warm])
    return {
        "setup_s": entry(cold.wall, 1),
        "run_s": entry(med, len(warm), q1=q1, q3=q3),
        "peak_rss_mb": entry(max(i.rss_mib for i in run.invocations), len(run.invocations)),
        "ts_bound_ratio": entry(cold.ratio, 1),
    }


def layer_metrics(spans: list, phase: str) -> dict:
    """Per-layer figures of one replay: self times summed by layer, array
    bytes returned, and the pencil count. A cold replay's filter-bank time is
    its build (and cache write); a warm replay's is its load."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    self_s, nbytes, count = defaultdict(float), defaultdict(int), Counter()
    for i, (name, start, end, _, size) in enumerate(spans):
        self_s[name] += end - start - child[i]
        nbytes[name] += size
        count[name] += 1

    def layer(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    out = {metric: sum(self_s[s] for s in names) for metric, names in LAYER_SPANS.items()}
    out[f"filterbank.{phase}_s"] = layer("filterbank.")
    out["cli.records_s"] = layer("records.")
    bank = [size for name, _, _, _, size in spans if name.startswith("filterbank.")]
    out["filterbank.table_mb"] = max(bank, default=0) / MIB
    pencils = count["matrix_pencil.mp_estimate"]
    out["matrix_pencil.pencils"] = pencils
    out["matrix_pencil.hankel_mb"] = nbytes["matrix_pencil.build_hankel"] / max(pencils, 1) / MIB
    out["traced_s"] = sum(v for k, v in self_s.items() if k != "cli.main")
    return out


def dominant(layers: dict, startup_s: float) -> str:
    times = {k: v for k, v in layers.items() if k.endswith("_s") and k != "traced_s"}
    times["cli.startup_s"] = startup_s
    return max(times, key=times.get)


def traced(run: Run, seconds: int) -> dict:
    """Per-layer metrics: a cold replay builds the bank into the empty cache,
    then untraced warm invocations, which give ``run_s``, alternate with warm
    replays, which give the layers' self times; their sum over ``run_s`` is
    the coverage."""
    startup = [run.spawn(f"startup{i}", ["-c", "import qeep"]) for i in range(STARTUP_SAMPLES)]
    run.invocations += startup
    startup_s = statistics.median(i.wall for i in startup)
    cold = run.measured("cold", replay=True)
    cache_mb = dir_bytes(run.cache) / MIB
    warm, replays = run.alternate(seconds)
    replays = [i for i in replays if i.code == 0]
    run_s = statistics.median(i.wall for i in warm)

    cold_layers = layer_metrics(run.spans("cold"), "build") if cold.code == 0 else {}
    per_replay = [layer_metrics(run.spans(i.label), "load") for i in replays]
    layers = {k: statistics.median(r[k] for r in per_replay) for k in per_replay[0]} if per_replay else {}
    replay_s = statistics.median(i.wall for i in replays) if replays else float("nan")
    n = len(per_replay)

    metrics = {k: entry(v, n) for k, v in layers.items() if k != "traced_s"}
    metrics["filterbank.build_s"] = entry(cold_layers.get("filterbank.build_s"), 1)
    metrics["filterbank.cache_mb"] = entry(cache_mb, 1)
    metrics["cli.startup_s"] = entry(startup_s, len(startup))
    metrics["cli.out_mb"] = entry(dir_bytes(run.dir / "cold") / MIB, 1)
    metrics["cli.cpu_s"] = entry(statistics.median(i.cpu for i in warm), len(warm))
    metrics["trace.coverage"] = entry((layers.get("traced_s", 0.0) + startup_s) / run_s, n)
    metrics["trace.replay_s"] = entry(replay_s, len(replays))
    metrics["trace.overhead_ratio"] = entry(replay_s / run_s, len(replays))
    metrics["ts_bound_ratio"] = entry(cold.ratio, 1)

    metric, phase = run.workload.predicted
    found = dominant(layers if phase == "run" else cold_layers, startup_s)
    base = replay_s if phase == "run" else cold.wall
    share = (layers if phase == "run" else cold_layers).get(metric, 0.0) / base
    verdict = "confirmed" if found == metric else f"different: {found} dominates"
    run.notes = [
        f"untraced run_s {run_s:.4f} s (n={len(warm)}); traced replay {replay_s:.4f} s",
        f"prediction: {metric} dominates {phase} -- {verdict} ({share:.0%} of {phase} wall)",
    ]
    return metrics


# ------------------------------------------------------------ reporting


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run of one workload; the record ``--save`` writes."""
    run = Run(WORKLOADS[name], seed)
    before = home_cache_listing()
    try:
        run.prepare()
        metrics = traced(run, seconds) if trace else untraced(run, seconds)
    finally:
        run.close()
    if home_cache_listing() - before:
        run.problems.append(f"files appeared in {HOME_CACHE}")
    attempted = len(run.invocations)
    failed = sum(1 for i in run.invocations if i.problems)
    metrics["error_rate"] = entry(failed / attempted, attempted)
    spec = benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["error_rate"] = "ratio"
    wanted = spec["per_layer" if trace else "end_to_end"]
    for m in wanted:
        metrics.setdefault(m["name"], entry(None, 0))
    for key, value in metrics.items():
        value["unit"] = units[key]
    problems = run.problems + [p for i in run.invocations for p in i.problems]
    result = {
        "correct": not problems and all(metrics[m["name"]]["value"] is not None for m in wanted),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]} for m in wanted},
    }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "summary": metrics,
        "problems": problems,
        "notes": run.notes,
        "result": result,
    }


def print_record(rec: dict) -> None:
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  seconds {rec['seconds']}")
    for name, m in sorted(rec["summary"].items()):
        value = m["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        extra = f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}" if "q1" in m else ""
        print(f"  {name:30s} {shown:>12s} {m['unit']:6s} n={m['n']}{extra}")
    for line in rec["notes"] + rec["problems"]:
        print(f"  {line}")


def print_env(env: dict) -> None:
    threads = ", ".join(f"{k}={v}" for k, v in env["blas_threads"].items())
    print(
        f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"blas {env['blas']}, nproc {env['nproc']}, cpu {env['cpu']}; {threads}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="append each record as a JSON line to this file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare, benchmark_spec()["end_to_end"])
    if not (SRC / "qeep" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'qeep'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    names = sorted(WORKLOADS) if args.all else [args.workload]
    if names == [None]:
        parser.error("give --workload or --all")
    seconds = args.seconds or benchmark_spec()["run_seconds"]

    env = environment()
    records = []
    for name in names:
        rec = measure(name, args.seed, seconds, bool(args.trace))
        rec["env"] = env
        records.append(rec)
        if args.save:
            with open(args.save, "a") as fh:
                fh.write(json.dumps(rec) + "\n")
    for rec in records:
        print_record(rec)
    print_env(env)
    if not args.all:
        print(json.dumps(records[0]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

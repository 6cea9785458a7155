"""Byte-level pins of every file the CLI writes.

Each case runs ``qeep.cli.main`` in-process in a fresh directory and compares
every file the invocation writes, byte for byte, with its copy under
``tests/golden/<case>/``. Any change to the bytes of a ``reproduce``,
``synth``, ``signal``, ``estimate`` or ``plan-shots`` output fails here, with
a message that names the file and its first differing line and, for a CSV or
JSON file, the largest absolute and relative change of each numeric field. A
change that is meant to alter an output must say why and re-record the files
with ``PYTHONPATH=src python tests/record_golden.py [CASE ...]``; the test
never writes them, so the diff shows the bytes that moved. CHANGES.md records
each re-recording and why it was made.

Files recorded with Python 3.11.7, numpy 2.4.6 and OpenBLAS 0.3.31
(scipy-openblas, x86-64). The matrix-pencil, time-series (TS) and
random-draw outputs go through numpy's BLAS, LAPACK and generators, so
another numpy or BLAS build may change their last digits.

What each case pins:

- ``reproduce-fig3``: the DFT of an off-grid tone and its peak.
- ``reproduce-fig4``: the five filter curves at eps = 0.25, differences of
  the Gauss-Legendre bump CDF, and their exact unit sum.
- ``reproduce-fig5``: the TS and pencil moment errors of seeds 1 and 2 at
  N = 64, and their summary. The summary records ``l_dim`` (63), so it is
  also the Appendix C table. ``reproduce-fig5-config`` reads the same flags
  from an argument file and writes the same bytes. ``reproduce-fig5-l-dim``
  pins the same seeds at ``--l-dim 32``, the Appendix C table at a pencil
  dimension other than the default.
- ``reproduce-fig6``: the true spectrum, the TS bins, the pencil's
  eigenphases and amplitudes and the summary of seed 1 at N = 64.
- ``synth-fig6`` and ``synth-random``: the spectrum records.
- ``signal-clean``, ``signal-noise`` and ``signal-shots``: the signal
  record, whose values are the base64 ``values_c16le``, and its CSV.
- ``estimate-ts`` and ``estimate-mp``: each estimator's record on a noisy
  64-sample signal, with its moment errors against the spectrum. The pencil
  record ``mp.json`` keeps all ``l_dim`` eigenphases, spurious ones included,
  and holds no filter settings. ``estimate-mp-wide`` pins a certified wide
  pencil (``--l-dim 4``) whose R factor takes a row block.
- ``plan-shots``: the Hoeffding plan at the paper's N = 566.

Three cases run the benchmark's workloads at seed 1, so the paper's own
parameters are pinned too. Each takes its input steps and command line from
``perfbench/workloads.py``, so a case and its workload cannot drift apart:

- ``reproduce-fig5-paper``: default ``reproduce fig5``, seeds 1 to 5 at
  eps = 0.005, N = 566 and L = 565.
- ``reproduce-trials``: the 25 STRICT trials at eps = 0.05 (N = 4469), each
  with a wide pencil at ``--l-dim 64``.
- ``estimate-ts-strict``: the TS record at eps = 0.005 and the STRICT order
  N = 95 896, with its moment errors. Its 2.0 MB input signal is built in the
  case's directory and is not committed.

They share the BLAS-build caveat above.

Changes to the pencil's solve have moved the pencil bytes (``mp.json``, the
``delta_mp`` columns of the fig5 files and ``fig6_mp.csv``) by rounding
only, when they moved them at all, and left every TS byte in place.
Taking the amplitude fit's grid values from ``numpy.fft`` moved them the same way.
"""

import csv
import io
import json
import math
from pathlib import Path

import pytest
from conftest import benchmark_workloads

from qeep.cli import main

GOLDEN = Path(__file__).parent / "golden"

# Every case finds an argument file holding the flags of the small fig5 run,
# one token per line, in its directory.
ARGS_FILE = "--seeds=1,2\n--truncation=64\n--outdir=out\n"

# Input steps: the fixed five-line spectrum, and a 64-sample noisy signal of it
# (both pinned by their own cases below).
SPEC = [["synth", "--fig6", "--out", "in_spec.json"]]
SIGNAL = [
    *SPEC,
    ["signal", "--spectrum", "in_spec.json", "--n", "64", "--noise", "0.005", "--seed", "7",
     "--out", "in_sig.json"],
]

SMALL = ["--truncation", "64", "--seeds", "1,2"]


def _workload(name: str) -> tuple:
    """The input steps and command line of benchmark workload ``name`` at
    seed 1, run in the case's directory and written under ``out``."""
    workload, inputs = benchmark_workloads().WORKLOADS[name], []
    workload.prepare(1, Path("."), inputs.append)
    return inputs, workload.argv(1, Path("."), Path("out"))


# Each case: the input steps it runs first, whose files are not compared, and
# the command whose files are.
CASES = {
    "reproduce-fig3": ([], ["reproduce", "fig3", "--outdir", "out"]),
    "reproduce-fig4": ([], ["reproduce", "fig4", "--outdir", "out"]),
    "reproduce-fig5": ([], ["reproduce", "fig5", "--outdir", "out", *SMALL]),
    # The same run with its flags read from an argument file writes the same bytes.
    "reproduce-fig5-config": ([], ["reproduce", "fig5", "@cfg.args"]),
    # The Appendix C table at a pencil dimension other than the default.
    "reproduce-fig5-l-dim": ([], ["reproduce", "fig5", "--outdir", "out", *SMALL, "--l-dim", "32"]),
    # The paper's own parameters: the benchmark's three workloads at seed 1.
    "reproduce-fig5-paper": _workload("fig5"),
    "reproduce-trials": _workload("trials"),
    "estimate-ts-strict": _workload("strict"),
    "reproduce-fig6": (
        [], ["reproduce", "fig6", "--outdir", "out", "--truncation", "64", "--seed", "1"]
    ),
    "synth-fig6": ([], ["synth", "--fig6", "--out", "spec.json"]),
    "synth-random": ([], ["synth", "--d", "5", "--seed", "42", "--out", "spec.json"]),
    "signal-clean": (SPEC, [
        "signal", "--spectrum", "in_spec.json", "--n", "64", "--out", "sig.json", "--csv", "sig.csv",
    ]),
    "signal-noise": (SPEC, [
        "signal", "--spectrum", "in_spec.json", "--n", "64", "--noise", "0.005", "--seed", "7",
        "--out", "sig.json", "--csv", "sig.csv",
    ]),
    "signal-shots": (SPEC, [
        "signal", "--spectrum", "in_spec.json", "--n", "64", "--shots", "100", "--seed", "3",
        "--out", "sig.json", "--csv", "sig.csv",
    ]),
    "estimate-ts": (SIGNAL, [
        "estimate", "--signal", "in_sig.json", "--method", "ts", "--eps", "0.05",
        "--spectrum", "in_spec.json", "--out", "est.json", "--csv", "bins.csv",
    ]),
    "estimate-mp": (SIGNAL, [
        "estimate", "--signal", "in_sig.json", "--method", "mp", "--l-dim", "32", "--eps", "0.005",
        "--spectrum", "in_spec.json", "--out", "mp.json",
    ]),
    # A wide pencil whose real R factor takes one row block, as the trials
    # workload's pencils do: one 40-row block and 21 rows left over.
    "estimate-mp-wide": (SIGNAL, [
        "estimate", "--signal", "in_sig.json", "--method", "mp", "--l-dim", "4", "--eps", "0.005",
        "--spectrum", "in_spec.json", "--out", "mp.json",
    ]),
    "plan-shots": ([], [
        "plan-shots", "--n", "566", "--eps-prime", "0.005", "--confidence", "0.99", "--out", "plan.json",
    ]),
}


def _files(root: Path) -> dict:
    """The bytes of every file under ``root``, keyed by its ``/``-joined relative path."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _run(argv) -> None:
    if main(argv) != 0:
        raise RuntimeError(f"qeep {' '.join(argv)} failed")


def run_case(name: str, directory: Path) -> dict:
    """Run case ``name`` in the empty ``directory`` (the current directory
    while it runs) and return the bytes of each file its command writes."""
    inputs, argv = CASES[name]
    (directory / "cfg.args").write_text(ARGS_FILE)
    for step in inputs:
        _run(step)
    before = _files(directory)
    _run(argv)
    return {path: data for path, data in _files(directory).items() if path not in before}


def _numbers(text: str, suffix: str) -> dict:
    """Each numeric field of a CSV (by column) or JSON (by key path, list
    indices dropped) file, as the list of its values in file order."""
    fields = {}
    if suffix == ".csv":
        for row in csv.DictReader(io.StringIO(text)):
            for key, value in row.items():
                try:
                    fields.setdefault(key, []).append(float(value))
                except (TypeError, ValueError):  # text, or a cell missing from a short row
                    pass
        return fields

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}.{key}" if path else key)
        elif isinstance(node, list):
            for value in node:
                walk(value, f"{path}[]")
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            fields.setdefault(path, []).append(float(node))

    walk(json.loads(text), "")
    return fields


def _changes(golden: str, written: str, suffix: str) -> list:
    """One line per numeric field whose values moved: the largest absolute and
    relative change, or why the field cannot be compared value by value."""
    old, new = _numbers(golden, suffix), _numbers(written, suffix)
    lines = []
    for field in sorted(old.keys() | new.keys()):
        a, b = old.get(field, []), new.get(field, [])
        if len(a) != len(b):
            lines.append(f"  {field}: {len(a)} values recorded, {len(b)} written")
            continue
        moved = [(x, y) for x, y in zip(a, b) if x != y and not (math.isnan(x) and math.isnan(y))]
        if moved:
            most_abs = max(abs(y - x) for x, y in moved)
            most_rel = max(abs(y - x) / abs(x) if x else math.inf for x, y in moved)
            lines.append(f"  {field}: largest change {most_abs:.3g} absolute, {most_rel:.3g} relative")
    return lines


def _mismatch(path: str, golden: bytes, written: bytes) -> str:
    """Where ``written`` first departs from ``golden``, and by how much its numbers moved."""
    end = [b"<end of file>"]
    old, new = golden.split(b"\n") + end, written.split(b"\n") + end
    line = next(i for i, (x, y) in enumerate(zip(old, new)) if x != y)
    report = [
        f"{path}: first differing line {line + 1}",
        f"  recorded: {old[line][:200].decode(errors='replace')!r}",
        f"  written:  {new[line][:200].decode(errors='replace')!r}",
    ]
    suffix = Path(path).suffix
    if suffix in (".csv", ".json"):
        try:
            report += _changes(golden.decode(), written.decode(), suffix)
        except ValueError as exc:
            report.append(f"  no numeric report: {exc}")
    return "\n".join(report)


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_are_byte_identical(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    written = run_case(name, tmp_path)
    golden = _files(GOLDEN / name)
    assert sorted(written) == sorted(golden), "the case writes other files than it recorded"
    report = [_mismatch(path, golden[path], written[path])
              for path in sorted(golden) if written[path] != golden[path]]
    if report:
        pytest.fail("\n".join(report), pytrace=False)


def test_golden_holds_one_directory_per_case():
    # record_golden.py replaces only the cases it is given, so a renamed or
    # dropped case would otherwise leave files that no test reads.
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)

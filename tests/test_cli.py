import argparse
import base64
import csv
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import benchmark_workloads, run_python
from hypothesis import given, settings
from hypothesis import strategies as st

import qeep
from qeep import (
    Spectrum,
    TimeSeries,
    build_filterbank,
    fig6_spectrum,
    hoeffding_shots_per_point,
    truncated_bins,
)
from qeep.cli import (
    _BLAS_THREAD_VARS,
    NOISE_SEED_OFFSET,
    _build_parser,
    _main_in_child,
    _flag_type,
    _map_single_blas_thread,
    _write_csv,
    _write_json,
    main,
)


def run(*argv) -> int:
    return main([str(a) for a in argv])


def fig6_inputs(directory, n_len, *flags):
    """Write the fig6 spectrum to ``directory/s.json`` and its ``n_len``-entry
    signal, made by ``signal`` with ``flags``, to ``directory/g.json``; return
    the two paths."""
    spec_f, sig_f = directory / "s.json", directory / "g.json"
    assert run("synth", "--fig6", "--out", spec_f) == 0
    assert run("signal", "--spectrum", spec_f, "--n", n_len, *flags, "--out", sig_f) == 0
    return spec_f, sig_f


# A signal record as earlier versions wrote it, the parts as decimal lists.
LIST_FORMAT_SIGNAL = {
    "n_len": 2,
    "provenance": {"kind": "clean"},
    "values_re": [1.0, 0.5],
    "values_im": [0.0, -0.25],
}


def set_signal_real_part(path, k, value) -> None:
    """Decode the values of the signal record at ``path``, set the real part of
    entry ``k`` to ``value`` and encode them again."""
    record = json.loads(path.read_text())
    values = np.frombuffer(base64.b64decode(record["values_c16le"]), "<c16").copy()
    values.real[k] = value
    record["values_c16le"] = base64.b64encode(values.tobytes()).decode("ascii")
    path.write_text(json.dumps(record))


class TestSynth:
    def test_fig6_spectrum_file(self, tmp_path):
        out = tmp_path / "spec.json"
        assert run("synth", "--fig6", "--out", out) == 0
        spec = Spectrum.from_dict(json.loads(out.read_text()))
        assert spec.entries == fig6_spectrum().entries

    def test_random_spectrum_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("synth", "--d", 5, "--seed", 42, "--out", a) == 0
        assert run("synth", "--d", 5, "--seed", 42, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_d_is_usage_error(self, tmp_path):
        assert run("synth", "--d", 0, "--seed", 1, "--out", tmp_path / "x.json") == 2

    def test_missing_source_is_usage_error(self, tmp_path):
        assert run("synth", "--out", tmp_path / "x.json") == 2

    def test_both_sources_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run("synth", "--fig6", "--d", 3, "--out", out) == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()


class TestSignal:
    def test_clean_signal_starts_at_one(self, tmp_path):
        spec = tmp_path / "spec.json"
        sig = tmp_path / "sig.json"
        run("synth", "--fig6", "--out", spec)
        assert run("signal", "--spectrum", spec, "--n", 32, "--out", sig) == 0
        ts = TimeSeries.from_dict(json.loads(sig.read_text()))
        assert ts.values[0] == 1.0 + 0.0j
        assert ts.provenance.kind == "clean"

    def test_noise_bound_respected(self, tmp_path):
        spec = tmp_path / "spec.json"
        clean, noisy = tmp_path / "clean.json", tmp_path / "noisy.json"
        run("synth", "--fig6", "--out", spec)
        run("signal", "--spectrum", spec, "--n", 64, "--out", clean)
        assert (
            run("signal", "--spectrum", spec, "--n", 64, "--noise", 0.005, "--seed", 7, "--out", noisy)
            == 0
        )
        a = TimeSeries.from_dict(json.loads(clean.read_text()))
        b = TimeSeries.from_dict(json.loads(noisy.read_text()))
        assert np.max(np.abs(a.values - b.values)) <= 0.005 + 1e-15
        assert b.provenance.kind == "additive_noise"

    def test_auto_shots_records_plan(self, tmp_path):
        # The signal samples the per-point count and records it in the
        # provenance, without C11's total R, which counts a different model.
        spec = tmp_path / "spec.json"
        sig = tmp_path / "sig.json"
        run("synth", "--fig6", "--out", spec)
        # small precision target keeps the sampling itself cheap
        assert (
            run(
                "signal", "--spectrum", spec, "--n", 8, "--plan", 0.5, 0.9, "--seed", 1,
                "--out", sig,
            )
            == 0
        )
        payload = json.loads(sig.read_text())
        assert payload["n_len"] == 8
        assert "planned_shots" not in payload
        assert payload["provenance"]["kind"] == "shot_sampled"
        assert payload["provenance"]["shots_per_point"] == hoeffding_shots_per_point(8, 0.5, 0.9)
        assert payload["provenance"]["shots_per_point"] == 91
        # The record reads back.
        est = tmp_path / "est.json"
        argv = ["--signal", sig, "--method", "ts", "--eps", 0.25, "--truncation", 8, "--out", est]
        assert run("estimate", *argv) == 0

    @pytest.mark.parametrize("noise", ["-0.5", "nan", "inf"])
    def test_bad_noise_magnitude_is_usage_error(self, tmp_path, capsys, noise):
        spec, out = tmp_path / "spec.json", tmp_path / "sig.json"
        run("synth", "--fig6", "--out", spec)
        capsys.readouterr()
        assert run("signal", "--spectrum", spec, "--n", 8, "--noise", noise, "--out", out) == 2
        assert "finite non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_noise_writes_clean_signal(self, tmp_path):
        spec, clean, zero = tmp_path / "spec.json", tmp_path / "clean.json", tmp_path / "zero.json"
        run("synth", "--fig6", "--out", spec)
        assert run("signal", "--spectrum", spec, "--n", 8, "--out", clean) == 0
        assert run("signal", "--spectrum", spec, "--n", 8, "--noise", 0, "--out", zero) == 0
        assert zero.read_bytes() == clean.read_bytes()

    # rng.binomial takes a C long, so a count above 2**63 - 1 is a usage error.
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--shots", 10**19], "argument --shots: expected an integer in "
             "[1, 9223372036854775807], got '10000000000000000000'"),
            (["--shots", 1.5], "argument --shots: expected an integer in "
             "[1, 9223372036854775807], got '1.5'"),
            (["--plan", 1e-9, 0.9],
             "error: shots_per_point must lie in [1, 9223372036854775807], "
             "got 22539158412676997120"),
        ],
        ids=["above-c-long", "not-an-integer", "auto-above-c-long"],
    )
    def test_bad_shot_count_is_usage_error(self, tmp_path, capsys, flags, message):
        spec, out = tmp_path / "spec.json", tmp_path / "sig.json"
        run("synth", "--fig6", "--out", spec)
        capsys.readouterr()
        assert run("signal", "--spectrum", spec, "--n", 8, *flags, "--out", out) == 2
        [line] = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert message in line
        assert not out.exists()

    # --plan takes both targets; the planner flags of plan-shots are not
    # signal's.
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--plan", 0.5], "argument --plan: expected 2 arguments"),
            (["--confidence", 0.9], "unrecognized arguments: --confidence 0.9"),
        ],
        ids=["no-confidence", "no-eps-prime"],
    )
    def test_auto_shots_needs_both_plan_flags(self, tmp_path, capsys, flags, message):
        spec, out = tmp_path / "spec.json", tmp_path / "sig.json"
        run("synth", "--fig6", "--out", spec)
        capsys.readouterr()
        assert run("signal", "--spectrum", spec, "--n", 8, *flags, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    # One parse-time check for every --seed, whatever the source of the signal.
    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--d", 3],
            ["signal", "--n", 8],
            ["signal", "--n", 8, "--noise", 0.1],
            ["signal", "--n", 8, "--shots", 10],
            ["reproduce", "fig6"],
        ],
        ids=["synth", "signal-clean", "signal-noise", "signal-shots", "reproduce-fig6"],
    )
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        output = ["--outdir", out] if argv[0] == "reproduce" else ["--out", out]
        assert run(*argv, "--seed", -1, *output) == 2
        assert "argument --seed: expected an integer in [0, inf], got '-1'" in capsys.readouterr().err
        assert not out.exists()

    def test_noise_and_shots_conflict(self, tmp_path):
        spec = tmp_path / "spec.json"
        run("synth", "--fig6", "--out", spec)
        rc = run(
            "signal", "--spectrum", spec, "--n", 8, "--noise", 0.1, "--shots", 10,
            "--seed", 1, "--out", tmp_path / "s.json",
        )
        assert rc == 2


class TestPlanShots:
    def test_reference_value(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        assert run("plan-shots", "--n", 566, "--eps-prime", 0.005, "--confidence", 0.99, "--out", out) == 0
        assert json.loads(out.read_text())["shots"] == 526_919_351
        assert "526919351" in capsys.readouterr().out

    def test_invalid_confidence(self):
        assert run("plan-shots", "--n", 10, "--eps-prime", 0.1, "--confidence", 1.5) == 2

    @pytest.mark.parametrize(
        "argv, missing",
        [
            (["plan-shots"], "--n, --eps-prime, --confidence"),
            (["plan-shots", "--n", 10], "--eps-prime, --confidence"),
            (["signal", "--noise", 0.1], "--n"),
        ],
        ids=["plan-shots-none", "plan-shots-n-only", "signal"],
    )
    def test_missing_required_flag_is_usage_error(self, tmp_path, capsys, argv, missing):
        out = tmp_path / "out.json"
        assert run(*argv, "--out", out) == 2
        assert f"the following arguments are required: {missing}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("eps_prime", ["inf", "nan"])
    def test_bad_eps_prime_is_usage_error(self, tmp_path, capsys, eps_prime):
        # Checked where it enters the planner, for plan-shots and signal --plan.
        spec, plan, sig = tmp_path / "spec.json", tmp_path / "plan.json", tmp_path / "sig.json"
        run("synth", "--fig6", "--out", spec)
        capsys.readouterr()
        rc = run("plan-shots", "--n", 10, "--eps-prime", eps_prime, "--confidence", 0.9, "--out", plan)
        assert rc == 2
        assert "eps_prime must lie in [5e-324, " in capsys.readouterr().err
        rc = run("signal", "--spectrum", spec, "--n", 8, "--plan", eps_prime, 0.9, "--out", sig)
        assert rc == 2
        assert "eps_prime must lie in [5e-324, " in capsys.readouterr().err
        assert not plan.exists() and not sig.exists()

    # eps_prime**2 underflows to zero at 1e-200 and to a subnormal whose
    # quotient is infinite at 1e-160.
    @pytest.mark.parametrize("eps_prime", ["1e-200", "1e-160"])
    def test_eps_prime_without_a_finite_plan_is_usage_error(self, tmp_path, capsys, eps_prime):
        out = tmp_path / "plan.json"
        rc = run("plan-shots", "--n", 10, "--eps-prime", eps_prime, "--confidence", 0.9, "--out", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: no finite shot count: n_len=10, eps_prime={float(eps_prime)!r}\n"
        assert not out.exists()

    def test_eps_prime_whose_square_overflows_plans_one_shot(self, capsys):
        assert run("plan-shots", "--n", 10, "--eps-prime", "1e200", "--confidence", 0.9) == 0
        assert json.loads(capsys.readouterr().out)["shots"] == 1

    def test_n_whose_union_ratio_overflows_plans_its_count(self, capsys):
        assert run("plan-shots", "--n", 10**300, "--eps-prime", 1, "--confidence", 0.9999999999999999) == 0
        assert json.loads(capsys.readouterr().out)["shots"] == pytest.approx(1.4564e303, rel=1e-4)


class TestOutputPaths:
    """Every output path gets its missing parent directories, so a command
    never fails half-way with its first file written."""

    def test_plan_shots_creates_parent(self, tmp_path):
        out = tmp_path / "new" / "deeper" / "plan.json"
        assert run("plan-shots", "--n", 10, "--eps-prime", 0.1, "--confidence", 0.9, "--out", out) == 0
        assert json.loads(out.read_text())["n_len"] == 10

    # A directory where a file is read or written.
    @pytest.mark.parametrize("command", ["estimate", "synth"])
    def test_directory_path_is_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "e.json"
        if command == "estimate":
            argv = ["estimate", "--signal", tmp_path, "--eps", 0.25, "--out", out]
        else:
            argv = ["synth", "--fig6", "--out", tmp_path]
        assert run(*argv) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"error: [Errno 21] Is a directory: '{tmp_path}'"
        assert not out.exists()

    def test_csv_parents_are_created(self, tmp_path):
        spec_f = tmp_path / "s.json"
        sig_f, sig_csv = tmp_path / "sig" / "g.json", tmp_path / "sig_csv" / "g.csv"
        est_f, est_csv = tmp_path / "est" / "e.json", tmp_path / "est_csv" / "e.csv"
        run("synth", "--fig6", "--out", spec_f)
        assert run("signal", "--spectrum", spec_f, "--n", 16, "--out", sig_f, "--csv", sig_csv) == 0
        assert sig_csv.read_text().startswith("k,re,im")
        rc = run(
            "estimate", "--signal", sig_f, "--method", "ts", "--eps", 0.25,
            "--truncation", 16, "--out", est_f, "--csv", est_csv,
        )
        assert rc == 0
        assert est_f.exists()
        assert len(est_csv.read_text().splitlines()) == 1 + 5


    @pytest.mark.parametrize(
        "value",
        [np.inf, -np.inf, np.nan, np.float64(np.inf)],
        ids=["inf", "-inf", "nan", "float64"],
    )
    def test_writers_refuse_a_non_finite_float(self, tmp_path, value):
        # JSON has no number for NaN or an infinity; neither writer creates
        # the file or its directory.
        path = tmp_path / "new" / "out"
        message = f"^{re.escape(str(path))}: not written: it would hold a non-finite number$"
        with pytest.raises(ValueError, match=message):
            _write_json({"moments": {"1": 0.5, "2": value}}, path)
        with pytest.raises(ValueError, match=message):
            _write_csv(path, ["s", "delta"], [(1, 0.5), (2, value)])
        assert not path.parent.exists()


class TestEstimate:
    def test_ts_on_clean_signal_matches_truncated_bins(self, tmp_path):
        spec_f, sig_f = fig6_inputs(tmp_path, 64)
        out_f = tmp_path / "e.json"
        rc = run(
            "estimate", "--signal", sig_f, "--method", "ts", "--eps", 0.25,
            "--truncation", 50, "--spectrum", spec_f, "--out", out_f,
        )
        assert rc == 0
        payload = json.loads(out_f.read_text())
        bank = build_filterbank(0.25, 50)
        expected = truncated_bins(fig6_spectrum(), bank)
        assert np.max(np.abs(np.array(payload["bins"]["values"]) - expected.values)) <= 1e-12
        assert set(payload["delta"]) == {"1", "2", "4"}

    def test_mp_noiseless_recovery(self, tmp_path):
        spec_f, sig_f = fig6_inputs(tmp_path, 20)
        out_f = tmp_path / "e.json"
        rc = run(
            "estimate", "--signal", sig_f, "--method", "mp", "--l-dim", 10,
            "--eps", 0.005, "--spectrum", spec_f, "--moments", "1", "--out", out_f,
        )
        assert rc == 0
        payload = json.loads(out_f.read_text())
        assert abs(payload["delta"]["1"]) <= 1e-4

    def test_ts_strict_truncation_mode(self, tmp_path):
        _, sig_f = fig6_inputs(tmp_path, 414)
        out_f = tmp_path / "e.json"
        rc = run(
            "estimate", "--signal", sig_f, "--method", "ts", "--eps", 0.25,
            "--truncation", "strict", "--out", out_f,
        )
        assert rc == 0
        assert json.loads(out_f.read_text())["n_trunc"] == 414

    def test_mp_delta_without_eps_is_usage_error(self, tmp_path):
        spec_f, sig_f = fig6_inputs(tmp_path, 16)
        rc = run(
            "estimate", "--signal", sig_f, "--method", "mp", "--spectrum", spec_f,
            "--out", tmp_path / "e.json",
        )
        assert rc == 2

    def test_missing_eps_for_ts_is_usage_error(self, tmp_path):
        _, sig_f = fig6_inputs(tmp_path, 16)
        assert run("estimate", "--signal", sig_f, "--method", "ts", "--out", tmp_path / "e.json") == 2

    def test_non_finite_signal_is_usage_error(self, tmp_path):
        _, sig_f = fig6_inputs(tmp_path, 16)
        set_signal_real_part(sig_f, 5, float("nan"))
        payload = json.loads(sig_f.read_text())["values_c16le"]
        assert np.isnan(np.frombuffer(base64.b64decode(payload), "<c16")[5].real)
        rc = run(
            "estimate", "--signal", sig_f, "--method", "ts", "--eps", 0.25,
            "--truncation", 16, "--out", tmp_path / "e.json",
        )
        assert rc == 2
        assert not (tmp_path / "e.json").exists()

    # Each malformed record the CLI reads is one error line naming its file:
    # ``key`` of the signal (estimate) or spectrum (signal) record set to
    # ``value``, or with ``key`` None the whole record replaced (a string is
    # the file's text).
    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("estimate", "provenance", {"kind": "bogus"}),
            ("estimate", "provenance", {"kind": "additive_noise"}),
            ("estimate", "provenance", {"kind": "additive_noise", "eps_prime": "abc", "seed": -2.5}),
            ("estimate", "provenance", {"kind": "additive_noise", "eps_prime": 0.005, "seed": -1}),
            ("estimate", "provenance", {"kind": "shot_sampled", "shots_per_point": 0, "seed": 3}),
            ("estimate", "provenance", "clean"),
            ("signal", "entries", 5),
            ("signal", None, [{"lambda": 0.1, "weight": 1.0}]),
            ("estimate", "provenance", {"kind": "clean", "bogus": 3}),
            ("estimate", "n_len", 16.0),
            ("estimate", "n_len", True),
            ("estimate", "values_c16le", "AAAA*AAA"),
            ("estimate", "values_c16le", base64.b64encode(bytes(20)).decode("ascii")),
            ("estimate", "values_c16le", 16),
            ("estimate", None, LIST_FORMAT_SIGNAL),
            ("signal", "entries", [{"lambda": "0.1", "weight": True}]),
            ("signal", "entries", [{"lambda": 10**400, "weight": 1.0}]),
            ("signal", "entries", [[0.1, 1.0]]),
            ("signal", "extra", 3),
            ("estimate", "extra", 3),
            ("signal", "entries", [{"lambda": 0.1, "weight": 1.0, "extra": 3}]),
            ("estimate", None, {"n_len": 16, "provenance": {"kind": "clean"}}),
            ("estimate", None, [{"n_len": 16}]),
            ("signal", None, "[" * 100_000 + "]" * 100_000),
            ("estimate", "provenance", {"kind": "shot_sampled", "shots_per_point": 2**70, "seed": 1}),
            ("signal", "entries", [{"lambda": float("nan"), "weight": 1.0}]),
            ("signal", "entries", [{"lambda": 0.1, "weight": float("inf")}]),
            ("estimate", None, {"n_len": 0, "provenance": {"kind": "clean"}, "values_c16le": ""}),
            ("estimate", "planned_shots", 325),
        ],
        ids=[*(f"provenance{i}" for i in range(5)), "provenance-string", "entries-number",
             "spectrum-list", "provenance-unknown-field", "n_len-float", "n_len-bool",
             "payload-not-base64", "payload-20-bytes", "payload-number", "list-format-signal",
             "entries-not-numbers", "oversized-integer", "entry-list", "spectrum-unknown-key",
             "signal-unknown-key", "entry-unknown-key", "signal-without-payload", "signal-list",
             "nested-too-deeply", "shots-beyond-sampler", "entries-nan-lambda",
             "entries-infinite-weight", "signal-empty", "planned-shots"],
    )
    def test_malformed_provenance_is_usage_error(self, tmp_path, capsys, command, key, value):
        spec_f, sig_f = fig6_inputs(tmp_path, 16)
        out_f = tmp_path / "e.json"
        path = sig_f if command == "estimate" else spec_f
        record = value if key is None else {**json.loads(path.read_text()), key: value}
        path.write_text(record if isinstance(record, str) else json.dumps(record))
        capsys.readouterr()
        if command == "estimate":
            inputs = ["--signal", sig_f, "--method", "ts", "--eps", 0.25, "--truncation", 16]
        else:
            inputs = ["--spectrum", spec_f, "--n", 16]
        assert run(command, *inputs, "--out", out_f) == 2
        [line] = capsys.readouterr().err.splitlines()
        kind = "TimeSeries" if command == "estimate" else "Spectrum"
        assert line.startswith(f"error: {path}: not a {kind} record: ")
        # A key outside the record's key set is named.
        if key in ("extra", "planned_shots"):
            assert repr(key) in line
        assert not out_f.exists()

    def test_spectrum_of_non_numbers_is_usage_error_for_estimate(self, tmp_path, capsys):
        spec_f, sig_f = fig6_inputs(tmp_path, 16)
        out_f = tmp_path / "e.json"
        spec_f.write_text(json.dumps({"entries": [{"lambda": "0.1", "weight": True}]}))
        capsys.readouterr()
        rc = run(
            "estimate", "--signal", sig_f, "--eps", 0.25, "--truncation", 16,
            "--spectrum", spec_f, "--out", out_f,
        )
        assert rc == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {spec_f}: not a Spectrum record: ")
        assert not out_f.exists()

    def test_zero_truncation_order_is_usage_error(self, tmp_path):
        _, sig_f = fig6_inputs(tmp_path, 16)
        rc = run(
            "estimate", "--signal", sig_f, "--method", "ts", "--eps", 0.25,
            "--truncation", 0, "--out", tmp_path / "e.json",
        )
        assert rc == 2
        assert not (tmp_path / "e.json").exists()

    def test_mp_delta_without_eps_fails_before_solving(self, tmp_path, monkeypatch):
        spec_f, sig_f = fig6_inputs(tmp_path, 16)

        def unexpected(*args, **kwargs):
            raise AssertionError("the pencil was solved before the usage check")

        monkeypatch.setattr("qeep.cli.mp_estimate", unexpected)
        rc = run(
            "estimate", "--signal", sig_f, "--method", "mp", "--spectrum", spec_f,
            "--out", tmp_path / "e.json",
        )
        assert rc == 2

    # A 1-entry signal has no pencil, whatever the pencil dimension.
    @pytest.mark.parametrize(
        "n_len, l_dim, message",
        [
            (16, 0, "l_dim must lie in [1, 15], got 0"),
            (16, 16, "l_dim must lie in [1, 15], got 16"),
            (1, None, "the matrix pencil needs a signal of at least 2 entries, got 1"),
            (1, 1, "the matrix pencil needs a signal of at least 2 entries, got 1"),
        ],
        ids=["0", "16", "one-entry-default", "one-entry-explicit"],
    )
    def test_mp_l_dim_outside_range_fails_before_the_worker(self, tmp_path, capsys, monkeypatch,
                                                          n_len, l_dim, message):
        _, sig_f = fig6_inputs(tmp_path, n_len)
        out_f = tmp_path / "e.json"

        def unexpected(*args, **kwargs):
            raise AssertionError("the pencil was solved before the usage check")

        monkeypatch.setattr("qeep.matrix_pencil.solve_pencil", unexpected)
        capsys.readouterr()
        flags = [] if l_dim is None else ["--l-dim", l_dim]
        rc = run("estimate", "--signal", sig_f, "--method", "mp", *flags, "--out", out_f)
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out_f.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--truncation", "strict", "--n-trunc", 16], "unrecognized arguments: --n-trunc"),
            (["--truncation", 1], "argument --truncation"),
            (["--truncation", "x"], "argument --truncation"),
            (["--truncation", 17], "signal has 16 entries but the filter bank needs 17"),
            (["--truncation", "strict"], "signal has 16 entries but the filter bank needs 414"),
        ],
        ids=["n-trunc", "order-one", "not-an-order", "order-above-length", "strict-above-length"],
    )
    def test_bad_truncation_fails_before_any_work(self, tmp_path, capsys, monkeypatch, flags,
                                                  message):
        _, sig_f = fig6_inputs(tmp_path, 16)
        out_f = tmp_path / "e.json"

        def unexpected(*args, **kwargs):
            raise AssertionError("the bank was built before the usage check")

        monkeypatch.setattr("qeep.cli.build_filterbank", unexpected)
        capsys.readouterr()
        rc = run("estimate", "--signal", sig_f, "--method", "ts", "--eps", 0.25, *flags,
                 "--out", out_f)
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out_f.exists()

    # signal plans shots only for --plan, which replaces the planner flags of
    # plan-shots; each reproduce figure takes only the flags it reads.
    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("estimate", ["--method", "mp", "--csv", "bins.csv"], "does not apply to --method mp"),
            ("estimate", ["--method", "mp", "--truncation", 16], "does not apply to --method mp"),
            ("estimate", ["--method", "mp", "--truncation", "strict"],
             "does not apply to --method mp"),
            ("estimate", ["--method", "ts", "--eps", 0.25, "--l-dim", 8],
             "does not apply to --method ts"),
            ("signal", ["--noise", 0.01, "--eps-prime", 0.1],
             "unrecognized arguments: --eps-prime 0.1"),
            ("signal", ["--shots", 10, "--plan", 0.1, 0.5],
             "argument --plan: not allowed with argument --shots"),
            ("signal", ["--confidence", 0.5], "unrecognized arguments: --confidence 0.5"),
            ("reproduce", ["fig3", "--seeds", "1,2"], "unrecognized arguments: --seeds 1,2"),
            ("reproduce", ["fig4", "--eps", 0.25], "unrecognized arguments: --eps 0.25"),
            ("reproduce", ["fig6", "--truncation", 64, "--seeds", "1,2"],
             "unrecognized arguments: --seeds 1,2"),
            ("reproduce", ["fig6", "--truncation", 64, "--moments", "1,2"],
             "unrecognized arguments: --moments 1,2"),
            ("reproduce", ["fig6", "--truncation", 64, "--d", 3], "unrecognized arguments: --d 3"),
        ],
        ids=["mp-csv", "mp-truncation-order", "mp-truncation", "ts-l-dim", "signal-noise",
             "signal-shots", "signal-clean", "fig3-seeds", "fig4-eps", "fig6-seeds",
             "fig6-moments", "fig6-d"],
    )
    def test_flag_the_method_never_reads_is_usage_error(self, tmp_path, capsys, command, flags,
                                                        message):
        spec_f, sig_f = fig6_inputs(tmp_path, 16)
        out = tmp_path / "out"
        capsys.readouterr()
        inputs = {"estimate": ["--signal", sig_f], "signal": ["--spectrum", spec_f, "--n", 16]}
        output = ["--outdir", out] if command == "reproduce" else ["--out", out]
        rc = run(command, *inputs.get(command, []), *flags, *output)
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    # A prefix of a flag the command takes is not that flag: fig6's --seed is
    # not fig5's --seeds, --meth is not --method and --out is not --outdir.
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["reproduce", "fig5", "--seed", 3], "unrecognized arguments: --seed 3"),
            (["estimate", "--signal", "g.json", "--meth", "mp"], "unrecognized arguments: --meth mp"),
            (["reproduce", "fig5", "--out", "x"], "unrecognized arguments: --out x"),
        ],
        ids=["fig5-seed", "estimate-meth", "fig5-out"],
    )
    def test_flag_prefix_is_usage_error(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        fig6_inputs(tmp_path, 16)
        before = set(tmp_path.iterdir())
        capsys.readouterr()
        assert run(*argv) == 2
        assert message in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("method", ["ts", "mp"])
    @pytest.mark.parametrize("moments", ["65", "-1", "one", "", "2,2"])
    def test_bad_moments_are_usage_error_for_both_methods(self, tmp_path, capsys, method,
                                                          moments):
        _, sig_f = fig6_inputs(tmp_path, 16)
        out_f = tmp_path / "e.json"
        capsys.readouterr()
        rc = run(
            "estimate", "--signal", sig_f, "--method", method, "--eps", 0.25,
            f"--moments={moments}", "--out", out_f,
        )
        assert rc == 2
        assert "argument --moments" in capsys.readouterr().err
        assert not out_f.exists()

    @pytest.mark.parametrize("method", ["ts", "mp"])
    @pytest.mark.parametrize("eps", ["nan", "inf", "0.24", "4", "5e-324"])
    def test_bad_eps_is_usage_error_for_both_methods(self, tmp_path, capsys, method, eps):
        spec_f, sig_f = fig6_inputs(tmp_path, 16)
        out_f = tmp_path / "e.json"
        capsys.readouterr()
        rc = run(
            "estimate", "--signal", sig_f, "--method", method, "--eps", eps,
            "--spectrum", spec_f, "--out", out_f,
        )
        assert rc == 2
        assert "argument --eps" in capsys.readouterr().err
        assert not out_f.exists()

    def test_numeric_failure_maps_to_exit_3(self, tmp_path, capsys):
        # The failure comes from the data: a finite entry near the largest
        # double overflows the QR, and the SVD of its R factor does not converge.
        _, sig_f = fig6_inputs(tmp_path, 16)
        set_signal_real_part(sig_f, 5, 1.7e308)
        capsys.readouterr()
        rc = run("estimate", "--signal", sig_f, "--method", "mp", "--out", tmp_path / "e.json")
        assert rc == 3
        assert capsys.readouterr().err == "numeric failure: SVD did not converge\n"
        assert not (tmp_path / "e.json").exists()


class TestReproduce:
    def test_fig3_bundle(self, tmp_path):
        outdir = tmp_path / "figs"
        assert run("reproduce", "fig3", "--outdir", outdir) == 0
        lines = (outdir / "fig3_dft.csv").read_text().splitlines()
        assert lines[0] == "lambda_prime,re,im"
        assert len(lines) == 21
        summary = json.loads((outdir / "fig3_summary.json").read_text())
        assert summary["min_abs_coefficient"] > 0

    def test_fig3_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("reproduce", "fig3", "--outdir", a)
        run("reproduce", "fig3", "--outdir", b)
        assert (a / "fig3_dft.csv").read_bytes() == (b / "fig3_dft.csv").read_bytes()
        assert (a / "fig3_summary.json").read_bytes() == (b / "fig3_summary.json").read_bytes()

    def test_fig4_filter_curves_sum_to_one(self, tmp_path):
        outdir = tmp_path / "figs"
        assert run("reproduce", "fig4", "--outdir", outdir) == 0
        total = None
        for j in range(5):
            rows = (outdir / f"fig4_filter_{j}.csv").read_text().splitlines()[1:]
            vals = np.array([float(r.split(",")[1]) for r in rows])
            total = vals if total is None else total + vals
        assert np.max(np.abs(total - 1.0)) <= 1e-9
        summary = json.loads((outdir / "fig4_summary.json").read_text())
        assert summary["max_abs_sum_minus_one"] <= 1e-9

    def test_fig5_small_configuration(self, tmp_path):
        outdir = tmp_path / "figs"
        rc = run(
            "reproduce", "fig5", "--outdir", outdir, "--seeds", "1,2",
            "--truncation", 64, "--moments", "1,2",
        )
        assert rc == 0
        rows = (outdir / "fig5_deltas.csv").read_text().splitlines()
        assert rows[0] == "seed,s,delta_ts,delta_mp"
        assert len(rows) == 5
        summary = json.loads((outdir / "fig5_summary.json").read_text())
        assert set(summary["summary"]) == {"1", "2"}
        assert len(summary["summary"]["2"]["delta_ts"]) == 2
        # The pencil dimension makes this summary the paper's Appendix C table too.
        assert summary["parameters"]["l_dim"] == 63

    @pytest.mark.parametrize("seed", [1, 3])
    def test_fig5_row_is_the_delta_block_of_estimate(self, tmp_path, seed):
        # estimate on the spectrum and noisy signal of one fig5 seed writes that
        # seed's row of fig5_deltas.csv, float for float, for both methods.
        spec, sig = tmp_path / "spec.json", tmp_path / "sig.json"
        assert run("synth", "--d", 5, "--seed", seed, "--out", spec) == 0
        assert run(
            "signal", "--spectrum", spec, "--n", 64, "--noise", 0.005,
            "--seed", seed + NOISE_SEED_OFFSET, "--out", sig,
        ) == 0
        deltas = {}
        for method, flags in [("ts", ["--truncation", 64]), ("mp", [])]:
            out = tmp_path / f"{method}.json"
            assert run(
                "estimate", "--signal", sig, "--method", method, *flags, "--eps", 0.005,
                "--spectrum", spec, "--out", out,
            ) == 0
            deltas[method] = json.loads(out.read_text())["delta"]
        outdir = tmp_path / "figs"
        assert run("reproduce", "fig5", "--outdir", outdir, "--truncation", 64, "--seeds", seed) == 0
        with open(outdir / "fig5_deltas.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(row["s"]) for row in rows] == [1, 2, 4]
        for row in rows:
            assert int(row["seed"]) == seed
            for method in ("ts", "mp"):
                assert float(row[f"delta_{method}"]) == deltas[method][row["s"]]

    def test_fig6_small_configuration(self, tmp_path):
        outdir = tmp_path / "figs"
        rc = run("reproduce", "fig6", "--outdir", outdir, "--seed", "7", "--truncation", 64)
        assert rc == 0
        assert (outdir / "fig6_true.csv").exists()
        assert (outdir / "fig6_ts.csv").exists()
        assert (outdir / "fig6_mp.csv").exists()
        summary = json.loads((outdir / "fig6_summary.json").read_text())
        assert 0.0 <= summary["ts_near_mass_fraction"] <= 1.1

    def test_appc_is_not_a_figure(self, tmp_path, capsys):
        assert run("reproduce", "appc", "--outdir", tmp_path / "figs") == 2
        assert "argument figure: invalid choice: 'appc'" in capsys.readouterr().err
        assert not (tmp_path / "figs").exists()

    def test_fig6_starts_no_pool(self, tmp_path, monkeypatch):
        import concurrent.futures

        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("fig6 started a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", NoPool)
        assert run("reproduce", "fig6", "--outdir", tmp_path, "--truncation", 64) == 0
        assert (tmp_path / "fig6_mp.csv").exists()

    def test_fig6_numeric_failure_is_exit_3(self, tmp_path, capsys, monkeypatch):
        # fig6 solves its seed in the CLI's main thread, so a failure of the
        # solve reaches ``main`` directly and not through a pool task.
        # ``LinAlgError`` is a ``ValueError``, which would be exit 2.
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr("qeep.cli.mp_estimate", fail)
        capsys.readouterr()
        outdir = tmp_path / "figs"
        assert run("reproduce", "fig6", "--outdir", outdir, "--truncation", 64) == 3
        assert capsys.readouterr().err == "numeric failure: SVD did not converge\n"
        assert not outdir.exists()

    def test_fig5_numeric_failure_in_a_pool_thread_is_exit_3(self, tmp_path, capsys,
                                                             monkeypatch):
        # fig5 solves each seed in a pool thread; the pool raises the failure
        # in ``main``'s thread, which prints one line and no traceback.
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr("qeep.cli.mp_estimate", fail)
        capsys.readouterr()
        outdir = tmp_path / "figs"
        argv = ("reproduce", "fig5", "--outdir", outdir, "--truncation", 64, "--seeds", "1,2")
        assert run(*argv) == 3
        assert capsys.readouterr().err == "numeric failure: Eigenvalues did not converge\n"
        assert not outdir.exists()

    def test_pencil_past_the_memory_ceiling_fails_before_any_work(self, tmp_path, capsys,
                                                                    usage):
        # Paper-default fig5 at the strict order takes L = N - 1 = 95 895,
        # whose pencil would need 1576 GiB: a usage error before the bank.
        capsys.readouterr()
        outdir = tmp_path / "figs"
        with usage() as used:
            rc = run("reproduce", "fig5", "--outdir", outdir, "--truncation", "strict")
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: l_dim must keep the pencil within 1 GiB, got 95895 for 95896 entries,"
            " which needs 1576 GiB\n"
        )
        assert used["seconds"] < 1.0 and used["peak_bytes"] < 2**20
        assert not outdir.exists()

    def test_out_of_memory_is_one_line_and_exit_3(self, tmp_path, capsys, monkeypatch):
        # A pencil too large to allocate, raised from a seed's pool task
        # without allocating it.
        message = "Unable to allocate 34.3 GiB for an array with shape (47948, 47948)"

        def fail(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr("qeep.cli.mp_estimate", fail)
        capsys.readouterr()
        argv = ("reproduce", "fig5", "--outdir", tmp_path, "--truncation", 64, "--seeds", "1,2")
        assert run(*argv) == 3
        assert capsys.readouterr().err == f"out of memory: {message}\n"

    @pytest.mark.parametrize("l_dim", [1, 32, 63], ids=["lowest", "middle", "highest"])
    def test_fig5_summary_records_a_given_l_dim(self, tmp_path, l_dim):
        # ``reproduce fig5 --l-dim L`` is the Appendix C table at pencil dimension L.
        rc = run(
            "reproduce", "fig5", "--outdir", tmp_path, "--truncation", 64, "--seeds", "1",
            "--moments", "4", "--l-dim", l_dim,
        )
        assert rc == 0
        summary = json.loads((tmp_path / "fig5_summary.json").read_text())
        assert summary["parameters"]["l_dim"] == l_dim
        assert np.isfinite(summary["summary"]["4"]["delta_mp"]).all()

    @pytest.mark.parametrize("l_dim", [0, 64], ids=["0", "64"])
    def test_fig6_l_dim_outside_range_fails_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                             l_dim):
        def unexpected(*args, **kwargs):
            raise AssertionError("the bank was built before the usage check")

        monkeypatch.setattr("qeep.cli.build_filterbank", unexpected)
        outdir = tmp_path / "figs"
        rc = run("reproduce", "fig6", "--outdir", outdir, "--truncation", 64, "--l-dim", l_dim)
        assert rc == 2
        assert f"l_dim must lie in [1, 63], got {l_dim}" in capsys.readouterr().err
        assert not outdir.exists()

    def test_invalid_eps_is_usage_error(self, tmp_path):
        assert run("reproduce", "fig5", "--outdir", tmp_path, "--eps", 0.24) == 2

    def test_l_dim_outside_range_fails_before_any_work(self, tmp_path, capsys, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("the bank was built before the usage check")

        monkeypatch.setattr("qeep.cli.build_filterbank", unexpected)
        environ = dict(os.environ)
        outdir = tmp_path / "figs"
        rc = run(
            "reproduce", "fig5", "--outdir", outdir, "--truncation", 64, "--l-dim", 64,
            "--seeds", "1,2",
        )
        assert rc == 2
        assert "l_dim must lie in [1, 63], got 64" in capsys.readouterr().err
        assert not outdir.exists()
        assert dict(os.environ) == environ

    @pytest.mark.parametrize(
        "figure, flags, message",
        [
            pytest.param(figure, flags, message, id=f"{figure}-{name}")
            for figure in ("fig5", "fig6")
            for name, flags, message in [
                ("eps-prime-nan", ["--eps-prime", "nan"], "finite non-negative"),
                ("eps-prime-inf", ["--eps-prime", "inf"], "finite non-negative"),
                ("eps-prime-negative", ["--eps-prime", "-0.1"], "finite non-negative"),
                ("order-one", ["--truncation=1"], "argument --truncation"),
                ("not-an-order", ["--truncation=x"], "argument --truncation"),
                ("n-trunc", ["--n-trunc=64"], "unrecognized arguments: --n-trunc"),
                *(
                    [("seed-negative", ["--seed=-1"],
                      "argument --seed: expected an integer in [0, inf], got '-1'")]
                    if figure == "fig6" else
                    [
                        ("moment-negative", ["--moments=-1"], "moment orders in [0, 64]"),
                        ("moment-too-high", ["--moments=65"], "moment orders in [0, 64]"),
                        ("no-moments", ["--moments="], "moment orders in [0, 64]"),
                        ("seed-negative", ["--seeds=-1,1"], "seeds in [0, inf]"),
                        ("seed-repeated", ["--seeds=1,2,1"], "distinct seeds in [0, inf]"),
                        ("moment-repeated", ["--moments=1,1"],
                         "distinct moment orders in [0, 64], got '1,1'"),
                        ("d-zero", ["--d=0"], "argument --d: expected an integer in [1, inf], got '0'"),
                    ]
                ),
            ]
        ],
    )
    def test_bad_flag_fails_before_any_work(self, tmp_path, capsys, monkeypatch, figure, flags,
                                            message):
        def unexpected(*args, **kwargs):
            raise AssertionError("the bank was built before the usage check")

        monkeypatch.setattr("qeep.cli.build_filterbank", unexpected)
        outdir = tmp_path / "figs"
        rc = run("reproduce", figure, "--outdir", outdir, "--truncation", 64, *flags)
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not outdir.exists()

    # A square pencil, and the ``trials`` workload's wide one, whose R factor
    # starts with a batched QR of its row blocks.
    @pytest.mark.parametrize(
        "flags",
        [
            ["--truncation", 64],
            ["--eps", 0.05, "--truncation", "strict", "--eps-prime", 1e-05, "--l-dim", 64],
        ],
        ids=["square", "trials"],
    )
    def test_rows_do_not_depend_on_scheduling(self, tmp_path, monkeypatch, flags):
        # One thread per seed, whatever the host's CPU count, switching often.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            rc = run("reproduce", "fig5", "--outdir", tmp_path / "all", "--seeds", "3,1,2", *flags)
        finally:
            sys.setswitchinterval(interval)
        assert rc == 0
        header, *rows = (tmp_path / "all" / "fig5_deltas.csv").read_text().splitlines()
        assert [int(r.split(",")[0]) for r in rows] == [3, 3, 3, 1, 1, 1, 2, 2, 2]
        for seed in (3, 1, 2):
            outdir = tmp_path / f"seed{seed}"
            assert run("reproduce", "fig5", "--outdir", outdir, "--seeds", seed, *flags) == 0
            alone = (outdir / "fig5_deltas.csv").read_text().splitlines()
            assert alone == [header] + [r for r in rows if r.startswith(f"{seed},")]

    def test_error_in_a_worker_keeps_its_exit_code(self):
        # A ValueError raised in a pool task reaches the caller as itself,
        # so ``main`` maps it to exit code 2.
        with pytest.raises(ValueError, match="invalid literal for int"):
            _map_single_blas_thread(int, ["1", "x"])

    def test_pool_has_at_most_one_worker_per_usable_cpu(self, monkeypatch):
        import concurrent.futures

        sizes = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _map_single_blas_thread(abs, [-1, -2, -3]) == [1, 2, 3]
        assert sizes == [1]

    def test_numpy_loaded_first_runs_a_cli_child_and_no_pool(self, tmp_path, monkeypatch):
        # A caller that loaded numpy before qeep.cli gets a freshly started
        # ``python -m qeep.cli`` process with the BLAS variables at one; no
        # pool starts in the caller, and the bytes are the in-process ones.
        import concurrent.futures

        argv = ["reproduce", "fig5", "--truncation", 64, "--seeds", "1"]
        assert run(*argv, "--outdir", tmp_path / "here") == 0

        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a pool started in the caller's process")

        children = []
        real_run = subprocess.run

        def recording_run(command, **kwargs):
            children.append((command, kwargs["env"]))
            return real_run(command, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", NoPool)
        monkeypatch.setattr(subprocess, "run", recording_run)
        monkeypatch.setattr("qeep.cli._NUMPY_LOADED_PINNED", False)
        assert run(*argv, "--outdir", tmp_path / "child") == 0
        [(command, env)] = children
        assert command[:3] == [sys.executable, "-m", "qeep.cli"]
        assert all(env[name] == "1" for name in _BLAS_THREAD_VARS)
        here, child = (
            {p.name: p.read_bytes() for p in (tmp_path / side).iterdir()} for side in ("here", "child")
        )
        assert child == here and here

    def test_caller_environment_never_changes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        environ = dict(os.environ)
        assert run("reproduce", "fig5", "--outdir", tmp_path, "--truncation", 64, "--seeds", "1") == 0
        assert dict(os.environ) == environ
        # The child path sets the variables for the child only.
        monkeypatch.setattr("qeep.cli._NUMPY_LOADED_PINNED", False)
        assert run("reproduce", "fig5", "--outdir", tmp_path, "--truncation", 64, "--seeds", "1") == 0
        assert dict(os.environ) == environ


@st.composite
def synth_signal_estimate_flags(draw):
    """Valid flag sets for ``synth``, ``signal`` and ``estimate --method ts``."""
    seeds = st.integers(0, 2**63)
    if draw(st.booleans()):
        synth = ["--fig6"]
    else:
        synth = ["--d", draw(st.integers(1, 8)), "--seed", draw(seeds)]
    n_len = draw(st.integers(8, 64))
    signal = ["--n", n_len, "--seed", draw(seeds)]
    source = draw(st.sampled_from(["clean", "noise", "shots"]))
    if source == "noise":
        signal += ["--noise", draw(st.floats(0.0, 0.1))]
    elif source == "shots":
        signal += ["--shots", draw(st.integers(1, 100))]
    moments = draw(st.lists(st.integers(0, 64), min_size=1, max_size=4, unique=True))
    estimate = [
        "--eps", draw(st.sampled_from([1.0, 0.5, 0.25, 0.2, 0.1])),
        "--moments", ",".join(map(str, moments)),
    ]
    truncation = draw(st.sampled_from(["default", "empirical", "order"]))
    if truncation == "empirical":
        estimate += ["--truncation", "empirical"]
    elif truncation == "order":
        estimate += ["--truncation", draw(st.integers(2, n_len))]
    return synth, signal, estimate


@pytest.mark.parametrize("command", ["estimate", "fig5"])
def test_near_integral_eps_is_recorded_snapped(tmp_path, command):
    # --eps 0.0500000049 enters as 1/round(1/eps) = 0.05, so every eps an
    # output records, and every delta divided by eps, is that of --eps 0.05.
    spec_f, sig_f = fig6_inputs(tmp_path, 64, "--noise", 0.005)
    written = []
    for eps in ("0.05", "0.0500000049"):
        out = tmp_path / eps
        if command == "estimate":
            argv = ["estimate", "--signal", sig_f, "--spectrum", spec_f, "--out", out / "e.json"]
        else:
            argv = ["reproduce", "fig5", "--outdir", out, "--truncation", 64, "--seeds", 1]
        assert run(*argv, "--eps", eps) == 0
        written.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    if command == "estimate":
        record = json.loads(written[1]["e.json"])
        assert record["eps"] == record["bins"]["eps"] == 0.05
    else:
        assert json.loads(written[1]["fig5_summary.json"])["parameters"]["eps"] == 0.05
    assert written[0] == written[1]


class TestDeterminism:
    @settings(max_examples=15, deadline=None)
    @given(flags=synth_signal_estimate_flags())
    def test_same_flags_write_the_same_bytes_property(self, flags):
        synth, signal, estimate = flags
        outputs = []
        with tempfile.TemporaryDirectory() as tmp:
            for side in ("a", "b"):
                d = Path(tmp) / side
                spec_f, sig_f = d / "spec.json", d / "sig.json"
                assert run("synth", *synth, "--out", spec_f) == 0
                assert run("signal", "--spectrum", spec_f, *signal, "--out", sig_f,
                           "--csv", d / "sig.csv") == 0
                assert run("estimate", "--signal", sig_f, "--method", "ts", *estimate,
                           "--spectrum", spec_f, "--out", d / "est.json",
                           "--csv", d / "bins.csv") == 0
                outputs.append({p.name: p.read_bytes() for p in d.iterdir()})
        assert len(outputs[0]) == 5
        assert outputs[0] == outputs[1]


def _args_file(path, *tokens) -> str:
    """Write ``tokens`` to ``path``, one per line, and return the ``@path``
    token that reads them back."""
    path.write_text("".join(f"{t}\n" for t in tokens))
    return f"@{path}"


class TestConfigFile:
    """Flags read from an argument file, ``@path``: its tokens take its place
    in the command line and go through the same single parse."""

    def test_config_supplies_defaults_and_flags_override(self, tmp_path, capsys):
        cfg = _args_file(tmp_path / "cfg.args", "--d=3", "--seed=11",
                         f"--out={tmp_path / 'from_cfg.json'}")
        assert run("synth", cfg) == 0
        spec = Spectrum.from_dict(json.loads((tmp_path / "from_cfg.json").read_text()))
        assert len(spec) == 3

        override = tmp_path / "override.json"
        assert run("synth", cfg, "--d", 4, "--out", override) == 0
        spec2 = Spectrum.from_dict(json.loads(override.read_text()))
        assert len(spec2) == 4

        # Either-or flags conflict wherever they come from; the later does not win.
        capsys.readouterr()
        conflict = tmp_path / "conflict.json"
        cfg = _args_file(tmp_path / "fig6.args", "--fig6")
        assert run("synth", cfg, "--d", 4, "--out", conflict) == 2
        assert "not allowed with argument --fig6" in capsys.readouterr().err
        assert not conflict.exists()

    @pytest.mark.parametrize(
        "command, token",
        [
            ("reproduce", "--moments="),
            ("reproduce", "--moments=1,65"),
            ("reproduce", "--eps-prime=nan"),
            ("estimate", "--moments=-1"),
        ],
        ids=["reproduce-no-moments", "reproduce-moment-too-high", "reproduce-eps-prime-nan",
             "estimate-moment-negative"],
    )
    def test_config_values_get_the_flag_checks(self, tmp_path, capsys, command, token):
        out = tmp_path / "out"
        cfg = _args_file(tmp_path / "cfg.args", token)
        argv = ["fig5", "--outdir", out] if command == "reproduce" else ["--out", out]
        assert run(command, *argv, cfg) == 2
        assert f"argument {token.split('=')[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_command_usage_error(self):
        assert run("frobnicate") == 2

    @pytest.mark.parametrize("seeds, moments", [("1,2", "1,2")])
    def test_lists_resolve_like_flags(self, tmp_path, seeds, moments):
        flags, from_cfg = tmp_path / "flags", tmp_path / "cfg"
        small = ["--truncation", 64]
        rc = run("reproduce", "fig5", "--outdir", flags, "--seeds", seeds, "--moments", moments,
                 *small)
        assert rc == 0
        # A flag and its value may also take a line each, as in the command line.
        cfg = _args_file(tmp_path / "cfg.args", "--seeds", seeds, f"--moments={moments}",
                         f"--outdir={from_cfg}")
        assert run("reproduce", "fig5", cfg, *small) == 0
        for name in ("fig5_deltas.csv", "fig5_summary.json"):
            assert (from_cfg / name).read_bytes() == (flags / name).read_bytes()

    def test_output_and_input_keys_are_honored(self, tmp_path):
        path = tmp_path / "cfg.args"
        spec_f, sig_f = tmp_path / "s.json", tmp_path / "g.json"

        assert run("synth", _args_file(path, "--fig6", f"--out={spec_f}")) == 0
        assert Spectrum.from_dict(json.loads(spec_f.read_text())).entries == fig6_spectrum().entries

        sig_csv = tmp_path / "g.csv"
        cfg = _args_file(path, f"--spectrum={spec_f}", "--n=16", f"--csv={sig_csv}")
        assert run("signal", cfg, "--out", sig_f) == 0
        assert len(sig_csv.read_text().splitlines()) == 17

        est = tmp_path / "e.json"
        cfg = _args_file(path, f"--spectrum={spec_f}", "--eps=0.25", "--truncation=16")
        assert run("estimate", cfg, "--signal", sig_f, "--out", est) == 0
        assert set(json.loads(est.read_text())["delta"]) == {"1", "2", "4"}

        # Every required flag of plan-shots comes from the file.
        plan = tmp_path / "plan.json"
        cfg = _args_file(path, "--n=566", "--eps-prime=0.005", "--confidence=0.99", f"--out={plan}")
        assert run("plan-shots", cfg) == 0
        assert json.loads(plan.read_text())["shots"] == 526_919_351

    @pytest.mark.parametrize(
        "command, token, message",
        [
            ("synth", "--frobnicate=1", "unrecognized arguments: --frobnicate=1"),
            ("synth", "--d=three", "argument --d: expected an integer in [1, inf], got 'three'"),
            ("synth", "--d=3.5", "argument --d: expected an integer in [1, inf], got '3.5'"),
            ("reproduce", "--n-trunc=64", "unrecognized arguments: --n-trunc=64"),
            ("synth", None, "No such file or directory"),
        ],
        ids=["unknown-key", "not-an-int", "float-for-int", "n-trunc", "missing-file"],
    )
    def test_bad_config_is_usage_error(self, tmp_path, capsys, command, token, message):
        # Checked even where every value the command uses comes from flags.
        out, path = tmp_path / "out", tmp_path / "cfg.args"
        cfg = f"@{path}" if token is None else _args_file(path, token)
        argv = ["fig3", "--outdir", out] if command == "reproduce" else ["--fig6", "--out", out]
        assert run(command, cfg, *argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


# The test modules import scipy themselves, so the numpy-only check runs in a
# fresh interpreter. This module goes on its path as ``sitecustomize``, so every
# interpreter of the run installs the blocker at start-up, before anything
# imports qeep.
_BLOCK_SCIPY = """
import sys


class _BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"import of {name} is blocked")
        return None


sys.meta_path.insert(0, _BlockScipy())
"""

_NUMPY_ONLY_RUN = """
import json
import sys

from qeep import cli  # before numpy, so that every command below runs in this process
from qeep import exact_bins, fig6_spectrum

assert cli._NUMPY_LOADED_PINNED

def run(*argv):
    assert cli.main(list(argv)) == 0, argv

# The `strict` workload's command first, on the signal the test wrote, loads
# none of the modules that only other commands need.
run("estimate", "--signal", "g.json", "--method", "ts", "--truncation", "strict", "--eps", "0.25")
lazy = {"numpy.random", "numpy.fft", "numpy.polynomial", "concurrent.futures", "qeep._plan"}
assert not lazy & sys.modules.keys(), lazy & sys.modules.keys()
run("synth", "--fig6")
run("signal", "--n", "32", "--out", "clean.json")
run("signal", "--n", "414", "--noise", "0.0005", "--seed", "3")
run("signal", "--n", "16", "--shots", "100", "--seed", "1", "--out", "shots.json")
run("signal", "--n", "8", "--plan", "0.5", "0.9", "--out", "auto.json")
run("plan-shots", "--n", "566", "--eps-prime", "0.005", "--confidence", "0.99")
# Only the pencil's amplitude fit needs numpy.fft.
assert "numpy.fft" not in sys.modules
run("estimate", "--method", "mp", "--l-dim", "32", "--out", "mp.json")
run("reproduce", "fig3", "--outdir", "out")
# Only fig5 maps its seeds on a thread pool.
assert "concurrent.futures" not in sys.modules
run("reproduce", "fig5", "--truncation", "64", "--seeds", "1", "--outdir", "out")
# Only a filter value needs the Gauss-Legendre nodes, and so numpy.polynomial.
assert "numpy.polynomial" not in sys.modules
run("reproduce", "fig6", "--truncation", "64", "--outdir", "out")
run("reproduce", "fig4", "--outdir", "out")
# No command loads the a-priori planner, so none pays for its import.
assert "qeep._plan" not in sys.modules
assert abs(exact_bins(fig6_spectrum(), 0.005).values.sum() - 1.0) <= 1e-9
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def _cli_on_a_pipe(cwd, *argv, stdout=subprocess.PIPE, unbuffered=False):
    """``python -m qeep.cli argv`` with its standard streams on pipes, which
    buffer their output unless ``unbuffered``."""
    env = {"PYTHONUNBUFFERED": "1"} if unbuffered else {}
    return run_python(["-m", "qeep.cli", *argv], cwd, env, ("PYTHONUNBUFFERED",), stdout=stdout)


def test_cli_process_flushes_its_output_before_it_exits(tmp_path):
    # The CLI process leaves without the interpreter's teardown; what it
    # printed and wrote is complete all the same.
    proc = _cli_on_a_pipe(tmp_path, "synth", "--fig6", "--out", "spec.json")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "wrote spec.json\n", "")

    proc = _cli_on_a_pipe(tmp_path, "reproduce", "fig5", "--truncation", "64", "--l-dim", "64")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: l_dim must lie in [1, 63], got 64\n"

    argv = ["reproduce", "fig5", "--truncation", "64", "--seeds", "1", "--outdir", "out"]
    proc = _cli_on_a_pipe(tmp_path, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "wrote fig5 bundle to out\n", "")
    rows = (tmp_path / "out" / "fig5_deltas.csv").read_text().splitlines()
    assert rows[0] == "seed,s,delta_ts,delta_mp" and len(rows) == 4
    summary = json.loads((tmp_path / "out" / "fig5_summary.json").read_text())
    assert summary["parameters"]["l_dim"] == 63


def test_cli_process_rejects_appc(tmp_path):
    # The Appendix C table is ``reproduce fig5``; ``appc`` is no figure name.
    proc = _cli_on_a_pipe(tmp_path, "reproduce", "appc", "--outdir", "out")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "argument figure: invalid choice: 'appc'" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_cli_process_refuses_an_output_with_a_non_finite_number(tmp_path):
    # Noise of 1e308 overflows the pencil's residual and the moments to
    # infinities, which JSON has no number for. numpy warns of the overflow,
    # an error in this process, so the commands run in a CLI child, which
    # prints its one error line and none of numpy's warnings.
    for argv in (["synth", "--d", "3", "--seed", "1"], ["signal", "--n", "5", "--noise", "1e308"]):
        assert _cli_on_a_pipe(tmp_path, *argv).returncode == 0
    argv = ["estimate", "--method", "mp", "--eps", "0.5", "--spectrum", "spectrum.json"]
    proc = _cli_on_a_pipe(tmp_path, *argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: estimate.json: not written: it would hold a non-finite number\n"
    assert not (tmp_path / "estimate.json").exists()
    # fig5's seeds run on pool threads, whose warnings are dropped too.
    argv = ["reproduce", "fig5", "--eps-prime", "1e308", "--truncation", "8", "--seeds", "1,2"]
    proc = _cli_on_a_pipe(tmp_path, *argv)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("numeric failure: ") and proc.stderr.count("\n") == 1


class _Stream:
    """A standard stream whose ``flush`` is recorded and fails if ``broken``."""

    def __init__(self, broken):
        self.broken = broken
        self.flushed = False

    def flush(self):
        self.flushed = True
        if self.broken:
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "code, broken, expected",
    [
        (0, None, 0),
        (2, None, 2),
        (3, None, 3),
        (0, "stdout", 2),
        (0, "stderr", 2),
        (3, "stdout", 3),
    ],
    ids=["ok", "usage-error", "numeric-failure", "ok-stdout-broken", "ok-stderr-broken",
         "numeric-failure-stdout-broken"],
)
def test_entrypoint_flushes_both_streams_then_exits(monkeypatch, code, broken, expected):
    # A stream that fails to flush turns success into code 2 and keeps a
    # failing code; the other stream is flushed all the same.
    import qeep.cli as cli

    streams = {name: _Stream(broken == name) for name in ("stdout", "stderr")}
    exits = []
    monkeypatch.setattr(cli, "main", lambda: code)
    monkeypatch.setattr(cli.sys, "stdout", streams["stdout"])
    monkeypatch.setattr(cli.sys, "stderr", streams["stderr"])
    monkeypatch.setattr(cli.os, "_exit", exits.append)
    cli.entrypoint()
    assert exits == [expected]
    assert all(stream.flushed for stream in streams.values())


@pytest.mark.parametrize(
    "unbuffered, stderr", [(False, ""), (True, "error: [Errno 32] Broken pipe\n")],
    ids=["fails-at-exit", "fails-in-main"],
)
def test_cli_process_with_a_closed_stdout_fails_without_a_traceback(tmp_path, unbuffered, stderr):
    # Buffered, the write fails in the exit's flush; unbuffered, in ``print``.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cli_on_a_pipe(
            tmp_path, "synth", "--fig6", "--out", "spec.json", stdout=write_end, unbuffered=unbuffered
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, stderr)
    assert (tmp_path / "spec.json").exists()


_LAZY_IMPORT_RUN = """
import sys

import qeep

assert "numpy" not in sys.modules
for name in qeep.__all__:
    getattr(qeep, name)
"""

# Loads the CLI before numpy, as ``python -m qeep.cli`` and the ``qeep``
# script do, and reports the pool's size and the native threads of the process
# before the pool starts and in each task, after a matrix product large enough
# for a multi-threaded BLAS to use its threads.
_PINNED_POOL_RUN = """
import concurrent.futures
import json
import os

from qeep import cli  # before numpy, which then loads under the CLI's pin

import numpy as np

sizes = []


class Recording(concurrent.futures.ThreadPoolExecutor):
    def __init__(self, max_workers):
        sizes.append(max_workers)
        super().__init__(max_workers)


def threads(_):
    np.ones((256, 256)) @ np.ones((256, 256))
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))


concurrent.futures.ThreadPoolExecutor = Recording
before = threads(None)
tasks = cli._map_single_blas_thread(threads, [0, 1])
env = {name: os.environ.get(name) for name in cli._BLAS_THREAD_VARS}
print(json.dumps({"sizes": sizes, "before": before, "tasks": tasks, "env": env}))
"""


def _fresh_interpreter(script, cwd, blas_env, *args):
    """Runs ``script`` with ``args`` under ``blas_env`` in place of the three
    BLAS variables."""
    return run_python(["-c", script, *args], cwd, blas_env, _BLAS_THREAD_VARS)


def test_import_qeep_loads_no_numpy(tmp_path):
    proc = _fresh_interpreter(_LAZY_IMPORT_RUN, tmp_path, {})
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(sys.platform != "linux", reason="counts threads in /proc/self/status")
def test_cli_loaded_before_numpy_starts_no_blas_threads(tmp_path):
    # A set variable is overridden too: the pin holds for the whole process,
    # so its only threads are the main thread and the pool's.
    proc = _fresh_interpreter(_PINNED_POOL_RUN, tmp_path, {"OPENBLAS_NUM_THREADS": "2"})
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    [size] = report["sizes"]
    assert report["before"] == 1
    assert len(report["tasks"]) == 2 and max(report["tasks"]) <= 1 + size
    assert report["env"] == dict.fromkeys(_BLAS_THREAD_VARS, "1")


# The smallest N at which each run's bytes moved with the BLAS thread count
# when it computed with several threads (OpenBLAS 0.3.31), and the files it
# writes into its directory. ``estimate`` reads the noisy signals that
# ``cli_outputs_at_one_thread`` writes first. Every command computes in a
# process that loaded numpy under the CLI's one-thread pin, fig5's seed
# threads included; a program that loaded numpy first gets such a process as
# a child of ``main``.
_THREAD_SENSITIVE_RUNS = [
    (
        ["reproduce", "fig5", "--truncation", "66", "--seeds", "1,2", "--outdir", "."],
        {"fig5_deltas.csv", "fig5_summary.json"},
    ),
    (
        ["reproduce", "fig6", "--truncation", "66", "--outdir", "."],
        {"fig6_true.csv", "fig6_ts.csv", "fig6_mp.csv", "fig6_summary.json"},
    ),
    (
        ["estimate", "--signal", "../../sig.json", "--method", "mp", "--out", "mp.json"],
        {"mp.json"},
    ),
    # Large enough that the bank's and the bin sums' matrix products cross
    # OpenBLAS's threading threshold (m*n*k >= 262144): 55 x 209 x 55 and
    # 55 x 55 x 101.
    (
        ["estimate", "--signal", "../../sig3000.json", "--method", "ts", "--eps", "0.01",
         "--truncation", "3000", "--out", "ts.json", "--csv", "bins.csv"],
        {"ts.json", "bins.csv"},
    ),
]


def _run_dirs(root, label):
    """One new directory per run of ``_THREAD_SENSITIVE_RUNS``, named for ``label``."""
    dirs = [root / f"run{i}" / label for i in range(len(_THREAD_SENSITIVE_RUNS))]
    for d in dirs:
        d.mkdir(parents=True)
    return dirs


def _outputs(dirs):
    return [{p.name: p.read_bytes() for p in d.iterdir()} for d in dirs]


def _cli_outputs(root, label, blas):
    """Runs each of ``_THREAD_SENSITIVE_RUNS`` as ``python -m qeep.cli`` with
    ``blas`` in place of the three BLAS variables and returns what each wrote.
    The runs turn a ``DeprecationWarning`` into an error, as the suite's
    ``filterwarnings`` setting does in this process."""
    dirs = _run_dirs(root, label)
    for (argv, _), outdir in zip(_THREAD_SENSITIVE_RUNS, dirs):
        command = ["-W", "error::DeprecationWarning", "-m", "qeep.cli", *argv]
        proc = run_python(command, outdir, blas, _BLAS_THREAD_VARS)
        assert proc.returncode == 0, proc.stderr
    return _outputs(dirs)


@pytest.fixture(scope="module")
def cli_outputs_at_one_thread(tmp_path_factory):
    """The inputs of ``_THREAD_SENSITIVE_RUNS``, and the files each run writes
    as ``python -m qeep.cli`` with the BLAS variables at 1."""
    root = tmp_path_factory.mktemp("blas")
    spec_f = root / "spec.json"
    assert run("synth", "--fig6", "--out", spec_f) == 0
    for n, name in ((66, "sig.json"), (3000, "sig3000.json")):
        assert run("signal", "--spectrum", spec_f, "--n", n, "--noise", 0.005, "--seed", 7,
                   "--out", root / name) == 0
    outputs = _cli_outputs(root, "threads1", dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    for output, (argv, names) in zip(outputs, _THREAD_SENSITIVE_RUNS):
        assert set(output) == names, argv
    return root, outputs


def test_reproduce_outputs_do_not_depend_on_blas_threads(cli_outputs_at_one_thread):
    # With the variables unset, the CLI's own pin decides the thread count.
    root, expected = cli_outputs_at_one_thread
    for threads in ("2", "unset"):
        blas = {} if threads == "unset" else dict.fromkeys(_BLAS_THREAD_VARS, threads)
        assert _cli_outputs(root, f"threads{threads}", blas) == expected, threads


# A program that loads numpy before qeep.cli, with two BLAS threads, and calls
# ``main`` in each directory it is given; then a usage error and ``plan-shots``
# with its own stdout and stderr redirected. The report is the last line.
_LIBRARY_RUN = """
import numpy  # before qeep.cli, so the CLI cannot pin this process's BLAS

import contextlib
import io
import json
import os
import sys

from qeep import cli

assert not cli._NUMPY_LOADED_PINNED
environ = dict(os.environ)
runs = json.loads(sys.argv[1])
codes = []
for cwd, argv in runs:
    os.chdir(cwd)
    codes.append(cli.main(argv))
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    usage = cli.main(["estimate", "--signal", "missing.json", "--eps", "0.5"])
    plan = cli.main(["plan-shots", "--n", "566", "--eps-prime", "0.005", "--confidence", "0.99"])
print(json.dumps({
    "codes": codes, "usage": usage, "plan": plan, "stdout": out.getvalue(),
    "stderr": err.getvalue(), "environ_kept": dict(os.environ) == environ,
}))
"""


def test_library_call_of_main_runs_as_the_cli(cli_outputs_at_one_thread):
    root, expected = cli_outputs_at_one_thread
    dirs = _run_dirs(root, "library")
    runs = [[str(d), argv] for (argv, _), d in zip(_THREAD_SENSITIVE_RUNS, dirs)]
    proc = _fresh_interpreter(
        _LIBRARY_RUN, root, {"OPENBLAS_NUM_THREADS": "2"}, json.dumps(runs)
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0] * len(runs)
    assert _outputs(dirs) == expected
    assert report["environ_kept"]
    assert report["usage"] == 2
    assert report["stderr"].startswith("error: ") and report["stderr"].count("\n") == 1
    assert report["plan"] == 0
    assert json.loads(report["stdout"]) == {
        "confidence": 0.99, "eps_prime": 0.005, "n_len": 566, "shots": 526919351
    }


def test_child_killed_by_a_signal_is_exit_3(monkeypatch, capsys):
    monkeypatch.setattr(
        subprocess, "run", lambda argv, **kwargs: subprocess.CompletedProcess(argv, -9, "", "")
    )
    assert _main_in_child(["reproduce", "fig3"]) == 3
    assert capsys.readouterr().err == "worker failure: the CLI process died of signal 9\n"


def test_test_process_loaded_numpy_under_the_pin():
    # tests/conftest.py imports qeep.cli before anything loads numpy. A plugin
    # that loaded numpy first would make every in-process ``main`` call of the
    # suite start a child process instead.
    assert qeep.cli._NUMPY_LOADED_PINNED


def test_every_command_runs_without_scipy(tmp_path):
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(_BLOCK_SCIPY)
    fig6_inputs(tmp_path, 414)
    proc = run_python(["-c", _NUMPY_ONLY_RUN], tmp_path, path=[str(site)])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    assert json.loads((tmp_path / "estimate.json").read_text())["n_trunc"] == 414


def _actions(parser):
    """Every action of ``parser`` and of its sub-parsers, at any depth."""
    for action in parser._actions:
        yield action
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _actions(sub)


def test_readme_cli_flags_match_the_parser():
    """The flags the README's CLI section names are exactly the parser's."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z0-9-]*", section))
    flags = {flag for action in _actions(_build_parser()) for flag in action.option_strings}
    assert documented == flags - {"-h", "--help"}


def test_every_checked_flag_type_is_the_adapter():
    """A flag's type is argparse's ``int`` or ``float`` or one built by
    ``_flag_type``, never a converter with its own error handling."""
    adapter = _flag_type(int).__code__
    for action in _actions(_build_parser()):
        kind = action.type
        assert kind in (None, int, float) or kind.__code__ is adapter, action.option_strings


@pytest.mark.parametrize(
    "command, flag",
    [
        (["estimate"], "--eps"),
        (["reproduce", "fig5"], "--eps"),
        (["reproduce", "fig6"], "--eps-prime"),
        (["signal"], "--noise"),
        (["synth"], "--seed"),
        (["synth"], "--d"),
        (["signal"], "--shots"),
        (["estimate"], "--truncation"),
        (["reproduce", "fig5"], "--seeds"),
        (["estimate"], "--moments"),
    ],
)
def test_non_numeric_text_is_the_flags_own_usage_error(capsys, command, flag):
    assert run(*command, flag, "abc") == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: " in err
    assert not re.search(r"invalid \S+ value", err)


def test_benchmark_workloads_parse():
    """Every command line the benchmark's workloads run, their untimed inputs
    included, parses; nothing is run."""
    parser = _build_parser()
    workdir, outdir = Path("work"), Path("out")
    for workload in benchmark_workloads().WORKLOADS.values():
        argvs = []
        workload.prepare(1, workdir, argvs.append)
        argvs.append(workload.argv(1, workdir, outdir))
        for argv in argvs:
            assert callable(parser.parse_args(argv).func), argv

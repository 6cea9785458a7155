import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qeep
from qeep import (
    Spectrum,
    TimeSeries,
    build_filterbank,
    fig6_spectrum,
    truncated_bins,
)
from qeep.cli import main


def run(*argv) -> int:
    return main([str(a) for a in argv])


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
        spec = tmp_path / "spec.json"
        sig = tmp_path / "sig.json"
        run("synth", "--fig6", "--out", spec)
        # small precision target keeps the sampling itself cheap
        assert (
            run(
                "signal", "--spectrum", spec, "--n", 8, "--shots", "auto",
                "--eps-prime", 0.5, "--confidence", 0.9, "--seed", 1, "--out", sig,
            )
            == 0
        )
        payload = json.loads(sig.read_text())
        assert payload["planned_shots"] >= 1
        assert payload["provenance"]["kind"] == "shot_sampled"
        assert payload["provenance"]["shots_per_point"] == payload["planned_shots"]

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


class TestOutputPaths:
    """Every output path gets its missing parent directories, so a command
    never fails half-way with its first file written."""

    def test_plan_shots_creates_parent(self, tmp_path):
        out = tmp_path / "new" / "deeper" / "plan.json"
        assert run("plan-shots", "--n", 10, "--eps-prime", 0.1, "--confidence", 0.9, "--out", out) == 0
        assert json.loads(out.read_text())["n_len"] == 10

    def test_csv_parents_are_created(self, tmp_path):
        spec_f = tmp_path / "s.json"
        sig_f, sig_csv = tmp_path / "sig" / "g.json", tmp_path / "sig_csv" / "g.csv"
        est_f, est_csv = tmp_path / "est" / "e.json", tmp_path / "est_csv" / "e.csv"
        run("synth", "--fig6", "--out", spec_f)
        assert run("signal", "--spectrum", spec_f, "--n", 16, "--out", sig_f, "--csv", sig_csv) == 0
        assert sig_csv.read_text().startswith("k,re,im")
        rc = run(
            "estimate", "--signal", sig_f, "--method", "ts", "--eps", 0.25,
            "--n-trunc", 16, "--out", est_f, "--csv", est_csv,
        )
        assert rc == 0
        assert est_f.exists()
        assert len(est_csv.read_text().splitlines()) == 1 + 5


class TestEstimate:
    def test_ts_on_clean_signal_matches_truncated_bins(self, tmp_path):
        spec_f, sig_f, out_f = tmp_path / "s.json", tmp_path / "g.json", tmp_path / "e.json"
        run("synth", "--fig6", "--out", spec_f)
        run("signal", "--spectrum", spec_f, "--n", 64, "--out", sig_f)
        rc = run(
            "estimate", "--signal", sig_f, "--method", "ts", "--eps", 0.25,
            "--n-trunc", 50, "--spectrum", spec_f, "--out", out_f,
        )
        assert rc == 0
        payload = json.loads(out_f.read_text())
        bank = build_filterbank(0.25, 50)
        expected = truncated_bins(fig6_spectrum(), bank)
        assert np.max(np.abs(np.array(payload["bins"]["values"]) - expected.values)) <= 1e-12
        assert set(payload["delta"]) == {"1", "2", "4"}

    def test_mp_noiseless_recovery(self, tmp_path):
        spec_f, sig_f, out_f = tmp_path / "s.json", tmp_path / "g.json", tmp_path / "e.json"
        run("synth", "--fig6", "--out", spec_f)
        run("signal", "--spectrum", spec_f, "--n", 20, "--out", sig_f)
        rc = run(
            "estimate", "--signal", sig_f, "--method", "mp", "--l-dim", 10,
            "--eps", 0.005, "--spectrum", spec_f, "--moments", "1", "--out", out_f,
        )
        assert rc == 0
        payload = json.loads(out_f.read_text())
        assert abs(payload["delta"]["1"]) <= 1e-4

    def test_ts_strict_truncation_mode(self, tmp_path):
        spec_f, sig_f, out_f = tmp_path / "s.json", tmp_path / "g.json", tmp_path / "e.json"
        run("synth", "--fig6", "--out", spec_f)
        run("signal", "--spectrum", spec_f, "--n", 414, "--out", sig_f)
        rc = run(
            "estimate", "--signal", sig_f, "--method", "ts", "--eps", 0.25,
            "--truncation", "strict", "--out", out_f,
        )
        assert rc == 0
        assert json.loads(out_f.read_text())["n_trunc"] == 414

    def test_mp_delta_without_eps_is_usage_error(self, tmp_path):
        spec_f, sig_f = tmp_path / "s.json", tmp_path / "g.json"
        run("synth", "--fig6", "--out", spec_f)
        run("signal", "--spectrum", spec_f, "--n", 16, "--out", sig_f)
        rc = run(
            "estimate", "--signal", sig_f, "--method", "mp", "--spectrum", spec_f,
            "--out", tmp_path / "e.json",
        )
        assert rc == 2

    def test_missing_eps_for_ts_is_usage_error(self, tmp_path):
        spec_f, sig_f = tmp_path / "s.json", tmp_path / "g.json"
        run("synth", "--fig6", "--out", spec_f)
        run("signal", "--spectrum", spec_f, "--n", 16, "--out", sig_f)
        assert run("estimate", "--signal", sig_f, "--method", "ts", "--out", tmp_path / "e.json") == 2

    def test_non_finite_signal_is_usage_error(self, tmp_path):
        spec_f, sig_f = tmp_path / "s.json", tmp_path / "g.json"
        run("synth", "--fig6", "--out", spec_f)
        run("signal", "--spectrum", spec_f, "--n", 16, "--out", sig_f)
        record = json.loads(sig_f.read_text())
        record["values_re"][5] = float("nan")
        sig_f.write_text(json.dumps(record))
        assert "NaN" in sig_f.read_text()
        rc = run(
            "estimate", "--signal", sig_f, "--method", "ts", "--eps", 0.25,
            "--n-trunc", 16, "--out", tmp_path / "e.json",
        )
        assert rc == 2
        assert not (tmp_path / "e.json").exists()

    @pytest.mark.parametrize(
        "provenance",
        [
            {"kind": "bogus"},
            {"kind": "additive_noise"},
            {"kind": "additive_noise", "eps_prime": "abc", "seed": -2.5},
            {"kind": "additive_noise", "eps_prime": 0.005, "seed": -1},
            {"kind": "shot_sampled", "shots_per_point": 0, "seed": 3},
        ],
    )
    def test_malformed_provenance_is_usage_error(self, tmp_path, provenance):
        spec_f, sig_f = tmp_path / "s.json", tmp_path / "g.json"
        run("synth", "--fig6", "--out", spec_f)
        run("signal", "--spectrum", spec_f, "--n", 16, "--out", sig_f)
        record = json.loads(sig_f.read_text())
        record["provenance"] = provenance
        sig_f.write_text(json.dumps(record))
        rc = run(
            "estimate", "--signal", sig_f, "--method", "ts", "--eps", 0.25,
            "--n-trunc", 16, "--out", tmp_path / "e.json",
        )
        assert rc == 2
        assert not (tmp_path / "e.json").exists()

    def test_zero_truncation_order_is_usage_error(self, tmp_path):
        spec_f, sig_f = tmp_path / "s.json", tmp_path / "g.json"
        run("synth", "--fig6", "--out", spec_f)
        run("signal", "--spectrum", spec_f, "--n", 16, "--out", sig_f)
        rc = run(
            "estimate", "--signal", sig_f, "--method", "ts", "--eps", 0.25,
            "--n-trunc", 0, "--out", tmp_path / "e.json",
        )
        assert rc == 2
        assert not (tmp_path / "e.json").exists()

    def test_mp_delta_without_eps_fails_before_solving(self, tmp_path, monkeypatch):
        spec_f, sig_f = tmp_path / "s.json", tmp_path / "g.json"
        run("synth", "--fig6", "--out", spec_f)
        run("signal", "--spectrum", spec_f, "--n", 16, "--out", sig_f)

        def unexpected(*args, **kwargs):
            raise AssertionError("the pencil was solved before the usage check")

        monkeypatch.setattr("qeep.cli.mp_estimate", unexpected)
        rc = run(
            "estimate", "--signal", sig_f, "--method", "mp", "--spectrum", spec_f,
            "--out", tmp_path / "e.json",
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "method, flags",
        [
            ("mp", ["--csv", "bins.csv"]),
            ("mp", ["--n-trunc", 16]),
            ("ts", ["--eps", 0.25, "--l-dim", 8]),
        ],
        ids=["mp-csv", "mp-n-trunc", "ts-l-dim"],
    )
    def test_flag_the_method_never_reads_is_usage_error(self, tmp_path, capsys, method, flags):
        spec_f, sig_f, out_f = tmp_path / "s.json", tmp_path / "g.json", tmp_path / "e.json"
        run("synth", "--fig6", "--out", spec_f)
        run("signal", "--spectrum", spec_f, "--n", 16, "--out", sig_f)
        capsys.readouterr()
        rc = run("estimate", "--signal", sig_f, "--method", method, *flags, "--out", out_f)
        assert rc == 2
        assert f"does not apply to --method {method}" in capsys.readouterr().err
        assert not out_f.exists()

    @pytest.mark.parametrize("method", ["ts", "mp"])
    @pytest.mark.parametrize("moments", ["65", "-1", "one", ""])
    def test_bad_moments_are_usage_error_for_both_methods(self, tmp_path, capsys, method,
                                                          moments):
        spec_f, sig_f, out_f = tmp_path / "s.json", tmp_path / "g.json", tmp_path / "e.json"
        run("synth", "--fig6", "--out", spec_f)
        run("signal", "--spectrum", spec_f, "--n", 16, "--out", sig_f)
        capsys.readouterr()
        rc = run(
            "estimate", "--signal", sig_f, "--method", method, "--eps", 0.25,
            f"--moments={moments}", "--out", out_f,
        )
        assert rc == 2
        assert "argument --moments" in capsys.readouterr().err
        assert not out_f.exists()

    def test_numeric_failure_maps_to_exit_3(self, tmp_path, monkeypatch):
        spec_f, sig_f = tmp_path / "s.json", tmp_path / "g.json"
        run("synth", "--fig6", "--out", spec_f)
        run("signal", "--spectrum", spec_f, "--n", 16, "--out", sig_f)

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("forced failure")

        monkeypatch.setattr(np.linalg, "eigvals", boom)
        rc = run("estimate", "--signal", sig_f, "--method", "mp", "--out", tmp_path / "e.json")
        assert rc == 3


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
            "--n-trunc", 64, "--moments", "1,2",
        )
        assert rc == 0
        rows = (outdir / "fig5_deltas.csv").read_text().splitlines()
        assert rows[0] == "seed,s,delta_ts,delta_mp"
        assert len(rows) == 5
        summary = json.loads((outdir / "fig5_summary.json").read_text())
        assert set(summary["summary"]) == {"1", "2"}

    def test_fig6_small_configuration(self, tmp_path):
        outdir = tmp_path / "figs"
        rc = run("reproduce", "fig6", "--outdir", outdir, "--seeds", "7", "--n-trunc", 64)
        assert rc == 0
        assert (outdir / "fig6_true.csv").exists()
        assert (outdir / "fig6_ts.csv").exists()
        assert (outdir / "fig6_mp.csv").exists()
        summary = json.loads((outdir / "fig6_summary.json").read_text())
        assert 0.0 <= summary["ts_near_mass_fraction"] <= 1.1

    def test_appc_small_configuration(self, tmp_path):
        outdir = tmp_path / "figs"
        rc = run(
            "reproduce", "appc", "--outdir", outdir, "--seeds", "1,2",
            "--n-trunc", 64, "--moments", "4",
        )
        assert rc == 0
        summary = json.loads((outdir / "appc_summary.json").read_text())
        assert summary["parameters"]["l_dim"] == 63
        assert len(summary["tables"]["4"]["delta_ts"]) == 2

    def test_invalid_eps_is_usage_error(self, tmp_path):
        assert run("reproduce", "fig5", "--outdir", tmp_path, "--eps", 0.24) == 2

    def test_l_dim_outside_range_fails_before_any_work(self, tmp_path, capsys, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("the bank was built before the usage check")

        monkeypatch.setattr("qeep.cli.build_filterbank", unexpected)
        environ = dict(os.environ)
        outdir = tmp_path / "figs"
        rc = run(
            "reproduce", "fig5", "--outdir", outdir, "--n-trunc", 64, "--l-dim", 64,
            "--seeds", "1,2",
        )
        assert rc == 2
        assert "l_dim must lie in [1, n_trunc - 1] = [1, 63], got 64" in capsys.readouterr().err
        assert not outdir.exists()
        assert dict(os.environ) == environ

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--eps-prime", "nan"], "finite non-negative"),
            (["--eps-prime", "inf"], "finite non-negative"),
            (["--eps-prime", "-0.1"], "finite non-negative"),
            (["--moments=-1"], "moment orders in [0, 64]"),
            (["--moments=65"], "moment orders in [0, 64]"),
            (["--moments="], "moment orders in [0, 64]"),
        ],
        ids=["eps-prime-nan", "eps-prime-inf", "eps-prime-negative", "moment-negative",
             "moment-too-high", "no-moments"],
    )
    @pytest.mark.parametrize("figure", ["fig5", "appc", "fig6"])
    def test_bad_flag_fails_before_any_work(self, tmp_path, capsys, monkeypatch, figure, flags,
                                            message):
        def unexpected(*args, **kwargs):
            raise AssertionError("the bank was built before the usage check")

        monkeypatch.setattr("qeep.cli.build_filterbank", unexpected)
        outdir = tmp_path / "figs"
        rc = run("reproduce", figure, "--outdir", outdir, "--n-trunc", 64, "--seeds", "1", *flags)
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not outdir.exists()

    def test_rows_do_not_depend_on_scheduling(self, tmp_path):
        rc = run("reproduce", "fig5", "--outdir", tmp_path / "all", "--seeds", "3,1,2", "--n-trunc", 64)
        assert rc == 0
        header, *rows = (tmp_path / "all" / "fig5_deltas.csv").read_text().splitlines()
        assert [int(r.split(",")[0]) for r in rows] == [3, 3, 3, 1, 1, 1, 2, 2, 2]
        for seed in (3, 1, 2):
            outdir = tmp_path / f"seed{seed}"
            assert run("reproduce", "fig5", "--outdir", outdir, "--seeds", seed, "--n-trunc", 64) == 0
            alone = (outdir / "fig5_deltas.csv").read_text().splitlines()
            assert alone == [header] + [r for r in rows if r.startswith(f"{seed},")]

    def test_error_in_a_worker_keeps_its_exit_code(self, tmp_path, capsys):
        outdir = tmp_path / "figs"
        assert run("reproduce", "fig5", "--outdir", outdir, "--n-trunc", 64, "--seeds", "1,-1") == 2
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert not outdir.exists()

    def test_blas_thread_variables_are_restored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        environ = dict(os.environ)
        assert run("reproduce", "appc", "--outdir", tmp_path, "--n-trunc", 64, "--seeds", "1") == 0
        assert dict(os.environ) == environ


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 3, "seed": 11, "out": str(tmp_path / "from_cfg.json")}))
        assert run("synth", "--config", cfg) == 0
        spec = Spectrum.from_dict(json.loads((tmp_path / "from_cfg.json").read_text()))
        assert len(spec) == 3

        override = tmp_path / "override.json"
        assert run("synth", "--config", cfg, "--d", 4, "--out", override) == 0
        spec2 = Spectrum.from_dict(json.loads(override.read_text()))
        assert len(spec2) == 4

    @pytest.mark.parametrize(
        "command, content",
        [
            ("reproduce", {"moments": []}),
            ("reproduce", {"moments": [1, 65]}),
            ("reproduce", {"eps_prime": "nan"}),
            ("estimate", {"moments": [-1]}),
        ],
        ids=["reproduce-no-moments", "reproduce-moment-too-high", "reproduce-eps-prime-nan",
             "estimate-moment-negative"],
    )
    def test_config_values_get_the_flag_checks(self, tmp_path, capsys, command, content):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps(content))
        argv = ["fig5", "--outdir", out] if command == "reproduce" else ["--out", out]
        assert run(command, *argv, "--config", cfg) == 2
        assert "argument --" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_command_usage_error(self):
        assert run("frobnicate") == 2

    @pytest.mark.parametrize("seeds, moments", [("1,2", "1,2"), ([1, 2], [1, 2])])
    def test_lists_resolve_like_flags(self, tmp_path, seeds, moments):
        flags, from_cfg = tmp_path / "flags", tmp_path / "cfg"
        small = ["--n-trunc", 64]
        rc = run("reproduce", "fig5", "--outdir", flags, "--seeds", "1,2", "--moments", "1,2", *small)
        assert rc == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seeds": seeds, "moments": moments, "outdir": str(from_cfg)}))
        assert run("reproduce", "fig5", "--config", cfg, *small) == 0
        for name in ("fig5_deltas.csv", "fig5_summary.json"):
            assert (from_cfg / name).read_bytes() == (flags / name).read_bytes()

    def test_output_and_input_keys_are_honored(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        spec_f, sig_f = tmp_path / "s.json", tmp_path / "g.json"

        cfg.write_text(json.dumps({"fig6": True, "out": str(spec_f)}))
        assert run("synth", "--config", cfg) == 0
        assert Spectrum.from_dict(json.loads(spec_f.read_text())).entries == fig6_spectrum().entries

        sig_csv = tmp_path / "g.csv"
        cfg.write_text(json.dumps({"spectrum": str(spec_f), "n": 16, "csv": str(sig_csv)}))
        assert run("signal", "--config", cfg, "--out", sig_f) == 0
        assert len(sig_csv.read_text().splitlines()) == 17

        est = tmp_path / "e.json"
        cfg.write_text(json.dumps({"spectrum": str(spec_f), "eps": 0.25, "n_trunc": 16}))
        assert run("estimate", "--config", cfg, "--signal", sig_f, "--out", est) == 0
        assert set(json.loads(est.read_text())["delta"]) == {"1", "2", "4"}

        plan = tmp_path / "plan.json"
        entries = {"n": 566, "eps-prime": 0.005, "confidence": 0.99, "out": str(plan)}
        cfg.write_text(json.dumps(entries))
        assert run("plan-shots", "--config", cfg) == 0
        assert json.loads(plan.read_text())["shots"] == 526_919_351

    @pytest.mark.parametrize(
        "content",
        [{"frobnicate": 1}, {"se": 1}, [["d", 3]], {"d": "three"}, {"d": 3.5}],
        ids=["unknown-key", "abbreviated-key", "not-an-object", "not-an-int", "float-for-int"],
    )
    def test_bad_config_is_usage_error(self, tmp_path, content):
        # Checked even where every value the command uses comes from flags.
        cfg, out = tmp_path / "cfg.json", tmp_path / "spec.json"
        cfg.write_text(json.dumps(content))
        assert run("synth", "--config", cfg, "--fig6", "--out", out) == 2
        assert not out.exists()


# The test modules import scipy themselves, so the numpy-only check runs in a
# fresh interpreter. This module goes on its path as ``sitecustomize``, so every
# interpreter of the run, the spawned workers of ``reproduce`` included,
# installs the blocker at start-up, before anything imports qeep.
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

from qeep import exact_bins, fig6_spectrum
from qeep.cli import main

def run(*argv):
    assert main(list(argv)) == 0, argv

run("synth", "--fig6")
run("signal", "--n", "32", "--out", "clean.json")
run("signal", "--n", "414", "--noise", "0.0005", "--seed", "3")
run("signal", "--n", "16", "--shots", "100", "--seed", "1", "--out", "shots.json")
run("signal", "--n", "8", "--shots", "auto", "--eps-prime", "0.5", "--confidence", "0.9",
    "--out", "auto.json")
run("plan-shots", "--n", "566", "--eps-prime", "0.005", "--confidence", "0.99")
run("estimate", "--method", "ts", "--truncation", "strict", "--eps", "0.25")
run("estimate", "--method", "mp", "--l-dim", "32", "--out", "mp.json")
run("reproduce", "fig3", "--outdir", "out")
run("reproduce", "fig5", "--n-trunc", "64", "--seeds", "1", "--outdir", "out")
# Only a filter value needs the Gauss-Legendre nodes, and so numpy.polynomial.
assert "numpy.polynomial" not in sys.modules
run("reproduce", "appc", "--n-trunc", "64", "--seeds", "1", "--outdir", "out")
run("reproduce", "fig6", "--n-trunc", "64", "--outdir", "out")
run("reproduce", "fig4", "--outdir", "out")
assert abs(exact_bins(fig6_spectrum(), 0.005).values.sum() - 1.0) <= 1e-9
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


# The smallest N at which each reproduction's bytes moved with the BLAS thread
# count when its pencils ran in the calling process (OpenBLAS 0.3.31), and the
# files it writes.
_THREAD_SENSITIVE_RUNS = [
    (
        ["reproduce", "fig5", "--n-trunc", "66", "--seeds", "1,2"],
        {"fig5_deltas.csv", "fig5_summary.json"},
    ),
    (
        ["reproduce", "fig6", "--n-trunc", "66"],
        {"fig6_true.csv", "fig6_ts.csv", "fig6_mp.csv", "fig6_summary.json"},
    ),
]


def test_reproduce_outputs_do_not_depend_on_blas_threads(tmp_path):
    src = str(Path(qeep.__file__).resolve().parents[1])
    for argv, names in _THREAD_SENSITIVE_RUNS:
        outputs = []
        for threads in ("1", "2"):
            outdir = tmp_path / argv[1] / f"threads{threads}"
            blas = dict.fromkeys(
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads
            )
            proc = subprocess.run(
                [sys.executable, "-m", "qeep.cli", *argv, "--outdir", str(outdir)],
                env={**os.environ, **blas, "PYTHONPATH": src},
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append({p.name: p.read_bytes() for p in outdir.iterdir()})
        assert set(outputs[0]) == names
        assert outputs[0] == outputs[1], argv[1]


def test_every_command_runs_without_scipy(tmp_path):
    src = str(Path(qeep.__file__).resolve().parents[1])
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(_BLOCK_SCIPY)
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_ONLY_RUN],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(site), src])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    assert json.loads((tmp_path / "estimate.json").read_text())["n_trunc"] == 414

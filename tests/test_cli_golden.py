"""Byte-level pins of every file the CLI writes.

Each case runs ``qeep.cli.main`` in-process in a fresh directory and compares
the SHA-256 of every file the invocation writes with a recorded value. Any
change to the bytes of a ``reproduce``, ``synth``, ``signal``, ``estimate`` or
``plan-shots`` output fails here; a change that is meant to alter an output
must say why and record new hashes. CHANGES.md records each re-recording and
why it was made.

Hashes recorded with Python 3.11.7, numpy 2.4.6 and OpenBLAS 0.3.31
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
  and holds no filter settings.
- ``plan-shots``: the Hoeffding plan at the paper's N = 566.

Every change to the pencil's solve so far has moved the pencil bytes
(``mp.json``, the ``delta_mp`` columns of the fig5 files and
``fig6_mp.csv``) by rounding only, and left every TS byte in place.
Taking the amplitude fit's grid values from ``numpy.fft`` moved them the same way.
"""

import hashlib

import pytest

from qeep.cli import main

# Inputs every case finds in its directory: the fixed five-line spectrum, a
# 64-sample noisy signal of it (both pinned by their own cases below), and an
# argument file holding the flags of the small fig5 run, one token per line.
ARGS_FILE = "--seeds=1,2\n--truncation=64\n--outdir=out\n"
INPUTS = [
    ["synth", "--fig6", "--out", "in_spec.json"],
    ["signal", "--spectrum", "in_spec.json", "--n", "64", "--noise", "0.005", "--seed", "7",
     "--out", "in_sig.json"],
]

SMALL = ["--truncation", "64", "--seeds", "1,2"]

CASES = {
    "reproduce-fig3": (
        ["reproduce", "fig3", "--outdir", "out"],
        {
            "out/fig3_dft.csv": "edd73f15f51a9492cbe03f6737c606a9eba5b8f1222f151d2c2d015c64edb578",
            "out/fig3_summary.json": "731d51fd87055476cb75cfdb52a4cd45a98ef5b5ae458445fc0b1d11ffc5a881",
        },
    ),
    "reproduce-fig4": (
        ["reproduce", "fig4", "--outdir", "out"],
        {
            "out/fig4_filter_0.csv": "818a3b8efd210f3402f3853ef532706d6ed7b57b8e8a781f7938b17b29410d13",
            "out/fig4_filter_1.csv": "df57c34a6a5a104841d6f3bb8719aeda1a6d40916d6744c868dd5834cf9dd052",
            "out/fig4_filter_2.csv": "340194d8952cdbb0d2a00ea0e58ee75dee5ca57655133fc28c9556e0a5d08e36",
            "out/fig4_filter_3.csv": "785c3adbce4443ce8d2bced971117bda35d1f9885c26f47c62391bd89b9833af",
            "out/fig4_filter_4.csv": "4b97cf350b6fe671bffa35ff33202d3d4611ac9341633b2f89dbcf123b2d4c97",
            "out/fig4_summary.json": "452bdbebf8cc76d61a28c2f8c97d2813fb2fb221e3d0f12ea6ac4d440c6ddad8",
        },
    ),
    "reproduce-fig5": (
        ["reproduce", "fig5", "--outdir", "out", *SMALL],
        {
            "out/fig5_deltas.csv": "c8319c0fd0b402ae2a3e8a98927c67000536037cd6ec51209c918f35ec1cf188",
            "out/fig5_summary.json": "72cb1d3f95fbde3fb196a7219b5e8b152e65caf299cd9f9be2d6e0a1fca886a3",
        },
    ),
    # The same run with its flags read from an argument file writes the same bytes.
    "reproduce-fig5-config": (
        ["reproduce", "fig5", "@cfg.args"],
        {
            "out/fig5_deltas.csv": "c8319c0fd0b402ae2a3e8a98927c67000536037cd6ec51209c918f35ec1cf188",
            "out/fig5_summary.json": "72cb1d3f95fbde3fb196a7219b5e8b152e65caf299cd9f9be2d6e0a1fca886a3",
        },
    ),
    # The Appendix C table at a pencil dimension other than the default.
    "reproduce-fig5-l-dim": (
        ["reproduce", "fig5", "--outdir", "out", *SMALL, "--l-dim", "32"],
        {
            "out/fig5_deltas.csv": "3a2888bacdb54ccca33bfedbbec9b3cf541c5bf6193189bd99e4aaa3d891f99d",
            "out/fig5_summary.json": "1b3bf3b652345b2555d5334c9b443ed06a2912bab32ef346990a02b8f52e23b5",
        },
    ),
    "reproduce-fig6": (
        ["reproduce", "fig6", "--outdir", "out", "--truncation", "64", "--seed", "1"],
        {
            "out/fig6_mp.csv": "40f8763d84fe65f704d9ca6b440764d81bf873c9b1de45a50e991d54dee05684",
            "out/fig6_summary.json": "8dfa6721e0fb54967f3bea7d538ec1ec2e462ead0efe5a9281349c38096fd770",
            "out/fig6_true.csv": "81b5e413c34f4b40bbaabe07d3380bdd81742b4941578773b237b8e6f9c7945d",
            "out/fig6_ts.csv": "cfc6b1035ea5985c4799acd519c16da3dad36d4d82a5d00d65ea6597787c3c64",
        },
    ),
    "synth-fig6": (
        ["synth", "--fig6", "--out", "spec.json"],
        {
            "spec.json": "93b85494ed4e3688d40f5118ad512473d56ba9f9bc54a6fbd23a1a83f72b0a39",
        },
    ),
    "synth-random": (
        ["synth", "--d", "5", "--seed", "42", "--out", "spec.json"],
        {
            "spec.json": "fb26c1d2ae1a5b331123e04170de8611ba44765f912e9fd17ba14e064537c98c",
        },
    ),
    "signal-clean": (
        ["signal", "--spectrum", "in_spec.json", "--n", "64", "--out", "sig.json", "--csv", "sig.csv"],
        {
            "sig.csv": "87d08b249f6672d1e834a0019066dea1dd3a0abc8c6da3c26d4090edbbd8d027",
            "sig.json": "37bb26eaa9634f76e36ac651af12ba3ee00a31b14e23cfc849288dbe00b1ac72",
        },
    ),
    "signal-noise": (
        [
            "signal", "--spectrum", "in_spec.json", "--n", "64", "--noise", "0.005", "--seed", "7",
            "--out", "sig.json", "--csv", "sig.csv",
        ],
        {
            "sig.csv": "8a7c10a312c806e5c111e902dc86b74eb3b2e4a639457007a455518d83d06a84",
            "sig.json": "c696562b7b221e4b3e050823cb650b8769857cd99bb488a114142657864e7fb8",
        },
    ),
    "signal-shots": (
        [
            "signal", "--spectrum", "in_spec.json", "--n", "64", "--shots", "100", "--seed", "3",
            "--out", "sig.json", "--csv", "sig.csv",
        ],
        {
            "sig.csv": "3593db47810a4f467488bd0ae793eaf2ed1ecc904e288edcf29c177cf4bea389",
            "sig.json": "7af90a62c0d7be6babb53603dc3e445b2d127903b0d146f2957f94d914cc2471",
        },
    ),
    "estimate-ts": (
        [
            "estimate", "--signal", "in_sig.json", "--method", "ts", "--eps", "0.05",
            "--spectrum", "in_spec.json", "--out", "est.json", "--csv", "bins.csv",
        ],
        {
            "bins.csv": "ec9795e763ede61ff9f8fcf01a4508b3bed45d8c9d90d1154e0f2d240162c55e",
            "est.json": "8cf72dc2556e2eb0e80a514d4d80da79de2f286e9c2892e55467ff46faf67947",
        },
    ),
    "estimate-mp": (
        [
            "estimate", "--signal", "in_sig.json", "--method", "mp", "--l-dim", "32", "--eps", "0.005",
            "--spectrum", "in_spec.json", "--out", "mp.json",
        ],
        {
            "mp.json": "a64b8053e56cfc3a0ccaeac97682109c264c4efa4a3dab722c532bfc5841519c",
        },
    ),
    "plan-shots": (
        ["plan-shots", "--n", "566", "--eps-prime", "0.005", "--confidence", "0.99", "--out", "plan.json"],
        {
            "plan.json": "ce38b344428fce219b59c7a149c8d10b0569978796fb0cad46805cbbd4873e64",
        },
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _files(root) -> set:
    return {p for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_are_byte_identical(name, tmp_path, monkeypatch):
    argv, expected = CASES[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.args").write_text(ARGS_FILE)
    for inputs in INPUTS:
        assert main(inputs) == 0
    before = _files(tmp_path)
    assert main(argv) == 0
    written = {str(p.relative_to(tmp_path)): _sha256(p) for p in _files(tmp_path) - before}
    assert written == expected

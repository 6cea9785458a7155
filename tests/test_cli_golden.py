"""Byte-level pins of every file the CLI writes.

Each case runs ``qeep.cli.main`` in-process in a fresh directory and compares
the SHA-256 of every file the invocation writes with a value recorded before
the CLI's argument and output plumbing was refactored. Any change to the
bytes of a ``reproduce``, ``synth``, ``signal``, ``estimate`` or
``plan-shots`` output fails here; a change that is meant to alter an output
must say why and record new hashes.

Hashes recorded with Python 3.11.7, numpy 2.4.6 and OpenBLAS 0.3.31
(scipy-openblas, x86-64). The matrix-pencil and random-draw outputs go
through numpy's LAPACK and generators, so another numpy or BLAS build may
change their last digits.

The matrix-pencil bytes were re-recorded once, when the pencil solve moved from
``np.linalg.pinv`` of the wide ``H0`` to the R factor of one QR of the
``(L+1)``-row Hankel: ``estimate-mp`` (``mp.json``), ``reproduce-fig5`` and
``reproduce-fig5-config`` (``fig5_deltas.csv``, ``fig5_summary.json``),
``reproduce-appc`` (``appc_delta_table.csv``, ``appc_summary.json``) and
``reproduce-fig6`` (``fig6_mp.csv`` only). The two solves agree to rounding,
not bit for bit; the TS columns and files of those cases did not move.

The six ``reproduce-fig4`` hashes were re-recorded once, when the filter
curves moved from adaptive quadrature (scipy ``quad``, epsabs 1e-12) to the
difference of a Gauss-Legendre bump CDF. The values moved by at most 3.7e-12,
the quadrature's own tolerance, and the unit sum in ``fig4_summary.json``
became exact.
"""

import hashlib
import json

import pytest

from qeep.cli import main

# Inputs every case finds in its directory: the fixed five-line spectrum, a
# 64-sample noisy signal of it (both pinned by their own cases below), and a
# config file holding the flags of the small fig5 run.
CONFIG = {"seeds": [1, 2], "n_trunc": 64, "outdir": "out"}
INPUTS = [
    ["synth", "--fig6", "--out", "in_spec.json"],
    ["signal", "--spectrum", "in_spec.json", "--n", "64", "--noise", "0.005", "--seed", "7",
     "--out", "in_sig.json"],
]

SMALL = ["--n-trunc", "64", "--seeds", "1,2"]

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
            "out/fig5_deltas.csv": "04c0c2b4bcd8124eb78edfbefd18450cc4892e8f1ea511e8711b26e913a95d92",
            "out/fig5_summary.json": "641f89b5f42dd5a7c86c6ebc54554f5222715d042395d24b9d900aa6c5a1e554",
        },
    ),
    # The same run configured from a file writes the same bytes.
    "reproduce-fig5-config": (
        ["reproduce", "fig5", "--config", "cfg.json"],
        {
            "out/fig5_deltas.csv": "04c0c2b4bcd8124eb78edfbefd18450cc4892e8f1ea511e8711b26e913a95d92",
            "out/fig5_summary.json": "641f89b5f42dd5a7c86c6ebc54554f5222715d042395d24b9d900aa6c5a1e554",
        },
    ),
    "reproduce-appc": (
        ["reproduce", "appc", "--outdir", "out", *SMALL],
        {
            "out/appc_delta_table.csv": "04c0c2b4bcd8124eb78edfbefd18450cc4892e8f1ea511e8711b26e913a95d92",
            "out/appc_summary.json": "e59840dad2d7fd27173c2e50f6f91ab26db07dca2f963a91da1a400d67591e41",
        },
    ),
    "reproduce-fig6": (
        ["reproduce", "fig6", "--outdir", "out", *SMALL],
        {
            "out/fig6_mp.csv": "eb929047e5eff69c267c975b04d50049b83703e512865ab7a69da560bf59775d",
            "out/fig6_summary.json": "0e26f6050e70660f4319dd8753e96ffad4e4d6862e6dd2c4c685af421d6e2113",
            "out/fig6_true.csv": "81b5e413c34f4b40bbaabe07d3380bdd81742b4941578773b237b8e6f9c7945d",
            "out/fig6_ts.csv": "f6ef78c0bc59d6ed5979ecacb43ddb638805b890326a3816e5567cab3ffe9c5d",
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
            "sig.json": "28706b2a8058e4b229290571e6c4f8ee019a474911a11ccc5ce5defeb4abe43e",
        },
    ),
    "signal-noise": (
        [
            "signal", "--spectrum", "in_spec.json", "--n", "64", "--noise", "0.005", "--seed", "7",
            "--out", "sig.json", "--csv", "sig.csv",
        ],
        {
            "sig.csv": "8a7c10a312c806e5c111e902dc86b74eb3b2e4a639457007a455518d83d06a84",
            "sig.json": "7d0f6011b8abce89c2ad346b3945cf04a6e81256962dfe63f1a85566095c1f94",
        },
    ),
    "signal-shots": (
        [
            "signal", "--spectrum", "in_spec.json", "--n", "64", "--shots", "100", "--seed", "3",
            "--out", "sig.json", "--csv", "sig.csv",
        ],
        {
            "sig.csv": "3593db47810a4f467488bd0ae793eaf2ed1ecc904e288edcf29c177cf4bea389",
            "sig.json": "b571caf320e49a485ceea74d9211dc81bf20a2b2fa99e9924e3ab6eb50739c5a",
        },
    ),
    "estimate-ts": (
        [
            "estimate", "--signal", "in_sig.json", "--method", "ts", "--eps", "0.05",
            "--spectrum", "in_spec.json", "--out", "est.json", "--csv", "bins.csv",
        ],
        {
            "bins.csv": "6cc473f5e9e3ee34ba4b17fe6409fb03676a7a915ee4fb9626ef126b77097d0b",
            "est.json": "4b1484eab5aa60ebe089030bcf2a66e3ec40c2e8e054aeea6d62a5c165865c32",
        },
    ),
    "estimate-mp": (
        [
            "estimate", "--signal", "in_sig.json", "--method", "mp", "--l-dim", "32", "--eps", "0.005",
            "--spectrum", "in_spec.json", "--out", "mp.json",
        ],
        {
            "mp.json": "bc8176486cb140b878893dfb7cbe170bbb883a343c4236d376163bf49a3845b9",
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
    (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
    for inputs in INPUTS:
        assert main(inputs) == 0
    before = _files(tmp_path)
    assert main(argv) == 0
    written = {str(p.relative_to(tmp_path)): _sha256(p) for p in _files(tmp_path) - before}
    assert written == expected

"""Byte-level pins of every file the CLI writes.

Each case runs ``qeep.cli.main`` in-process in a fresh directory and compares
the SHA-256 of every file the invocation writes with a value recorded before
the CLI's argument and output plumbing was refactored. Any change to the
bytes of a ``reproduce``, ``synth``, ``signal``, ``estimate`` or
``plan-shots`` output fails here; a change that is meant to alter an output
must say why and record new hashes.

Hashes recorded with Python 3.11.7, numpy 2.4.6 and OpenBLAS 0.3.31
(scipy-openblas, x86-64). The matrix-pencil, time-series (TS) and
random-draw outputs go through numpy's BLAS, LAPACK and generators, so
another numpy or BLAS build may change their last digits.

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

The TS bytes were re-recorded once, when the filter bank's bump transform and
the bin sums of ``estimate_bins`` moved from phase recurrences to one blocked
matrix product each: ``estimate-ts`` (``bins.csv``, ``est.json``),
``reproduce-fig5`` and ``reproduce-fig5-config`` (``fig5_deltas.csv``,
``fig5_summary.json``), ``reproduce-appc`` (``appc_delta_table.csv``,
``appc_summary.json``) and ``reproduce-fig6`` (``fig6_ts.csv``,
``fig6_summary.json``). Only TS values moved, by at most 1.3e-16 in a bin
value and 6.7e-14 in a ``delta_ts`` (units of eps); the pencil columns and
files kept their bytes.

The three ``sig.json`` hashes (``signal-clean``, ``signal-noise`` and
``signal-shots``) were re-recorded once, when the signal record moved from
the decimal lists ``values_re`` and ``values_im`` to ``values_c16le``, the
base64 of the values' little-endian complex128 bytes. The values themselves
did not move: every ``sig.csv`` kept its hash, and so did ``estimate-ts`` and
``estimate-mp``, which read a signal record written by this version.

The matrix-pencil bytes were re-recorded a second time, when a full-rank
pencil's eigenvalues moved from the dense eigensolve of ``K`` to the roots of
its linear-prediction polynomial: ``estimate-mp`` (``mp.json``),
``reproduce-fig5`` and ``reproduce-fig5-config`` (``fig5_deltas.csv``,
``fig5_summary.json``), ``reproduce-appc`` (``appc_delta_table.csv``,
``appc_summary.json``) and ``reproduce-fig6`` (``fig6_mp.csv`` only; its
summary kept its bytes). The two agree to rounding: the largest ``delta_mp``
change is 4.0e-11 (units of eps), 4.6e-11 in ``mp.json``'s ``delta``. No TS
column or value and no file without pencil output moved.

The matrix-pencil bytes were re-recorded a third time, when the pencil solve
stopped forming ``K``: a full-rank pencil's prediction polynomial is now the
product of one row and ``V^H`` (a matrix-vector product, no longer a row of a
matrix product), and a rank-deficient one takes the eigensolve of its r x r
core. The same cases and files moved: ``estimate-mp`` (``mp.json``),
``reproduce-fig5`` and ``reproduce-fig5-config`` (``fig5_deltas.csv``,
``fig5_summary.json``), ``reproduce-appc`` (``appc_delta_table.csv``,
``appc_summary.json``) and ``reproduce-fig6`` (``fig6_mp.csv`` only). The
largest ``delta_mp`` change is 1.7e-11 (units of eps) in each of the fig5,
fig5-config and appc cases, 7.0e-12 in ``mp.json``'s ``delta``; ``fig6_mp.csv``
moved by at most 4.4e-16 in an eigenphase and 1.6e-13 in an amplitude. No TS
column or value and no file without pencil output moved.

The matrix-pencil bytes were re-recorded a fourth time, when a square system
whose full rank one LU solve certifies stopped going through an SVD: a noisy
pencil's prediction polynomial is now ``conj(R0^-1 @ R[:-1, -1])`` from the LU
solve of ``R0 = R[:-1, :-1]`` instead of the SVD of ``R0``, and the amplitude
fit is the LU solution of the square Vandermonde system instead of ``lstsq``.
The same cases and files moved: ``estimate-mp`` (``mp.json``),
``reproduce-fig5`` and ``reproduce-fig5-config`` (``fig5_deltas.csv``,
``fig5_summary.json``), ``reproduce-appc`` (``appc_delta_table.csv``,
``appc_summary.json``) and ``reproduce-fig6`` (``fig6_mp.csv`` only). The
largest ``delta_mp`` change is 3.4e-11 (units of eps) in each of the fig5,
fig5-config and appc cases, 2.5e-12 in ``mp.json``'s ``delta``;
``fig6_mp.csv`` moved by at most 6.7e-14 in an eigenphase and 6.7e-12 in an
amplitude. On the paper-default ``reproduce fig5`` (N = 566, seeds 1-5) the
largest ``delta_mp`` move is 2.6e-8 (units of eps, 9.4e-10 relative). No TS
column or value and no file without pencil output moved.

The matrix-pencil bytes were re-recorded a fifth time, when the certified
solve moved from an LU solve against ``[b | I]`` to triangular systems: the
blocked inverse of a triangle for the certificate and back substitution for
the solution. The pencil passes its triangular ``R0``, and the amplitude fit
solves the R factor of one QR of ``[b | target]``. The same cases and files
moved: ``estimate-mp`` (``mp.json``), ``reproduce-fig5`` and
``reproduce-fig5-config`` (``fig5_deltas.csv``, ``fig5_summary.json``),
``reproduce-appc`` (``appc_delta_table.csv``, ``appc_summary.json``) and
``reproduce-fig6`` (``fig6_mp.csv`` only). These cases' pencils have L <= 64,
one base block, whose solve is the LU solve of the same triangle, so their
eigenphases kept their bytes and only the amplitudes moved. The largest
``delta_mp`` change is 1.7e-11 (units of eps) in each of the fig5,
fig5-config and appc cases, 1.9e-12 in ``mp.json``'s ``delta``;
``fig6_mp.csv`` moved by 0 in an eigenphase and at most 1.4e-13 in an
amplitude. On the paper-default ``reproduce fig5`` (N = 566, seeds 1-5) the
largest ``delta_mp`` move is 1.8e-8 (units of eps). No TS column or value and
no file without pencil output moved.

The matrix-pencil bytes were re-recorded a sixth time, when the Aberth sweeps
and the amplitude Vandermonde moved to the four-step split ``k = a*B + r``:
``p``, ``p'`` and the stop bound come from a row of ``B`` powers and a row of
``A`` powers per point instead of a row of L + 1, the sum over the other
points is formed as ``conj(d) / |d|^2`` in real arithmetic, and the
Vandermonde entries are products of two exp tables instead of one ``exp`` per
entry. The same cases and files moved: ``estimate-mp`` (``mp.json``),
``reproduce-fig5`` and ``reproduce-fig5-config`` (``fig5_deltas.csv``,
``fig5_summary.json``), ``reproduce-appc`` (``appc_delta_table.csv``,
``appc_summary.json``) and ``reproduce-fig6`` (``fig6_mp.csv`` only). The
largest ``delta_mp`` change is 3.5e-11 (units of eps) in each of the fig5,
fig5-config and appc cases, 2.1e-13 in ``mp.json``'s ``delta``;
``fig6_mp.csv`` moved by at most 2.2e-16 in an eigenphase and 2.1e-13 in an
amplitude. On the paper-default ``reproduce fig5`` (N = 566, seeds 1-5) the
largest ``delta_mp`` move is 7.7e-9 (units of eps). No TS column or value and
no file without pencil output moved.

The matrix-pencil bytes were re-recorded a seventh time, when the amplitude
fit stopped taking one QR of ``[b | target]``: a certified fit is now the
closed-form inverse of the unit-circle Vandermonde matrix, its Lagrange basis
taken on a shifted L-point grid, with one step of iterative refinement. Only
amplitudes moved; every eigenphase and modulus kept its value. The same cases
and files moved: ``estimate-mp`` (``mp.json``), ``reproduce-fig5`` and
``reproduce-fig5-config`` (``fig5_deltas.csv``, ``fig5_summary.json``),
``reproduce-appc`` (``appc_delta_table.csv``, ``appc_summary.json``) and
``reproduce-fig6`` (``fig6_mp.csv`` only). The largest ``delta_mp`` change is
7.3e-12 (units of eps) in each of the fig5, fig5-config and appc cases,
8.1e-13 in ``mp.json``'s ``delta``; ``fig6_mp.csv`` moved by 0 in an
eigenphase and at most 1.2e-13 in an amplitude. On the paper-default
``reproduce fig5`` (N = 566, seeds 1-20) the largest ``delta_mp`` move is
2.7e-8 (units of eps, seed 17, s = 4, a relative 6.9e-10), and 7.0e-13 on the
``trials`` shape (eps = 0.05, STRICT N = 4469, L = 64, seeds 1-25). No TS
column or value and no file without pencil output moved.

The matrix-pencil bytes were re-recorded an eighth time, when the pencil's
complex R factor gave way to a real one: ``G`` is conjugate-centrosymmetric,
so a unitary pairing of its rows and columns makes it real, and one real QR
gives a factor with the Gram matrix ``G G^H``. The prediction row now comes
from the corrected seminormal equations on that factor's inverse, with one
refinement step against a residual taken from the signal, instead of back
substitution. The same cases and files moved: ``estimate-mp`` (``mp.json``),
``reproduce-fig5`` and ``reproduce-fig5-config`` (``fig5_deltas.csv``,
``fig5_summary.json``), ``reproduce-appc`` (``appc_delta_table.csv``,
``appc_summary.json``) and ``reproduce-fig6`` (``fig6_mp.csv`` only). The
largest ``delta_mp`` change is 2.4e-11 (units of eps) in each of the fig5,
fig5-config and appc cases, 1.3e-12 in ``mp.json``'s ``delta``;
``fig6_mp.csv`` moved by at most 7.9e-13 in an eigenphase and 8.3e-12 in an
amplitude. On the paper-default ``reproduce fig5`` (N = 566, seeds 1-20) the
largest ``delta_mp`` move is 2.2e-7 (units of eps, seed 17, s = 4, a relative
5.7e-9), and 1.3e-12 on the ``trials`` shape. No TS column or value and no
file without pencil output moved.
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
            "out/fig5_deltas.csv": "d1673c445272ef573caa52155f6e2d941d8fed945d1a20daedd6c5c2622e1abc",
            "out/fig5_summary.json": "17fbd2d42141fdd1fa98fb501250c7e0eb7398e0e40e3c23e6ec93122def1ddc",
        },
    ),
    # The same run with its flags read from an argument file writes the same bytes.
    "reproduce-fig5-config": (
        ["reproduce", "fig5", "@cfg.args"],
        {
            "out/fig5_deltas.csv": "d1673c445272ef573caa52155f6e2d941d8fed945d1a20daedd6c5c2622e1abc",
            "out/fig5_summary.json": "17fbd2d42141fdd1fa98fb501250c7e0eb7398e0e40e3c23e6ec93122def1ddc",
        },
    ),
    "reproduce-appc": (
        ["reproduce", "appc", "--outdir", "out", *SMALL],
        {
            "out/appc_delta_table.csv": "d1673c445272ef573caa52155f6e2d941d8fed945d1a20daedd6c5c2622e1abc",
            "out/appc_summary.json": "3c990449795aaa9acec5b9800fa5c032abc3fa744fceb35f1c1583fdc4670ba0",
        },
    ),
    "reproduce-fig6": (
        ["reproduce", "fig6", "--outdir", "out", "--truncation", "64", "--seed", "1"],
        {
            "out/fig6_mp.csv": "b3e74aad9af260cab0ddbb34cacd1e16deae85fddb9b6948d48c6dffa123e682",
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
            "mp.json": "19a5899edf51b754936ab5526dc2a84be27c3f6dfc43bd2276d6b192f817f222",
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

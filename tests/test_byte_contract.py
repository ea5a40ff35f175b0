"""Byte contract: SHA-256 digests of sampler CSVs and CLI JSON outputs.

The digests were recorded before the case dispatch was reorganized; a
refactor that changes any of these bytes changes the program's output and
must say so (and re-pin them) rather than pass silently.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfields
from qfields import params, simulate
from qfields.cli import run
from qfields.measure import RadialLaw
from qfields.simulate import SamplerConfig, make_sampler, sample_ensemble, write_csv

SRC = str(Path(qfields.__file__).resolve().parents[1])  # for CLI subprocesses
RADIAL = RadialLaw(values=(2 ** 0.5, 0.0), probs=(0.5, 0.5))  # zero atom
RADIAL_ARG = "1.4142135623730951:0.5,0:0.5"

CSV_DIGESTS = {
    "gaussian": "8d89c05676b68e487222229ce3b533f41c4d905cdc9fa0facc18ce0c2adf7598",
    "twopoint": "dee7cadb88ef5cb0eb14365a754a97621926d81cea295be06c2a66143a1c0c46",
    "scaled": "a753717bba84a4b92a14250c24454e881ada7ba13379713a828a87bb6e55aff1",
    (0.5, 0.0): "9b14f22d5a43eaf8c54b7585075ca106d68641a33de0aba984371ec637572b9d",
    (0.5, 0.5): "912962f4ff925207b33efc57edc31b2f50607879832dcdc028e00c54592318c0",
    (-0.3, -0.5): "00f731002aeccd4940d9ef532eff9b9a4c98f8b32010882aacde9c6ac4494969",
    # the narrow law and the bimodal one: the step's most extreme tables
    (0.95, 0.9): "020e688fa72cb8b58ac6bcf04503a22a269fa8ada2a119369e180d6e52050664",
    (-0.8, -0.9): "b0cc6b4bc5c4da74677f324163613c8e630ab1c12783e1fa1add60ba8fe280fb",
}

KERNEL_CHECK_DIGESTS = {
    (0.5, 0.5): "706996814bf95ef5f868d7fd10a7e264c6177b3e6d00b16d6d7d97e062321e1d",
    (-0.8, -0.9): "ea750ed9c292e406ae020c918287539bba73a60418c3077c7f556499d50ff3d2",
    (0.95, 0.9): "2542c1bb628047e9069cc7096678aa2c69f8408387fddf39628f61a979bceb32",
    (0.5, 1.0): "b3f33fec691542e142e67a20f5c33c98160892454489817d050384ddfa3358f6",
    # truncation N = 6, below the top eigen degree 8
    (0.01, 0.5): "55fe5bc6cb84aa064312750d6924f3cde9b9a3624790a13313b0cf8fdfe49905",
    (0.3, 0.0): "fd234c47c69da1d87ea476030120aaae9578dadba1a0821bbf75198370bb03f2",
    # the Gaussian composition residual against the closed-form rho^2 kernel, and the
    # stationarity residual past rho^2 = 1/2, at both signs of rho
    (0.99, 1.0): "c271407bb838f69fa00d48749297e125acbd7e2591afa31a9155efbc0001f85d",
    (-0.999, 1.0): "f6af75e737b8b60401491cf4cc083d6f3435decbe76f6326f8d38f2d4e036630",
}

# the first ladder that fails to converge, and so its error estimate, is part of the contract
KERNEL_CHECK_UNCONVERGED_STDERR = (
    "validation failure: theta quadrature did not converge at rho=0.5, q=0.99, N=64 "
    "by 2048 nodes (achieved error estimate 1.649e-04)\n")

CLASSIFY_DIGESTS = {
    "gaussian": "a0c63e752fa16bc2903ccd37ff16e64670297976728ff0350ce0940d5942daae",
    "twopoint": "52b7370e6b746f5439489bb5498001c1ce009a3af55ac38188d44db424e1c298",
    "scaled": "3b92e72e7479908fa14e2debeaf3b42aa092504f5dd3ca181a1749404e257eaf",
}

# `verify --report` of the 16 x 400, seed-7 CSVs pinned above
VERIFY_REPORT_DIGESTS = {
    "gaussian": "9fe6a35982e9695c908c61dfe81d5c5829271affcb6e5ab6166571c9f06198c5",
    (0.5, 0.5): "2f48077ffd58b16d7a20a4462c3b4fdd55c91de91c62ef1b4caba895ca346ea2",
}

CASE_PARAMS = {
    "gaussian": params.params_from_rho_q(0.5, 1.0),
    "twopoint": params.params_from_rho_b(0.5, 0.0),
    "scaled": params.FieldParams(0.5, 0.5, 0.0, 0.0, 0.0),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_stdout(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run(argv)
    return rc, out.getvalue()


def _case_setup(case):
    if isinstance(case, tuple):
        rho, q = case
        return params.params_from_rho_q(rho, q), SamplerConfig(rho=rho, q=q)
    radial = RADIAL if case == "scaled" else None
    return CASE_PARAMS[case], SamplerConfig(rho=0.5, radial=radial)


@pytest.mark.parametrize("case", list(CSV_DIGESTS))
def test_write_csv_bytes(case):
    fp, cfg = _case_setup(case)
    sampler = make_sampler(params.classify(fp), cfg)
    buf = io.StringIO()
    write_csv(sample_ensemble(sampler, 16, 400, 7), buf)
    assert _sha(buf.getvalue()) == CSV_DIGESTS[case]


SAMPLE_CASES = ["gaussian", "twopoint", "scaled", (0.5, 0.5), (-0.3, -0.5)]
# usable-CPU counts, so block counts, of `sample`; None keeps this machine's own,
# and 17 is more than the 16 chains
CPU_COUNTS = [None, 1, 2, 3, 7, 17]


def _sample_id(case, cpus):
    name = case if isinstance(case, str) else f"{case[0]}-{case[1]}"
    return name if cpus is None else f"{name}-cpus{cpus}"


@pytest.mark.parametrize("case,cpus", [(c, n) for c in SAMPLE_CASES for n in CPU_COUNTS],
                         ids=[_sample_id(c, n) for c in SAMPLE_CASES for n in CPU_COUNTS])
def test_cli_case_sample_bytes(case, cpus, tmp_path, monkeypatch):
    # the pinned digests are those of write_csv(sample_ensemble(...)), for every block count
    if cpus is not None:
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
    out = tmp_path / "chains.csv"
    argv = ["sample", "--rho", "0.5", "--case", case] if isinstance(case, str) else \
        ["sample", "--rho", repr(case[0]), "--q", repr(case[1])]
    argv += ["--chains", "16", "--steps", "400", "--seed", "7", "--out", str(out)]
    if case == "scaled":
        argv += ["--radial", RADIAL_ARG]
    assert _cli_stdout(argv)[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CSV_DIGESTS[case]
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("rho,q", list(KERNEL_CHECK_DIGESTS))
def test_kernel_check_json_bytes(rho, q):
    rc, text = _cli_stdout(["kernel-check", "--rho", repr(rho), "--q", repr(q), "--json"])
    assert rc == 0
    assert _sha(text) == KERNEL_CHECK_DIGESTS[(rho, q)]


def test_kernel_check_unconverged_stderr():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(["kernel-check", "--rho", "0.5", "--q", "0.99", "--json"])
    assert (rc, out.getvalue(), err.getvalue()) == (2, "", KERNEL_CHECK_UNCONVERGED_STDERR)


@pytest.mark.parametrize("case", list(CLASSIFY_DIGESTS))
def test_classify_json_bytes(case):
    fp = CASE_PARAMS[case]
    rc, text = _cli_stdout(["classify", "--rho", repr(fp.rho), "--A", repr(fp.A),
                            "--B", repr(fp.B), "--C", repr(fp.C), "--D", repr(fp.D),
                            "--json"])
    assert rc == 0
    assert _sha(text) == CLASSIFY_DIGESTS[case]


VERIFY_CASES = [(c, n) for c in VERIFY_REPORT_DIGESTS for n in CPU_COUNTS]


@pytest.mark.parametrize("case,cpus", VERIFY_CASES, ids=[_sample_id(*cn) for cn in VERIFY_CASES])
def test_verify_report_bytes(case, cpus, tmp_path, monkeypatch):
    # verify reads and reduces one block of whole chains per usable CPU; the report
    # bytes are the same for every block count
    if cpus is not None:
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
    fp, cfg = _case_setup(case)
    csv, report = tmp_path / "chains.csv", tmp_path / "report.json"
    write_csv(sample_ensemble(make_sampler(params.classify(fp), cfg), 16, 400, 7), csv)
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == CSV_DIGESTS[case]
    rc, _ = _cli_stdout(["verify", "--in", str(csv), "--rho", repr(fp.rho),
                         "--A", repr(fp.A), "--B", repr(fp.B), "--C", repr(fp.C),
                         "--D", repr(fp.D), "--seed", "7", "--report", str(report)])
    assert rc == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == VERIFY_REPORT_DIGESTS[case]
    assert sorted(tmp_path.iterdir()) == [csv, report]


def test_verify_pipe_report_bytes(tmp_path):
    # a pipe cannot be split or read twice: verify reads it as one block
    fp, cfg = _case_setup((0.5, 0.5))
    buf, report = io.StringIO(), tmp_path / "report.json"
    write_csv(sample_ensemble(make_sampler(params.classify(fp), cfg), 16, 400, 7), buf)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "qfields.cli", "verify", "--in", "/dev/stdin",
         "--rho", repr(fp.rho), "--A", repr(fp.A), "--B", repr(fp.B), "--C", repr(fp.C),
         "--D", repr(fp.D), "--seed", "7", "--report", str(report)],
        input=buf.getvalue().encode(), capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(report.read_bytes()).hexdigest() == VERIFY_REPORT_DIGESTS[(0.5, 0.5)]

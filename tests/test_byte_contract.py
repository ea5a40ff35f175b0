"""Byte contract: SHA-256 digests of sampler CSVs, conditional tables and CLI JSON outputs.

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
from qfields import kernel, params, simulate
from qfields.cli import run
from qfields.kernel import mehler_kernel
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
    # the other 28 points of kernel_scan that exit 0; with the four above and the
    # four of KERNEL_CHECK_UNCONVERGED, all 36 of SCAN_RHOS x SCAN_QS
    (-0.8, -0.5): "318bbab4438ac6c41772c047ae0923d2ecdb2c5eb06397116c489ad87ae4deb7",
    (-0.8, 0.0): "55381fd695b12a59cb2a322dfcaf1c3ed5b682f472129da1c3bce920272658ef",
    (-0.8, 0.5): "41ff99af9cab6c598f5088781ce3f80b99441c91d56ba2c8788de4ec264fdc78",
    (-0.8, 0.9): "9efc325c5e5cb178bbea82e822bf5d76c8a2ffed9f95e891a1112659dddf9460",
    (-0.3, -0.9): "a72ae16dd79db6c9cbecd0711253dc52130502281feeffd11ce1a9adf996ddaa",
    (-0.3, -0.5): "ee31f4c78fcd54794fdb51d644a19ef0a8271cd96a0b3aba4aeb1ffcadac0331",
    (-0.3, 0.0): "0b84195bc3388068d266bee0b2297d57f1884ea54c2e1fb00ad1a56f5fb582e6",
    (-0.3, 0.5): "ec6ac3d637e82981b5ac4be1ef7c584b46ebfa8eadc74cf3c312c1ad27c82989",
    (-0.3, 0.9): "06f4b3da0949b318b689ed25f7e583c8fb9ae97c67442dc4dccfbaf457011285",
    (-0.3, 0.99): "d681933180a6d4d1236795cc61444f112ad98eab98bf283dfb4eceb2bbc4bdef",
    (0.3, -0.9): "46b3dfc09854bf8969fff45141a48ca988653117730b3e505eabbb35f1314260",
    (0.3, -0.5): "68b21c4f35f0b617fab34df66538fb6f4d006017ee11ca0c67638001401b60eb",
    (0.3, 0.5): "fb79f0e375a1b788f85e42c8a9534535a1b54f27954abb246929139564e7c491",
    (0.3, 0.9): "3440d888d58cf83100a02627c51d51d370932b41951c69114c81408466c0b7b2",
    (0.3, 0.99): "b54c3f68e50ade03f4f9f9de298a0aa2882d3b1e7c7d03ed7c9258a523613daa",
    (0.5, -0.9): "5dd96b6332d0063899ab9b72057fdc21859b9f64f897ea34b3b63ca1ac87913d",
    (0.5, -0.5): "b78822dbb616f03cee0694f808e51c189fa1505349ac09758d4ecb110a3579e4",
    (0.5, 0.0): "db69659adce8fd17408933aedde30ae658a0c1506ea379fbbd3202f41162275c",
    (0.5, 0.9): "f7848a89cf340d6fd72d1a55b8bda60d60ea4c63e2c5b06dc7de854bd9e34789",
    (0.8, -0.9): "a0ea55ca9a982508456622d61da5aa32ee8ebca36347a72968d95742c5660e80",
    (0.8, -0.5): "de518c87fe25f1f3c5650bce3daf2e99fa32c9d269393b9835c401707dbfd8d2",
    (0.8, 0.0): "7fee4b2357a19de8408f6cd99e19b2d502a5e0a73bda7e9cecff623d9784be77",
    (0.8, 0.5): "310d180ffc6212501ea74f9a37a934a70000767461029203dc2bfb8129eba376",
    (0.8, 0.9): "9a248b23fa7053726ada67cc2e15db3f768c028f61d858b27e00f5c2e6edea62",
    (0.95, -0.9): "0fd79372d45f232d1e7763b825ec280196e543fb26338500fce1402d5795e577",
    (0.95, -0.5): "58591f3419d2d78acc5ce0fb5727f4c63e0429d788f59a80a153f9d1bc3bc7be",
    (0.95, 0.0): "d0a8e03e658ad49c69edc33b166c47b2fc541d19c5bee5a9f7754365a10e72dd",
    (0.95, 0.5): "c6e915563a53e674e3f11a84559adbb753f07fa3c5cf919823210707dd1555c6",
}

# SHA-256 of the conditional quantile table bytes at the 30 kernel_scan points the
# sampler accepts: the build is the largest part of a q-Gaussian make_sampler
TABLE_DIGESTS = {
    (-0.8, -0.9): "44386450397fe77392b8671dc1ccc75ec06c1841faeb98b0a83756138ded95df",
    (-0.8, -0.5): "33113322184f1af3b01eb3e679f3dfc539eb4b2faa73b50190c3c918adfab57c",
    (-0.8, 0.0): "ede20f3510650e2367f005420ecb3ef157531904296adcfa6706768ea226c8a6",
    (-0.8, 0.5): "1337c8e6e7593c094ac6ad3efbaf77af8d473509fcc5f06617d6f35ab7485a56",
    (-0.8, 0.9): "a4ea87c0e1d9172c5dde43157b85e9013598c6b902513c4e574d7550c0447a5e",
    (-0.3, -0.9): "24d6e43b5330320054eed105d8b558593c35686b7c8b23b19d3ff7bb0194896f",
    (-0.3, -0.5): "b11862b5dca9e0bbb0fcf45d8c3c58b5ff91bb21535f9fce83ff80482d2cfa9d",
    (-0.3, 0.0): "b9074c39f662cbb1157c9c05a78cd71778f0df16e68f09458dafadb2ea9a6ba1",
    (-0.3, 0.5): "29b058f75db3065ecb8d0354d7c44f2ead263439696469e7ff558c01f3317c2a",
    (-0.3, 0.9): "7e726a397b4761a19107b1c793360c1712564b60f4346ff7af37e274e93bfa9f",
    (0.3, -0.9): "60c45b372192bd925a60d40ea3239b51405382cc83b528fcac9b9376cde6fbe2",
    (0.3, -0.5): "044404122852c602a10697cd6fe6a3f20da9034d5dbe61765953b9423a141440",
    (0.3, 0.0): "f572d3a05983f608d7a9bc6cd553c7e3e56e2371b9ed0177dc1e7784bf291514",
    (0.3, 0.5): "dcc5ce5ad27b75a592e55364a6285ffe4ee9cbecb48ed445582c570b580e7fbd",
    (0.3, 0.9): "4535ccc6ab937c1d9650f4e87e17e0202fdad9ca28b394f3b4201be7443c278c",
    (0.5, -0.9): "b752a1b361c02ce7c131003fa47820d9e1254dce0a9e49665257a830c8b8fc43",
    (0.5, -0.5): "e5488b036e1e757c22a28aaf786a6ac4a99d77797c96f12ab48647b60841b640",
    (0.5, 0.0): "88913a2757cc9070cc6ebedba73edbafe66ae56522c1a1b4430a9bdc1f7b41d7",
    (0.5, 0.5): "8602ae26bedf50abed7412685c5fa99423c0dcddf47e63223367fe84386493e4",
    (0.5, 0.9): "2e64c420c45a5c136dcf6dae11e27fd5df21f06d0ddd9f0c1c932b6a4049a0dc",
    (0.8, -0.9): "c41d825973f1120727f3ecad75b3010b33c60ffe2ceb0c86b6bf1b695733c4c8",
    (0.8, -0.5): "1c2876a9b345d97f1451abd72714bf1eacf9154a3a3f8c16919cdc5e8b41540b",
    (0.8, 0.0): "e8aaffa7a228119cd68c539993318af26501179a9803a61d3351a2c348e4f304",
    (0.8, 0.5): "f04dfaaa1b81c502a88bd2b47118c8520a24c6b69389882822861f62ff700c59",
    (0.8, 0.9): "2e0c5c61ef8785d29b2d25254f7424595a9dac5b868e41ba5bf5db7869f205c8",
    (0.95, -0.9): "6e4efbd28e267c9ba8c21998597c077fccc80b22381d41d3046e1b0826516bd4",
    (0.95, -0.5): "0701251e1f4989a306e6277cafae411bcd80590f865321aff8588cb3193e35d5",
    (0.95, 0.0): "6ec69d4ca74e145a2bca17b41cd6df9985c1f1f5c2dd96b6be69ca7a6849c990",
    (0.95, 0.5): "0ba8f663467f647ab15928e3068372c8ae35a188cf45094c5e3dd68bd2d5cba1",
    (0.95, 0.9): "d07d06503aeda0b226e584c338bf9ca93e2d7d35de31a04dd0af5567ad10b3d3",
}


# the q = 0.99 column of kernel_scan: a conditional row's inverse PCHIP has non-finite
# slopes, and make_sampler refuses with this text; its series tail estimate by rho
TABLE_REFUSAL = ("conditional tables at rho={rho:g}, q=0.99 have non-finite slopes: "
                 "series truncated at N=64, tail_estimate {tail}")
TABLE_REFUSAL_TAILS = {-0.8: "8.12e+71", -0.3: "4.76e+43", 0.3: "4.76e+43",
                       0.5: "1.75e+58", 0.8: "8.12e+71", 0.95: "2.31e+77"}

# the first ladder that fails to converge, and so its error estimate, is part of the
# contract: kernel-check at q = 0.99 exits 2 with this on stderr, at these rho
KERNEL_CHECK_UNCONVERGED_STDERR = (
    "validation failure: theta quadrature did not converge at rho={rho:g}, q=0.99, N=64 "
    "by 2048 nodes (achieved error estimate {estimate})\n")
KERNEL_CHECK_UNCONVERGED = {-0.8: "2.644e+09", 0.5: "1.649e-04", 0.8: "2.791e+09",
                            0.95: "1.819e+14"}

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


@pytest.mark.parametrize("rho,q", list(TABLE_DIGESTS))
def test_conditional_table_bytes(rho, q):
    tables = simulate._build_conditional_tables(mehler_kernel(rho, q))
    assert hashlib.sha256(tables.quantiles.tobytes()).hexdigest() == TABLE_DIGESTS[(rho, q)]


@pytest.mark.parametrize("rho", list(TABLE_REFUSAL_TAILS))
def test_conditional_table_refusal_text(rho):
    with pytest.raises(simulate.SamplerError) as err:
        simulate._build_conditional_tables(mehler_kernel(rho, 0.99))
    assert str(err.value) == TABLE_REFUSAL.format(rho=rho, tail=TABLE_REFUSAL_TAILS[rho])


def _kernel_check(rho, q) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(["kernel-check", "--rho", repr(rho), "--q", repr(q), "--json"])
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("rho,q", list(KERNEL_CHECK_DIGESTS))
def test_kernel_check_json_bytes(rho, q):
    rc, text, err = _kernel_check(rho, q)
    assert (rc, _sha(text), err) == (0, KERNEL_CHECK_DIGESTS[(rho, q)], "")


def test_kernel_check_unconverged_stderr():
    for rho, estimate in KERNEL_CHECK_UNCONVERGED.items():
        want = KERNEL_CHECK_UNCONVERGED_STDERR.format(rho=rho, estimate=estimate)
        assert _kernel_check(rho, 0.99) == (2, "", want)


# the 36 points of the benchmark's kernel_scan: 32 in KERNEL_CHECK_DIGESTS and the four
# of KERNEL_CHECK_UNCONVERGED
SCAN_POINTS = [(rho, q) for rho in (-0.8, -0.3, 0.3, 0.5, 0.8, 0.95)
               for q in (-0.9, -0.5, 0.0, 0.5, 0.9, 0.99)]


def _pinned_check(rho, q) -> tuple[int, str, str]:
    """kernel-check's pinned (exit code, stdout digest or "", stderr) at a scan point."""
    if q == 0.99 and rho in KERNEL_CHECK_UNCONVERGED:
        return 2, "", KERNEL_CHECK_UNCONVERGED_STDERR.format(
            rho=rho, estimate=KERNEL_CHECK_UNCONVERGED[rho])
    return 0, KERNEL_CHECK_DIGESTS[(rho, q)], ""


def _scan_check(rho, q) -> tuple[int, str, str]:
    rc, text, err = _kernel_check(rho, q)
    return rc, _sha(text) if text else "", err


# the scan in pinned order, reversed, after a check at truncation N = 6 (whose rung
# tables every later kernel at q = 0.5 reads to its own N), and from an empty store
ORDERS = {"pinned": SCAN_POINTS, "reversed": SCAN_POINTS[::-1],
          "low-truncation-first": [(0.01, 0.5)] + SCAN_POINTS, "reset": SCAN_POINTS}


@pytest.mark.parametrize("order", list(ORDERS))
def test_kernel_check_bytes_whatever_the_order(order, monkeypatch):
    # kernel._THETA_CACHE holds the q-only data of earlier checks; whatever came
    # before, every point gives its pinned bytes
    monkeypatch.setattr(kernel, "_THETA_CACHE", {})
    got, want = {}, {}
    for rho, q in ORDERS[order]:
        if order == "reset":
            monkeypatch.setattr(kernel, "_THETA_CACHE", {})
        got[rho, q], want[rho, q] = _scan_check(rho, q), _pinned_check(rho, q)
    assert got == want


@pytest.mark.parametrize("rho,q", list(TABLE_DIGESTS))
def test_sampler_after_kernel_check_bytes(rho, q, monkeypatch):
    # the sampler's kernel reads the entry the check made, and its tables keep their bytes
    monkeypatch.setattr(kernel, "_THETA_CACHE", {})
    assert _scan_check(rho, q) == _pinned_check(rho, q)
    sampler = make_sampler(params.ExistsQGaussian(q=q), SamplerConfig(rho=rho, q=q))
    assert sampler.kernel.grid_table is kernel._THETA_CACHE[q].grid_table
    assert hashlib.sha256(sampler.conditional.quantiles.tobytes()).hexdigest() == \
        TABLE_DIGESTS[(rho, q)]


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

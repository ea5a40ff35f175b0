"""Self-test of the benchmark at toy sizes: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(tmp_path: Path, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args,
                           "--results", str(tmp_path)],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_is_printed_with_its_unit(tmp_path, name, trace):
    proc = bench(tmp_path, "--workload", name, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    assert line["correct"] is True
    if name == "kernel_scan":  # the toy scan's q = 0.99 point
        assert line["failed"] * 2 == line["attempted"]


def test_tampered_csv_counts_as_failed(tmp_path):
    from qfields import params
    wl = workloads.workload("qgauss_roundtrip", toy=True)
    fp = params.params_from_rho_q(*wl.points[0])
    fp = [fp.rho, fp.A, fp.B, fp.C, fp.D]

    def tamper(csv: Path) -> None:
        lines = csv.read_text().splitlines(keepends=True)
        lines[1] = lines[1][:-2] + ("1" if lines[1][-2] != "1" else "2") + "\n"
        csv.write_text("".join(lines))

    ops = [run.roundtrip_op(wl, fp, 9, tmp_path),
           run.roundtrip_op(wl, fp, 9, tmp_path, tamper=tamper)]
    run.check_digests(ops, None)
    assert ops[0]["outcome"] == "ok"
    assert ops[1]["outcome"] == "failed"
    assert ops[1]["digest_mismatch"] == ["csv"]


def test_q099_scan_point_counts_as_failed():
    (pt,) = child.scan_points([(0.5, 0.99)])
    res = child.scan_point(pt)
    assert res["outcome"] == "failed"
    assert res["error"].startswith("ValueError")  # a bare ValueError, not a refusal


def test_named_refusal_counts_as_refused():
    from qfields import params
    scaled = params.FieldParams(0.5, 0.5, 0.0, 0.0, 0.0)
    res = child.scan_point(child.ScanPoint(0.5, None, scaled))
    assert res["outcome"] == "refused"
    assert "requires a radial law" in res["error"]


def test_fails_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(tmp_path / "res", "--workload", "qgauss_roundtrip", "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

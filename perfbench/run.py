"""qfields benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package runs from ``src`` as
``python -m qfields.cli``, with no installation.  One closed-loop client in
one process sends one operation at a time.  With ``--trace 0`` it prints
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
metrics of a separate traced run, which replays one operation and ignores
``--seconds``.  The last line of standard output is one
JSON object (correct, attempted, failed, metrics); a fuller results file,
with every sample, the outcomes and the environment, goes to
``perfbench/results/``.  See perfbench/README.md for the metric definitions.

Outcome of an operation: ok, refused (a named ``SamplerError``) or failed
(any other exception, a kernel-check exit code other than 0, a verify exit
code other than 0, or a digest mismatch).  ``correct`` is false when an
output is wrong without the program saying so: a CSV or report digest that
differs from the pinned or first one, a kernel-check verdict that
contradicts its residuals, or a scan point whose result changes between
passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150.0

# end-to-end metric -> unit, as in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "sample_s": "s",
    "verify_s": "s",
    "roundtrip_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> span name whose busy time it reports
SPAN_METRICS = {
    "params.classify_s": "params.classify",
    "kernel.mehler_kernel_s": "kernel.mehler_kernel",
    "measure.cdf_table_s": "measure.cdf_table",
    "simulate.make_sampler_s": "simulate.make_sampler",
    "kernel.eigen_residual_s": "kernel.eigen_residual",
    "kernel.stationarity_residual_s": "kernel.stationarity_residual",
    "kernel.chapman_kolmogorov_s": "kernel.chapman_kolmogorov_residual",
    "simulate.sample_ensemble_s": "simulate.sample_ensemble",
    "simulate.write_csv_s": "simulate.write_csv",
    "simulate.read_csv_s": "simulate.read_csv",
    "qpoly.qhermite_table_s": "qpoly.qhermite_table",
    "verify.standard_suite_s": "verify.standard_suite",
    "verify.weak_form_s": "verify.weak_form_residuals",
    "verify.martingale_s": "verify.martingale_residuals",
}

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.sample_rss_mb": "MB",
    "cli.verify_rss_mb": "MB",
    "quadrature.gl_nodes_cold_s": "s",
    **{name: "s" for name in SPAN_METRICS},
    "kernel.check_failed": "count",
    "simulate.chain_steps_per_s": "1/s",
    "simulate.csv_mb": "MB",
    "simulate.write_csv_mb_per_s": "MB/s",
    "simulate.read_csv_mb_per_s": "MB/s",
    "verify.n_tests": "count",
    "verify.n_fail": "count",
    "simulate.refused": "count",
    "fail_share": "ratio",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


# ---------------------------------------------------------------- processes

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], err_path: Path) -> dict:
    """Run one subprocess to its end: wall time from spawn to exit, exit
    code and peak RSS (``os.wait4``).  A child past CHILD_TIMEOUT_S is killed."""
    t0 = time.perf_counter()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                                env=child_env(), cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rc": proc.returncode,
            "rss_mb": usage.ru_maxrss * 1024 / 1e6,
            "stderr": err_path.read_text(errors="replace")[-2000:]}


def run_child(mode: str, work: Path, *args: str) -> tuple[dict, dict]:
    """Run ``child.py MODE`` in a fresh interpreter; (its JSON, spawn record)."""
    out = work / f"{mode}.json"
    out.unlink(missing_ok=True)
    rec = spawn([sys.executable, str(HERE / "child.py"), mode, "--out", str(out),
                 "--work", str(work), *args], work / f"{mode}.err")
    if rec["rc"] != 0:
        raise BenchError(f"child {mode} exited {rec['rc']}: {rec['stderr']}")
    return json.loads(out.read_text()), rec


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------- statistics

def summary(samples: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n, "samples": samples}
    if n > 10:
        p = math.floor(100 * (n - 10) / n)
        out["p"] = p
        out["p_value"] = xs[max(0, math.ceil(p / 100 * n) - 1)]
    return out


# ---------------------------------------------------------------- workloads

def closed_loop(op, seconds: float) -> list:
    """Run ``op`` one at a time, at least once, and start another only while
    it is expected (by the median duration so far) to end within ``seconds``."""
    results, durations = [], []
    t0 = time.monotonic()
    while True:
        t = time.monotonic()
        results.append(op())
        durations.append(time.monotonic() - t)
        if time.monotonic() - t0 + statistics.median(durations) > seconds:
            return results


def setup_samples(wl, work: Path, repeats: int) -> tuple[list[float], list[float]]:
    """Cold set-ups at the workload's first point: their times, and the
    point's (rho, A, B, C, D)."""
    rho, q = wl.points[0]
    times, params = [], None
    for _ in range(repeats):
        res, _ = run_child("setup", work, "--rho", repr(rho), "--q", repr(q))
        times.append(res["setup_s"])
        params = res["params"]
    return times, params


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "qfields.cli", *args]


def roundtrip_op(wl, fp: list[float], seed: int, work: Path, tamper=None) -> dict:
    """``qfields sample`` then ``qfields verify`` as subprocesses."""
    rho, q = wl.points[0]
    csv, report = work / "roundtrip.csv", work / "report.json"
    csv.unlink(missing_ok=True)
    report.unlink(missing_ok=True)
    sample = spawn(cli_argv("sample", "--rho", repr(rho), "--q", repr(q),
                            "--chains", str(wl.chains), "--steps", str(wl.steps),
                            "--seed", str(seed), "--out", str(csv)),
                   work / "sample.err")
    op = {"sample": sample, "outcome": "ok"}
    if sample["rc"] != 0:
        op.update(outcome="failed", error=f"sample exit code {sample['rc']}")
        return op
    if tamper is not None:
        tamper(csv)
    A, B, C, D = (repr(v) for v in fp[1:])
    verify = spawn(cli_argv("verify", "--in", str(csv), "--rho", repr(rho), "--A", A,
                            "--B", B, "--C", C, "--D", D, "--report", str(report)),
                   work / "verify.err")
    op["verify"] = verify
    op["csv_sha256"] = sha256(csv)
    op["csv_bytes"] = csv.stat().st_size
    op["report_sha256"] = sha256(report) if report.exists() else None
    if verify["rc"] != 0:
        op.update(outcome="failed", error=f"verify exit code {verify['rc']}")
    return op


def check_digests(ops: list[dict], pinned: dict | None) -> None:
    """Mark ops whose CSV or report bytes differ from the pinned digests, or
    from the first op's when none are pinned for this argv."""
    expect = pinned
    for op in ops:
        if "csv_sha256" not in op:
            continue
        if expect is None:
            expect = {"csv": op["csv_sha256"], "report": op["report_sha256"]}
        bad = [k for k in ("csv", "report") if op[f"{k}_sha256"] != expect[k]]
        if bad:
            op["digest_mismatch"] = bad
            op["outcome"] = "failed"
            op.setdefault("error", f"digest mismatch: {', '.join(bad)}")


def pinned_digests(wl, seed: int, toy: bool) -> dict | None:
    if toy or seed != workloads.DEFAULT_SEED:
        return None
    return workloads.PINNED_DIGESTS.get(wl.name)


def timed_roundtrips(wl, seed: int, seconds: float, work: Path, toy: bool) -> dict:
    setup, fp = setup_samples(wl, work, 1 if toy else SETUP_REPEATS)
    ops = closed_loop(lambda: roundtrip_op(wl, fp, seed, work), seconds)
    check_digests(ops, pinned_digests(wl, seed, toy))
    done = [op for op in ops if "verify" in op]
    samples = {
        "setup_s": setup,
        "sample_s": [op["sample"]["wall_s"] for op in ops],
        "verify_s": [op["verify"]["wall_s"] for op in done],
        "roundtrip_s": [op["sample"]["wall_s"] + op["verify"]["wall_s"] for op in done],
        "peak_rss_mb": [max(op["sample"]["rss_mb"], op["verify"]["rss_mb"]) for op in done],
    }
    return {"samples": samples, "ops": ops,
            "attempted": len(ops),
            "failed": sum(op["outcome"] == "failed" for op in ops),
            "refused": 0,
            "correct": not any("digest_mismatch" in op for op in ops)}


def point_key(p: dict) -> str:
    return f"{p['rho']!r}:{p['q']!r}"


def point_result(p: dict) -> tuple:
    """What must repeat exactly between passes over the same point."""
    check = p.get("check") or {}
    return (p["outcome"], p.get("error"), p.get("check_rc"),
            check.get("eigen_max"), check.get("stationarity_max"),
            check.get("chapman_kolmogorov_max"))


def timed_scan(wl, seed: int, seconds: float, work: Path, toy: bool) -> dict:
    setup, _ = setup_samples(wl, work, 1 if toy else SETUP_REPEATS)

    def one_pass() -> dict:
        res, rec = run_child("scan", work, "--seed", str(seed), *(["--toy"] if toy else []))
        res["rss_mb"] = rec["rss_mb"]
        return res

    passes = closed_loop(one_pass, seconds)
    first = {point_key(p): point_result(p) for p in passes[0]["points"]}
    points = [p for ps in passes for p in ps["points"]]
    consistent = all(p.get("check_consistent", True) for p in points) and all(
        point_result(p) == first[point_key(p)] for p in points)
    samples = {
        "setup_s": setup,
        "sample_s": [sum(p["build_s"] for p in ps["points"]) for ps in passes],
        "verify_s": [sum(p["check_s"] for p in ps["points"]) for ps in passes],
        "roundtrip_s": [ps["pass_s"] for ps in passes],
        "peak_rss_mb": [ps["rss_mb"] for ps in passes],
    }
    return {"samples": samples, "passes": passes,
            "attempted": len(points),
            "failed": sum(p["outcome"] == "failed" for p in points),
            "refused": sum(p["outcome"] == "refused" for p in points),
            "correct": consistent}


# ---------------------------------------------------------------- traced run

def busy_time(spans: list[dict], name: str, ops) -> float:
    """Summed duration of the outermost spans called ``name`` in ``ops``."""
    by_id = {s["id"]: s for s in spans}
    total = 0.0
    for s in spans:
        if s["name"] != name or s["op"] not in ops:
            continue
        parent = s["parent"]
        while parent is not None and by_id[parent]["name"] != name:
            parent = by_id[parent]["parent"]
        if parent is None:
            total += s["end"] - s["start"]
    return total


def traced_run(wl, seed: int, work: Path, toy: bool) -> dict:
    """Per-layer numbers from spans around the public calls of one replayed
    operation, each part in a fresh interpreter."""
    imports = [run_child("import", work)[0] for _ in range(3)]
    # CLI subprocesses for RSS and the library-vs-CLI byte check; the scan
    # has no CLI pipeline of its own, so it uses the probe point and size
    if wl.kind == "roundtrip":
        cli_wl = wl
    else:
        cli_wl = workloads.Workload("probe", "roundtrip", (workloads.PROBE_RHO_Q,),
                                    workloads.PROBE_CHAINS, workloads.PROBE_STEPS)
    _, fp = setup_samples(cli_wl, work, 1)
    cli_op = roundtrip_op(cli_wl, fp, seed, work)
    check_digests([cli_op], pinned_digests(cli_wl, seed, toy))

    common = ["--workload", wl.name, "--seed", str(seed), *(["--toy"] if toy else [])]
    plain, _ = run_child("replay", work, *common, "--trace", "0")
    traced, _ = run_child("replay", work, *common, "--trace", "1")
    spans = traced["spans"]
    ops = traced["ops"]
    replay_ops = set(range(len(ops)))
    lib_op = ops[0] if wl.kind == "roundtrip" else traced["probe"]
    byte_match = lib_op.get("csv_sha256") == cli_op.get("csv_sha256")
    if not byte_match:
        lib_op.update(outcome="failed", error="library CSV bytes differ from the CLI's")
    failed = sum(op["outcome"] == "failed" for op in ops)

    metrics, probed = {}, []
    for metric, span in SPAN_METRICS.items():
        value = busy_time(spans, span, replay_ops)
        if value == 0.0:
            value = busy_time(spans, span, {"probe"})
            probed.append(metric)
        metrics[metric] = value
    sized = lib_op if "simulate.sample_ensemble_s" not in probed else traced["probe"]
    csv_mb = sized["csv_bytes"] / 1e6
    suite = ops[0] if wl.kind == "roundtrip" else traced["probe"]
    metrics.update({
        "cli.import_s": statistics.median(i["import_s"] for i in imports),
        "quadrature.gl_nodes_cold_s": statistics.median(i["gl_nodes_cold_s"] for i in imports),
        "cli.sample_rss_mb": cli_op["sample"]["rss_mb"],
        "cli.verify_rss_mb": cli_op.get("verify", {}).get("rss_mb", 0.0),
        "kernel.check_failed": sum(op.get("check_rc", 0) != 0 for op in ops),
        "simulate.chain_steps_per_s":
            sized["chains"] * sized["steps"] / metrics["simulate.sample_ensemble_s"],
        "simulate.csv_mb": csv_mb,
        "simulate.write_csv_mb_per_s": csv_mb / metrics["simulate.write_csv_s"],
        "simulate.read_csv_mb_per_s": csv_mb / metrics["simulate.read_csv_s"],
        "verify.n_tests": suite["n_tests"],
        "verify.n_fail": suite["n_fail"],
        "simulate.refused": sum(op["outcome"] == "refused" for op in ops),
        "fail_share": failed / len(ops),
        "trace.overhead_s": traced["total_s"] - plain["total_s"],
    })
    consistent = all(op.get("check_consistent", True) for op in ops)
    return {"metrics": metrics, "probed": probed, "ops": ops, "probe": traced["probe"],
            "cli_op": cli_op, "spans": spans, "untraced_total_s": plain["total_s"],
            "traced_total_s": traced["total_s"], "library_cli_bytes_match": byte_match,
            "attempted": len(ops), "failed": failed,
            "refused": metrics["simulate.refused"],
            "correct": byte_match and consistent and "digest_mismatch" not in cli_op}


# ---------------------------------------------------------------- environment

def environment(seed: int, wl) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        top, _, commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30).stdout.partition("\n")
        commit = commit.strip() if Path(top).resolve() == ROOT else ""
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "BRYC_THREADS": os.environ.get("BRYC_THREADS", "unset"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "git_commit": commit or "unknown (not a git checkout)",
        "seed": seed,
        "sizes": {"points": [list(p) for p in wl.points], "chains": wl.chains,
                  "steps": wl.steps},
    }


# ---------------------------------------------------------------- main

def run(workload: str, seed: int, seconds: float, trace: bool, toy: bool,
        results: Path) -> dict:
    if not (SRC / "qfields" / "__init__.py").is_file():
        raise BenchError(f"no qfields package under {SRC}")
    wl = workloads.workload(workload, toy=toy)
    # byte-compile first, so that no timed interpreter pays for compiling
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], check=True,
                   stdout=subprocess.DEVNULL, timeout=300)
    results.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=results))
    try:
        if trace:
            res = traced_run(wl, seed, work, toy)
            metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                       for k, v in res["metrics"].items()}
        else:
            timed = timed_roundtrips if wl.kind == "roundtrip" else timed_scan
            res = timed(wl, seed, seconds, work, toy)
            res["summary"] = {k: summary(v) for k, v in res["samples"].items()}
            metrics = {k: {"value": res["summary"][k]["median"], "unit": unit}
                       for k, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    line = {"correct": bool(res["correct"]), "attempted": int(res["attempted"]),
            "failed": int(res["failed"]), "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "toy": toy, "environment": environment(seed, wl),
              "refused": res["refused"], "result": line,
              **{k: v for k, v in res.items() if k not in ("spans",)}}
    stem = f"{workload}-seed{seed}-trace{int(trace)}{'-toy' if toy else ''}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if trace:
        (results / f"{stem}.spans.json").write_text(json.dumps(res["spans"]))
    return {"line": line, "record": record}


def report(out: dict) -> None:
    rec = out["record"]
    line = out["line"]
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {int(rec['trace'])}")
    summ = rec.get("summary", {})
    for name, m in line["metrics"].items():
        extra = ""
        if name in summ:
            s = summ[name]
            extra = f"  (median of n={s['n']}"
            extra += f", p{s['p']}={s['p_value']:.6g})" if "p" in s else ")"
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}{extra}")
    print(f"  attempted {line['attempted']}, failed {line['failed']}, "
          f"refused {rec['refused']}, correct {line['correct']}")
    print(json.dumps(line))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qfields benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="self-test sizes: 8 chains x 200 steps, a 2-point scan, one set-up")
    ap.add_argument("--results", type=Path, default=HERE / "results",
                    help="directory for the results file and scratch files")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        ap.error("--seed must fit in 64 unsigned bits")
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.toy,
                  args.results)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    report(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-process work of the qfields benchmark, run in a fresh interpreter.

``run.py`` starts this script once per cold sample, so that the package's
caches (``_leggauss``, ``kernel._THETA_CACHE``, ``measure._TABLE_CACHE``)
start empty every time.  Modes:

setup   ``import qfields`` -> ``classify`` -> ``make_sampler`` at one point
scan    one timed pass of ``kernel_scan`` (classify -> make_sampler ->
        kernel-check at every point)
replay  the workload's operation through the public calls, with spans
        around them when ``--trace 1``; then the same operations at the
        probe point, for the layers the workload does not reach
import  ``import qfields``, then cold ``gl_nodes(0, pi, n)``, n = 128, 256, 512

Each mode writes one JSON object to ``--out``.  Nothing from qfields is
imported before a mode starts its clock.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

# Public functions the traced replay wraps in spans.  Every binding of each
# function object in the package is wrapped, so calls the package makes to
# them internally (make_sampler -> mehler_kernel, standard_suite ->
# weak_form_residuals, ...) are spans too.
TRACED = (
    ("params", "classify"),
    ("kernel", "mehler_kernel"),
    ("kernel", "eigen_residual"),
    ("kernel", "stationarity_residual"),
    ("kernel", "chapman_kolmogorov_residual"),
    ("measure", "cdf_table"),
    ("simulate", "make_sampler"),
    ("simulate", "sample_ensemble"),
    ("simulate", "write_csv"),
    ("simulate", "read_csv"),
    ("qpoly", "qhermite_table"),
    ("verify", "standard_suite"),
    ("verify", "weak_form_residuals"),
    ("verify", "martingale_residuals"),
)


class Tracer:
    """Spans kept in memory: name, start, end, parent span and operation id."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = {"id": len(self.spans), "name": name, "op": self.op,
                   "parent": self._stack[-1] if self._stack else None,
                   "start": time.perf_counter(), "end": None}
            self.spans.append(rec)
            self._stack.append(rec["id"])
            try:
                return fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self._stack.pop()
        return traced


def instrument(tracer: Tracer) -> None:
    """Replace every binding of the TRACED functions inside qfields (which
    must be imported already)."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "qfields" or name.startswith("qfields."))]
    for mod_name, fn_name in TRACED:
        fn = getattr(sys.modules[f"qfields.{mod_name}"], fn_name)
        traced = tracer.wrap(f"{mod_name}.{fn_name}", fn)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, attr, traced)


@dataclass(frozen=True)
class ScanPoint:
    rho: float
    q: float | None    # None: the point has no (rho, q) form, so no kernel-check
    params: object     # qfields.FieldParams


def scan_points(pairs, seed: int | None = None) -> list[ScanPoint]:
    """The points at these (rho, q) pairs, shuffled by ``seed`` if given."""
    from qfields import params
    points = [ScanPoint(r, q, params.params_from_rho_q(r, q)) for r, q in pairs]
    if seed is not None:
        random.Random(seed).shuffle(points)
    return points


def kernel_check(rho: float, q: float) -> tuple[int, dict]:
    """``qfields kernel-check --json`` in-process: (exit code, payload)."""
    from qfields import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(["kernel-check", "--rho", repr(rho), "--q", repr(q), "--json"])
    try:
        payload = json.loads(out.getvalue())
    except ValueError:
        payload = {"stderr": err.getvalue().strip()}
    return rc, payload


def scan_point(pt: ScanPoint) -> dict:
    """classify -> make_sampler -> kernel-check at one point, with its outcome.

    ``refused``: make_sampler raised a named SamplerError.  ``failed``: any
    other exception, or a kernel-check exit code other than 0.  Both stages
    run, since kernel-check does not depend on the sampler.
    """
    from qfields import params, simulate
    res = {"rho": pt.rho, "q": pt.q, "outcome": "ok", "build_s": 0.0, "check_s": 0.0}
    t0 = time.perf_counter()
    try:
        c = params.classify(pt.params)
        simulate.make_sampler(c, simulate.SamplerConfig(rho=pt.rho, q=pt.q))
    except simulate.SamplerError as exc:
        res.update(outcome="refused", error=f"SamplerError: {exc}")
    except Exception as exc:  # the scan must go on and report the failure
        res.update(outcome="failed", error=f"{type(exc).__name__}: {exc}")
    t1 = time.perf_counter()
    res["build_s"] = t1 - t0
    if pt.q is not None:
        rc, payload = kernel_check(pt.rho, pt.q)
        res["check_s"] = time.perf_counter() - t1
        res["check_rc"] = rc
        res["check"] = payload
        res["check_consistent"] = _check_consistent(rc, payload)
        if rc != 0:
            res["outcome"] = "failed"
            res.setdefault("error", f"kernel-check exit code {rc}")
    return res


def _check_consistent(rc: int, payload: dict) -> bool:
    """kernel-check's exit code, verdict and residuals must agree."""
    if "pass" not in payload:
        return rc != 0
    worst = max(payload["eigen_max"], payload["stationarity_max"],
                payload["chapman_kolmogorov_max"])
    return payload["pass"] == (worst <= payload["tolerance"]) == (rc == 0)


def roundtrip(rho: float, q: float, chains: int, steps: int, seed: int,
              csv_path: Path) -> dict:
    """The sample -> verify pipeline through the library, plus kernel-check.

    Same calls, defaults and file format as ``qfields sample`` and
    ``qfields verify`` at this argv.
    """
    from qfields import params, simulate, verify
    res = {"rho": rho, "q": q, "chains": chains, "steps": steps, "outcome": "ok"}
    fp = params.params_from_rho_q(rho, q)
    c = params.classify(fp)
    cfg = simulate.SamplerConfig(rho=rho, q=q, n_chains=chains, n_steps=steps, seed=seed)
    try:
        sampler = simulate.make_sampler(c, cfg)
    except simulate.SamplerError as exc:
        res.update(outcome="refused", error=f"SamplerError: {exc}")
        return res
    ens = simulate.sample_ensemble(sampler, chains, steps, seed)
    simulate.write_csv(ens, csv_path)
    data = csv_path.read_bytes()
    res["csv_bytes"] = len(data)
    res["csv_sha256"] = hashlib.sha256(data).hexdigest()
    entries = verify.standard_suite(simulate.read_csv(csv_path), fp, c)
    res["n_tests"] = len(entries)
    res["n_fail"] = sum(not e.passed for e in entries)
    rc, payload = kernel_check(rho, q)
    res.update(check_rc=rc, check=payload, check_consistent=_check_consistent(rc, payload))
    if res["n_fail"] or rc != 0:
        res["outcome"] = "failed"
    return res


def _import_qfields() -> float:
    t0 = time.perf_counter()
    import qfields  # noqa: F401
    return time.perf_counter() - t0


def mode_setup(args) -> dict:
    t0 = time.perf_counter()
    from qfields import params, simulate
    fp = params.params_from_rho_q(args.rho, args.q)
    c = params.classify(fp)
    simulate.make_sampler(c, simulate.SamplerConfig(rho=args.rho, q=args.q))
    setup_s = time.perf_counter() - t0
    return {"setup_s": setup_s, "params": [fp.rho, fp.A, fp.B, fp.C, fp.D]}


def mode_scan(args) -> dict:
    wl = workloads.workload("kernel_scan", toy=args.toy)
    _import_qfields()
    points = scan_points(wl.points, args.seed)
    t0 = time.perf_counter()
    results = [scan_point(pt) for pt in points]
    return {"pass_s": time.perf_counter() - t0, "points": results}


def mode_import(args) -> dict:
    import_s = _import_qfields()
    from qfields import quadrature
    t0 = time.perf_counter()
    for n in (128, 256, 512):
        quadrature.gl_nodes(0.0, math.pi, n)
    return {"import_s": import_s, "gl_nodes_cold_s": time.perf_counter() - t0}


def mode_replay(args) -> dict:
    wl = workloads.workload(args.workload, toy=args.toy)
    _import_qfields()
    tracer = Tracer()
    if args.trace:
        instrument(tracer)
    work = Path(args.work)
    t0 = time.perf_counter()
    ops = []
    if wl.kind == "roundtrip":
        tracer.op = 0
        rho, q = wl.points[0]
        ops.append(roundtrip(rho, q, wl.chains, wl.steps, args.seed, work / "replay.csv"))
    else:
        for i, pt in enumerate(scan_points(wl.points, args.seed)):
            tracer.op = i
            ops.append(scan_point(pt))
    tracer.op = "probe"
    rho, q = workloads.PROBE_RHO_Q
    probe = roundtrip(rho, q, workloads.PROBE_CHAINS, workloads.PROBE_STEPS, args.seed,
                      work / "probe.csv")
    total_s = time.perf_counter() - t0
    return {"total_s": total_s, "ops": ops, "probe": probe, "spans": tracer.spans}


MODES = {"setup": mode_setup, "scan": mode_scan, "replay": mode_replay, "import": mode_import}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=sorted(MODES))
    ap.add_argument("--out", required=True)
    ap.add_argument("--workload", default="qgauss_roundtrip")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--rho", type=float)
    ap.add_argument("--q", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work", default=".")
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args(argv)
    result = MODES[args.mode](args)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

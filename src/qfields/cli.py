"""Command-line surface.

Subcommands: classify, derive, boundary, coeffs, favard, density,
kernel-check, sample, verify.  Exit codes: 0 success, 1 usage error,
2 validation failure, 3 verification failures present.  Numeric defaults are
documented in --help.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys

import numpy as np

from . import kernel as kernel_mod
from . import measure, params, qpoly, verify
from .quadrature import QuadratureError
from .simulate import SamplerConfig, _check_counts, make_sampler, sample_csv

__all__ = ["main", "run"]

_KERNEL_CHECK_TOL = 1e-6
_KERNEL_CHECK_NMAX = 8  # eigen relation checked at degrees 0..8


class _UsageError(Exception):
    pass


# a token float() reads that starts with '-': argparse's own matcher takes only -digits
# and -digits.digits for values, so -1e-05 (a float's repr), -inf and -nan read as options
_NEGATIVE_FLOAT = re.compile(r"-(?:inf(?:inity)?|nan|(?:(?:\d(?:_?\d)*)?\.\d(?:_?\d)*"
                             r"|\d(?:_?\d)*\.?)(?:e[-+]?\d(?:_?\d)*)?)\Z", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_FLOAT

    def error(self, message):  # exit code 1 instead of argparse's 2
        raise _UsageError(message)


# the sampler cases that sample's --case and the config key case may name
_CASES = ("gaussian", "qgaussian", "twopoint", "scaled")


@functools.cache  # one parser per process: parsing leaves it unchanged
def _build_parser() -> _Parser:
    p = _Parser(prog="qfields",
                description="Stationary random fields with linear regressions and "
                            "quadratic conditional variances: classify parameter sets, "
                            "inspect measures and kernels, sample chains, verify "
                            "moment identities.")
    sub = p.add_subparsers(dest="command", metavar="command")

    def add_params(sp):
        sp.add_argument("--rho", type=float, required=True, help="adjacent correlation, 0 < |rho| < 1")
        sp.add_argument("--A", type=float, required=True)
        sp.add_argument("--B", type=float, required=True)
        sp.add_argument("--C", type=float, required=True)
        sp.add_argument("--D", type=float, required=True)

    sp = sub.add_parser("classify", help="existence verdict for a parameter set")
    add_params(sp)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("derive", help="derived quantities; fills A, C from B or q "
                                       "under the compatibility constraint with D=0")
    sp.add_argument("--rho", type=float, required=True)
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--B", type=float)
    g.add_argument("--q", type=float)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("boundary", help="admissible-B landmarks at a given rho")
    sp.add_argument("--rho", type=float, required=True)
    sp.add_argument("--mmax", type=int, default=5, help="lattice orders to list (default 5)")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("coeffs", help="one-sided regression coefficients and "
                                       "consistency residuals")
    add_params(sp)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("favard", help="positivity scan of the conditional-law recurrence")
    sp.add_argument("--rho", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--nmax", type=int, default=100, help="scan depth (default 100)")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("density", help="tabulate the stationary density to CSV")
    sp.add_argument("--q", type=float, required=True, help="deformation parameter in (-1, 1)")
    sp.add_argument("--out", required=True, help="output CSV path (columns x,f)")
    sp.add_argument("--points", type=int, default=513, help="grid size, at least 2 (default 513)")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("kernel-check", help="eigen-relation, stationarity and "
                                             "two-step composition residuals")
    sp.add_argument("--rho", type=float, required=True)
    sp.add_argument("--q", type=float, required=True, help="q in (-1,1) for the series kernel, 1 for Gaussian")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("sample", help="sample a stationary ensemble to CSV "
                                       "(default 200 chains x 5000 steps, seed 42)")
    sp.add_argument("--rho", type=float, help="adjacent correlation")
    sp.add_argument("--q", type=float, help="deformation parameter (fills A, C; q=1 is Gaussian)")
    sp.add_argument("--case", choices=_CASES, help="case override")
    sp.add_argument("--radial", help="scaled case radial law, e.g. '1.4142135623730951:0.5,0:0.5'")
    sp.add_argument("--chains", type=int, help="number of chains (default 200)")
    sp.add_argument("--steps", type=int, help="steps per chain (default 5000)")
    sp.add_argument("--seed", type=int, help="64-bit master seed (default 42)")
    sp.add_argument("--config", help="JSON config with keys rho, q, b, case, radial, "
                                     "n_chains, n_steps, seed (flags override)")
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("verify", help="statistical verification of a sampled CSV")
    sp.add_argument("--in", dest="infile", required=True, help="input CSV (chain,t,x)")
    add_params(sp)
    sp.add_argument("--report", help="write the JSON report here (default stdout)")
    sp.add_argument("--seed", type=int, help="seed to echo in the report metadata")
    sp.add_argument("--json", action="store_true", help="also print the report to stdout")
    return p


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for ln in lines:
            print(ln)


def _cmd_classify(args) -> int:
    p = params.FieldParams(args.rho, args.A, args.B, args.C, args.D)
    c = params.classify(p)
    payload = {"classification": c.name, **c.payload()}
    line = c.name
    extras = ", ".join(f"{k}={v}" for k, v in c.payload().items() if v != "")
    if extras:
        line = f"{c.name} ({extras})"
    _emit(payload, args.json, [line])
    return 2 if isinstance(c, params.InvalidParams) else 0


def _cmd_derive(args) -> int:
    flag, value = ("q", args.q) if args.q is not None else ("B", args.B)
    if not math.isfinite(value):  # every derived value would be NaN
        raise ValueError(f"{flag} must be finite, got {value}")
    build = params.params_from_rho_q if flag == "q" else params.params_from_rho_b
    fp = build(args.rho, value)
    d = params.derive(fp)
    payload = {
        "rho": fp.rho, "A": fp.A, "B": fp.B, "C": fp.C, "D": fp.D,
        "a": d.a, "R": d.R, "q": d.q,
        "constraint_residual": d.constraint_residual,
    }
    _emit(payload, args.json, [f"{k} = {v}" for k, v in payload.items()])
    return 0


def _cmd_boundary(args) -> int:
    b = params.boundary_values(args.rho, args.mmax)
    payload = {"rho": args.rho, "degenerate": b.degenerate,
               "continuum_sup": b.continuum_sup,
               "lattice": {str(m + 1): v for m, v in enumerate(b.lattice)}}
    lines = [f"degenerate B = {b.degenerate!r}",
             f"continuum sup B = {b.continuum_sup!r}"]
    lines += [f"lattice m={m + 1}: B = {v!r}" for m, v in enumerate(b.lattice)]
    _emit(payload, args.json, lines)
    return 0


def _cmd_coeffs(args) -> int:
    p = params.FieldParams(args.rho, args.A, args.B, args.C, args.D)
    v = params.validate(p)
    if not v.ok:
        print("; ".join(v.violations), file=sys.stderr)
        return 2
    rc = params.regression_coeffs(p)
    cr = params.consistency_residuals(p)
    payload = {
        "alpha1": rc.alpha1, "alpha2": rc.alpha2,
        "beta1": rc.beta1, "beta2": rc.beta2,
        "gamma1": rc.gamma1, "gamma2": rc.gamma2,
        "r1": cr.r1, "r2": cr.r2, "r3": cr.r3,
        "d_product": cr.d_product, "c_product": cr.c_product,
    }
    _emit(payload, args.json, [f"{k} = {v}" for k, v in payload.items()])
    return 0


def _cmd_favard(args) -> int:
    verdict = qpoly.favard_scan(args.rho, args.q, args.nmax)
    payload = {"verdict": verdict.name, **dataclasses.asdict(verdict)}
    line = verdict.name
    if "n0" in payload:
        line += f" n={payload['n0']}"
    if payload.get("m") is not None:
        line += f" (lattice m={payload['m']})"
    _emit(payload, args.json, [line])
    return 0


def _cmd_density(args) -> int:
    if args.points < 2:
        raise ValueError(f"--points must be at least 2, got {args.points}")
    spec = measure.QGaussian(args.q)
    lo, hi = measure.support(spec)
    theta = np.linspace(0.0, math.pi, args.points)
    xs = measure.theta_to_x(spec, theta)
    fs = measure.density(spec, xs)
    with open(args.out, "w", newline="") as fh:
        fh.write("x,f\n")
        fh.writelines(f"{x:.17g},{f:.17g}\n" for x, f in zip(xs, fs))
    payload = {"q": args.q, "support": [lo, hi], "points": args.points, "out": args.out}
    _emit(payload, args.json, [f"wrote {args.points} rows to {args.out} "
                               f"(support [{lo:.6g}, {hi:.6g}])"])
    return 0


def _cmd_kernel_check(args) -> int:
    rho, q = args.rho, args.q
    if q == 1.0:
        kern = kernel_mod.GaussianAR1(rho)
        ys = [-1.5, -0.5, 0.0, 0.75, 2.0]
        xs = [-1.0, 0.0, 1.0]
    else:
        kern = kernel_mod.mehler_kernel(rho, q)
        s = measure.support(kern.law)[1]
        ys = [c * s for c in (-0.8, -0.4, 0.0, 0.4, 0.8)]
        xs = [c * s for c in (-0.6, 0.1, 0.5)]
    # np.max, unlike max, propagates a NaN residual into the verdict.  The ladders run
    # eigen by degree then by y, then stationarity, then composition at the pairs
    # (x, ys[1]), (x, ys[3]) for each x; the first that fails to converge sets the error
    eigen = float(np.max(kernel_mod.eigen_residual(kern, range(_KERNEL_CHECK_NMAX + 1), ys)))
    stat = float(np.max(kernel_mod.stationarity_residual(kern, xs)))
    ck = float(np.max(kernel_mod.chapman_kolmogorov_residual(
        kern, np.repeat(xs, 2), [ys[1], ys[3]] * len(xs))))
    ok = all(r <= _KERNEL_CHECK_TOL for r in (eigen, stat, ck))
    payload = {"rho": rho, "q": q, "eigen_max": eigen, "stationarity_max": stat,
               "chapman_kolmogorov_max": ck, "tolerance": _KERNEL_CHECK_TOL,
               "pass": ok}
    _emit(payload, args.json, [
        f"eigen residual (n<= {_KERNEL_CHECK_NMAX}):        {eigen:.3e}",
        f"stationarity residual:          {stat:.3e}",
        f"two-step composition residual:  {ck:.3e}",
        f"{'PASS' if ok else 'FAIL'} at tolerance {_KERNEL_CHECK_TOL:g}",
    ])
    return 0 if ok else 3


def _parse_radial(text: str) -> measure.RadialLaw:
    pairs = []
    for chunk in text.split(","):
        v, _, pr = chunk.partition(":")
        try:
            pairs.append((float(v), float(pr)))
        except ValueError:
            raise _UsageError(f"radial must read 'value:probability,...', got {text!r}") from None
    return measure.RadialLaw(values=tuple(v for v, _ in pairs),
                             probs=tuple(p for _, p in pairs))


# sample flag -> SamplerConfig field; a flag overrides the --config value
_SAMPLE_FLAGS = {"rho": "rho", "q": "q", "case": "case", "radial": "radial",
                 "chains": "n_chains", "steps": "n_steps", "seed": "seed"}


def _sampler_config(args) -> SamplerConfig:
    cfg: dict = {}
    if args.config:
        with open(args.config) as fh:
            try:
                cfg = json.load(fh)
            except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
                raise _UsageError(f"--config is not valid JSON: {exc}") from None
        if not isinstance(cfg, dict):
            raise _UsageError("--config must hold a JSON object")
        unknown = sorted(cfg.keys() - {f.name for f in dataclasses.fields(SamplerConfig)})
        if unknown:
            raise _UsageError(f"unknown --config keys: {', '.join(unknown)}")
    cfg.update({field: getattr(args, flag) for flag, field in _SAMPLE_FLAGS.items()
                if getattr(args, flag) is not None})
    if "rho" not in cfg:
        raise _UsageError("sample requires --rho (or rho in --config)")
    for key in ("n_chains", "n_steps", "seed"):
        if key in cfg and type(cfg[key]) is not int:  # bool is not an integer here
            raise _UsageError(f"{key} must be an integer, got {cfg[key]!r}")
    for key in ("rho", "q", "b"):
        if key in cfg and type(cfg[key]) not in (int, float):  # a bool is no number either
            raise _UsageError(f"{key} must be a number, got {cfg[key]!r}")
    if "case" in cfg and cfg["case"] not in _CASES:
        raise _UsageError(f"case must be one of {', '.join(_CASES)}, got {cfg['case']!r}")
    cfg["rho"] = float(cfg["rho"])
    radial = cfg.get("radial")
    if isinstance(radial, str):
        cfg["radial"] = _parse_radial(radial)
    elif radial is not None:
        if not isinstance(radial, list) or not all(
                isinstance(pair, list) and len(pair) == 2
                and all(type(v) in (int, float) for v in pair) for pair in radial):
            raise _UsageError("radial must be a string or a list of [value, probability] "
                              f"number pairs, got {radial!r}")
        cfg["radial"] = measure.RadialLaw(values=tuple(float(v) for v, _ in radial),
                                          probs=tuple(float(p) for _, p in radial))
    return SamplerConfig(**cfg)


# canonical parameter set of each --case that takes no q
_CASE_PARAMS = {
    "gaussian": lambda rho: params.params_from_rho_q(rho, 1.0),
    "twopoint": lambda rho: params.params_from_rho_b(rho, 0.0),
    "scaled": lambda rho: params.FieldParams(rho, 0.5, 0.0, 0.0, 0.0),
}


def _params_for_config(cfg: SamplerConfig) -> params.FieldParams:
    if cfg.case in _CASE_PARAMS and cfg.q is not None:
        raise _UsageError(f"--q conflicts with --case {cfg.case}")
    if cfg.case == "qgaussian" and cfg.q is None:
        raise _UsageError("case 'qgaussian' requires --q")
    if cfg.b is not None and cfg.case is not None:
        raise _UsageError(f"b conflicts with --case {cfg.case}")
    if cfg.b is not None and cfg.q is not None:
        raise _UsageError("b conflicts with --q")
    if cfg.radial is not None and cfg.case != "scaled":
        raise _UsageError("--radial requires --case scaled")
    if cfg.case in _CASE_PARAMS:
        return _CASE_PARAMS[cfg.case](cfg.rho)
    if cfg.q is not None:
        return params.params_from_rho_q(cfg.rho, cfg.q)
    if cfg.b is not None:
        return params.params_from_rho_b(cfg.rho, cfg.b)
    raise _UsageError("sample requires --q, --case, or b/q in --config")


def _cmd_sample(args) -> int:
    cfg = _sampler_config(args)
    fp = _params_for_config(cfg)
    c = params.classify(fp)
    if isinstance(c, params.InvalidParams):
        print(f"invalid parameters: {c.reason}", file=sys.stderr)
        return 2
    _check_counts(cfg.n_chains, cfg.n_steps, cfg.seed)
    sample_csv(make_sampler(c, cfg), cfg.n_chains, cfg.n_steps, cfg.seed, args.out)
    payload = {"classification": c.name, "rho": cfg.rho,
               "n_chains": cfg.n_chains, "n_steps": cfg.n_steps,
               "seed": cfg.seed, "out": args.out}
    _emit(payload, args.json,
          [f"{c.name}: wrote {cfg.n_chains} chains x {cfg.n_steps} steps "
           f"(seed {cfg.seed}) to {args.out}"])
    return 0


def _cmd_verify(args) -> int:
    p = params.FieldParams(args.rho, args.A, args.B, args.C, args.D)
    c = params.classify(p)
    if isinstance(c, params.InvalidParams):
        print(f"invalid parameters: {c.reason}", file=sys.stderr)
        return 2
    entries, n_chains, n_steps = verify.verify_csv(args.infile, p, c)
    meta = {
        "seed": args.seed,
        "n_chains": n_chains,
        "n_steps": n_steps,
        "params": {"rho": p.rho, "A": p.A, "B": p.B, "C": p.C, "D": p.D},
        "classification": c.name,
        "threshold": verify.DEFAULT_THRESHOLD,
    }
    report = verify.build_report(entries, meta)
    text = verify.report_json(report)
    if args.report:
        with open(args.report, "w", newline="") as fh:
            fh.write(text)
    if args.json or not args.report:
        sys.stdout.write(text)
    n_fail = report["summary"]["n_fail"]
    if not args.json and args.report:
        print(f"{len(entries)} tests, {n_fail} failures; report written to {args.report}")
    return 3 if n_fail else 0


_COMMANDS = {
    "classify": _cmd_classify,
    "derive": _cmd_derive,
    "boundary": _cmd_boundary,
    "coeffs": _cmd_coeffs,
    "favard": _cmd_favard,
    "density": _cmd_density,
    "kernel-check": _cmd_kernel_check,
    "sample": _cmd_sample,
    "verify": _cmd_verify,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required")
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print("hint: run 'qfields --help' or 'qfields <command> --help'", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (ValueError, QuadratureError) as exc:  # SamplerError is a ValueError, too
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

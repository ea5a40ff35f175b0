"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import math
import time

import numpy as np

from qfields import measure, params, qpoly, simulate, verify
from qfields.cli import run as cli_run
from qfields.kernel import (GaussianAR1, chapman_kolmogorov_residual,
                            conditional_moment_residual, eigen_residual,
                            mehler_kernel, stationarity_residual)
from qfields.measure import QGaussian, RadialLaw, cdf_table, density
from qfields.params import (ExistsGaussian, ExistsQGaussian,
                            ExistsScaledTwoPoint, ExistsTwoPointSymmetric,
                            FieldParams, InvalidParams, Nonexistent,
                            NonexistentDegenerate, OpenLattice, classify,
                            consistency_residuals, forecast_recurrence_check,
                            gap_induction_residual, params_from_rho_b,
                            params_from_rho_q)
from qfields.quadrature import gl_nodes
from qfields.simulate import SamplerConfig, make_sampler, sample_ensemble

SQRT2 = math.sqrt(2.0)


def _finish(num: int, name: str, problems: list, t0: float, budget: float):
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < budget
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): "
          f"{elapsed:.2f}s of {budget:.0f}s budget"
          + (f"; {len(problems)} problem(s)" if problems else ""))
    assert not problems, problems[:10]
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeded budget {budget}s"


def test_criterion_1_classification_table():
    t0 = time.perf_counter()
    b_half = params.boundary_values(0.5, 3)
    b_08 = params.boundary_values(0.8, 2)
    rows = [
        # invalid parameter sets
        (FieldParams(0.0, 0.16, 0.32, 0.68, 0.0), InvalidParams, None),
        (FieldParams(1.0, 0.16, 0.32, 0.52, 0.0), InvalidParams, None),
        (FieldParams(1.2, 0.16, 0.32, 0.3968, 0.0), InvalidParams, None),
        (FieldParams(0.5, 0.5, 0.0, 0.3, 0.0), InvalidParams, None),  # C mismatch
        # nonzero D
        (FieldParams(0.5, 0.16, 0.32, 0.6, 0.1), Nonexistent, None),
        # B = 0 family
        (FieldParams(0.5, 0.5, 0.0, 0.0, 0.0), ExistsScaledTwoPoint, None),
        (FieldParams(0.5, 0.2, 0.0, 0.6, 0.0), ExistsTwoPointSymmetric, None),
        (FieldParams(0.5, 0.25 / 1.0625, 0.0, 1.0 - 0.5 / 1.0625, 0.0),
         ExistsTwoPointSymmetric, None),  # overlap with the q = -1 endpoint
        # compatibility constraint violated
        (FieldParams(0.5, 0.3, 0.1, 0.375, 0.0), Nonexistent, None),
        # degenerate point (q undefined)
        (FieldParams(0.5, 0.8, -2.4, 0.0, 0.0), NonexistentDegenerate, None),
        # continuum interior
        (params_from_rho_q(0.5, 0.0625), ExistsQGaussian, 0.0625),
        (params_from_rho_q(0.5, 0.0), ExistsQGaussian, 0.0),
        (params_from_rho_q(0.7, -0.5), ExistsQGaussian, -0.5),
        (params_from_rho_b(0.5, b_half.continuum_sup - 1e-3), ExistsQGaussian, None),
        # Gaussian endpoint
        (FieldParams(0.5, 0.16, 0.32, 0.6, 0.0), ExistsGaussian, None),
        (params_from_rho_q(0.8, 1.0), ExistsGaussian, None),
        (params_from_rho_b(0.5, b_half.continuum_sup), ExistsGaussian, None),
        # negative B branch (q < -1)
        (params_from_rho_b(0.5, -0.1), Nonexistent, None),
        (params_from_rho_b(0.5, -1.0), Nonexistent, None),
        # below the degenerate point (q > 1, lattice order < 1)
        (params_from_rho_b(0.5, -5.0), Nonexistent, None),
        # isolated lattice values
        (FieldParams(0.5, 0.0, 1.0, 0.75, 0.0), OpenLattice, 1),
        (params_from_rho_b(0.5, b_half.lattice[1]), OpenLattice, 2),
        (params_from_rho_b(0.5, b_half.lattice[2]), OpenLattice, 3),
        (params_from_rho_b(0.8, b_08.lattice[1]), OpenLattice, 2),
        # off-lattice q > 1
        (params_from_rho_b(0.5, 0.5), Nonexistent, None),
    ]
    assert len(rows) == 26 - 1  # 25 vectors
    problems = []
    for i, (p, expected, payload) in enumerate(rows):
        c = classify(p)
        if not isinstance(c, expected):
            problems.append(f"row {i}: expected {expected.__name__}, got {c}")
            continue
        if payload is not None:
            got = c.q if isinstance(c, ExistsQGaussian) else getattr(c, "m", None)
            if isinstance(c, ExistsQGaussian):
                if abs(got - payload) > 1e-9:
                    problems.append(f"row {i}: q payload {got} != {payload}")
            elif got != payload:
                problems.append(f"row {i}: m payload {got} != {payload}")
    _finish(1, "classification table", problems, t0, 1.0)


def test_criterion_2_algebraic_identities():
    t0 = time.perf_counter()
    problems = []
    rhos = np.concatenate([np.linspace(0.05, 0.95, 10), -np.linspace(0.05, 0.95, 10)])
    qs = np.linspace(-0.99, 1.0, 20)
    for rho in rhos:
        for q in qs:
            cr = consistency_residuals(params_from_rho_q(rho, q))
            worst = max(abs(cr.r1), abs(cr.r2), abs(cr.r3), abs(cr.c_product))
            if worst > 1e-10:
                problems.append(f"consistency residual {worst:.2e} at rho={rho}, q={q}")
    for rho in (0.3, -0.3, 0.5, -0.5, 0.7, -0.7):
        for n in range(1, 41):
            r = gap_induction_residual(rho, n)
            if r > 1e-10:
                problems.append(f"induction residual {r:.2e} at rho={rho}, n={n}")
    for rho, y0, y1, n_max, tol in ((0.5, 1.0, 1.0, 50, 1e-9),
                                    (0.5, 1.0, 0.25, 50, 1e-9),
                                    (0.8, 2.0, 1.0, 100, 1e-9),
                                    (-0.6, 0.3, -1.7, 80, 1e-9)):
        d = forecast_recurrence_check(rho, y0, y1, n_max)
        if d > tol:
            problems.append(f"forecast closed form deviates {d:.2e} at rho={rho}")
    _finish(2, "algebraic identity suite", problems, t0, 5.0)


def test_criterion_3_orthogonality():
    t0 = time.perf_counter()
    problems = []
    n_deg = 10
    for q in (-0.5, 0.0, 0.5, 0.9):
        spec = QGaussian(q)
        theta, w = gl_nodes(0.0, math.pi, 2048)
        x = measure.theta_to_x(spec, theta)
        wt = w * measure.theta_weight(spec, theta)
        tab = qpoly.qhermite_table(x, q, n_deg)
        gram = (tab * wt[None, :]) @ tab.T
        norms = qpoly.q_factorials(n_deg, q)
        for m in range(n_deg + 1):
            for n in range(n_deg + 1):
                target = norms[n] if m == n else 0.0
                scale = math.sqrt(norms[m] * norms[n])
                err = abs(gram[m, n] - target) / scale
                if err > 1e-7:
                    problems.append(f"orthogonality rel err {err:.2e} at q={q}, (m,n)=({m},{n})")
    # closed-form semicircle checks
    if abs(density(QGaussian(0.0), 0.0) - 1.0 / math.pi) > 1e-10:
        problems.append("semicircle density at 0 differs from 1/pi")
    closed = 0.5 + math.sqrt(3.0) / (4.0 * math.pi) + math.asin(0.5) / math.pi
    x1 = cdf_table(QGaussian(0.0)).quantile(closed)
    if abs(x1 - 1.0) > 1e-8:
        problems.append(f"semicircle quantile at CDF(1) off by {abs(x1 - 1.0):.2e}")
    _finish(3, "orthogonality suite", problems, t0, 30.0)


def test_criterion_4_kernel_suite():
    t0 = time.perf_counter()
    problems = []
    for rho in (0.3, 0.5, 0.8):
        for q in (-0.5, 0.0, 0.5, 0.9):
            k = mehler_kernel(rho, q)
            spec = QGaussian(q)
            s = 2.0 / math.sqrt(1.0 - q)
            ys = measure.theta_to_x(spec, np.linspace(0.0, math.pi, 9))
            for n in range(0, 9):
                for y in ys:
                    r = eigen_residual(k, n, float(y))
                    if r > 1e-6:
                        problems.append(f"eigen {r:.2e} at rho={rho}, q={q}, n={n}, y={y:.3f}")
            for c in (-0.9, -0.4, 0.1, 0.6, 0.95):
                r = stationarity_residual(k, c * s)
                if r > 1e-6:
                    problems.append(f"stationarity {r:.2e} at rho={rho}, q={q}, x={c * s:.3f}")
            for cx in (-0.6, 0.0, 0.7):
                for cz in (-0.5, 0.4, 0.8):
                    r = chapman_kolmogorov_residual(k, cx * s, cz * s)
                    if r > 1e-6:
                        problems.append(f"composition {r:.2e} at rho={rho}, q={q}")
    # Gaussian endpoint: conditional mean/second moment exact to 1e-12
    for rho in (0.3, 0.5, 0.8):
        k = GaussianAR1(rho)
        p = params_from_rho_q(rho, 1.0)
        for y in (-2.0, -0.5, 0.0, 1.0, 2.5):
            r = conditional_moment_residual(k, p, y)
            if r["r_mean"] > 1e-12 or r["r_var"] > 1e-12:
                problems.append(f"AR(1) conditional moments off at rho={rho}, y={y}: {r}")
    _finish(4, "kernel suite", problems, t0, 120.0)


def test_criterion_5_favard_suite():
    t0 = time.perf_counter()
    problems = []
    for rho in (0.3, 0.5, 0.8):
        for m in range(1, 6):
            q = (rho * rho) ** (-1.0 / m)
            v = qpoly.favard_scan(rho, q, 200)
            if not (isinstance(v, qpoly.TerminatesAt) and v.n0 == m + 1 and v.m == m):
                problems.append(f"lattice detection failed at rho={rho}, m={m}: {v}")
            c = (1.0 - rho * rho * q ** m) * qpoly.q_brackets(m + 1, q)[m + 1]
            if abs(c) > 1e-10:
                problems.append(f"|c_(m+1)| = {abs(c):.2e} at rho={rho}, m={m}")
    rng = np.random.default_rng(20240229)
    fails = 0
    while fails < 20:
        rho = rng.uniform(0.2, 0.9)
        q = rng.uniform(1.05, 6.0)
        m_star = -2.0 * math.log(rho) / math.log(q)
        if abs(m_star - round(m_star)) < 1e-3:
            continue
        v = qpoly.favard_scan(rho, q, 500)
        if not isinstance(v, qpoly.FailsAt):
            problems.append(f"off-lattice q={q:.4f}, rho={rho:.4f} returned {v}")
        fails += 1
    for _ in range(20):
        rho = rng.uniform(0.1, 0.95)
        q = rng.uniform(-0.999, 1.0)
        v = qpoly.favard_scan(rho, q, 300)
        if not isinstance(v, qpoly.AllPositive):
            problems.append(f"q={q:.4f} in (-1,1] returned {v}")
    _finish(5, "positivity scan suite", problems, t0, 1.0)


def _mc_case(name, p, cfg, seed):
    c = classify(p)
    sampler = make_sampler(c, cfg)
    ens = sample_ensemble(sampler, 200, 5000, seed)
    entries = verify.standard_suite(ens, p, c)
    return c, ens, entries


def test_criterion_6_monte_carlo_suite():
    t0 = time.perf_counter()
    problems = []
    two_point_A = 0.25 / (1.0 + 0.0625)
    radial = RadialLaw(values=(SQRT2, 0.0), probs=(0.5, 0.5))
    cases = [
        ("gaussian rho=0.5", FieldParams(0.5, 0.16, 0.32, 0.6, 0.0),
         SamplerConfig(rho=0.5), 1001),
        ("qgaussian q=0 rho=0.5", params_from_rho_q(0.5, 0.0),
         SamplerConfig(rho=0.5, q=0.0), 1002),
        ("qgaussian q=0.5 rho=0.7", params_from_rho_q(0.7, 0.5),
         SamplerConfig(rho=0.7, q=0.5), 1003),
        ("twopoint rho=0.5",
         FieldParams(0.5, two_point_A, 0.0, 1.0 - 2.0 * two_point_A, 0.0),
         SamplerConfig(rho=0.5), 1004),
        ("twopoint rho=-0.5",
         FieldParams(-0.5, two_point_A, 0.0, 1.0 - 2.0 * two_point_A, 0.0),
         SamplerConfig(rho=-0.5), 1005),
        ("scaled radial sqrt2/0", FieldParams(0.5, 0.5, 0.0, 0.0, 0.0),
         SamplerConfig(rho=0.5, radial=radial), 1006),
    ]
    gauss = None
    for name, p, cfg, seed in cases:
        c, ens, entries = _mc_case(name, p, cfg, seed)
        if name.startswith("gaussian"):
            gauss = p, c, ens
        for e in entries:
            if not e.passed:
                problems.append(f"{name}: {e.test_id} failed "
                                f"(estimate {e.estimate:.3e}, stderr {e.stderr:.3e})")
        if name.startswith("scaled"):
            if not radial.has_zero_atom:
                problems.append("scaled case: zero atom not recorded")
            if "zero-atom" not in getattr(c, "note", ""):
                problems.append("scaled case: classification lacks the zero-atom caveat")

    # documented corruption cases must fail at the pinned seed
    gauss_p, gauss_c, gauss_ens = gauss
    corrupted = verify.weak_form_residuals(
        gauss_ens, FieldParams(0.5, 0.2, 0.32, 0.6, 0.0))
    if all(e.passed for e in corrupted if e.test_id == "weak_quad_x2y0"):
        problems.append("corrupted A did not fail the quadratic x^2 gate")
    wrong_rho = verify.martingale_residuals(gauss_ens, 0.55, 1.0)
    if next(e for e in wrong_rho if e.test_id == "mart_n2_m2").passed:
        problems.append("corrupted rho did not fail the (2,2) eigen-increment gate")
    from qfields.simulate import Ensemble
    shifted = verify.standard_suite(Ensemble(values=gauss_ens.values + 0.1), gauss_p, gauss_c)
    if next(e for e in shifted if e.test_id == "sym_mean").passed:
        problems.append("shifted ensemble did not fail the mean gate")
    _finish(6, "Monte Carlo suite", problems, t0, 180.0)


def test_criterion_7_determinism(tmp_path, monkeypatch, capsys):
    t0 = time.perf_counter()
    problems = []
    csv_bytes, json_bytes = set(), set()
    for workers in ("1", "4", "8"):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda w=workers: int(w))
        for rep in range(2):
            csv_path = tmp_path / f"chains_{workers}_{rep}.csv"
            rep_path = tmp_path / f"report_{workers}_{rep}.json"
            code1 = cli_run(["sample", "--rho", "0.5", "--case", "gaussian",
                             "--chains", "50", "--steps", "1000", "--seed", "4242",
                             "--out", str(csv_path)])
            code2 = cli_run(["verify", "--in", str(csv_path),
                             "--rho", "0.5", "--A", "0.16", "--B", "0.32",
                             "--C", "0.6", "--D", "0",
                             "--report", str(rep_path), "--seed", "4242"])
            capsys.readouterr()
            if code1 != 0 or code2 != 0:
                problems.append(f"exit codes {code1}/{code2} at workers={workers}")
            csv_bytes.add(csv_path.read_bytes())
            json_bytes.add(rep_path.read_bytes())
    if len(csv_bytes) != 1:
        problems.append(f"{len(csv_bytes)} distinct CSV outputs")
    if len(json_bytes) != 1:
        problems.append(f"{len(json_bytes)} distinct report outputs")
    _finish(7, "determinism", problems, t0, 120.0)

"""Statistical verification of sampled ensembles.

Conditional identities are tested in weak form (residuals integrated against
polynomial test functions of the neighbours), the eigen-relation as sample
covariances of polynomial increments, correlations against the geometric
decay, and the odd-moment symmetry.  Chains are independent by construction,
so every statistic is a mean of per-chain means and its standard error the
chain-level sample deviation over sqrt(n_chains); in-chain samples are never
pooled without that batching.  An estimate passes when it lies within
``DEFAULT_THRESHOLD`` (4) standard errors of zero; identically-zero residuals
(identities that hold pointwise) report a zero standard error and pass
exactly.

The per-chain statistics are computed on blocks of whole chains (about 2^15
values per temporary), so the suite's memory is bounded by the block, not by
the ensemble.  A chain is never split: each per-chain mean is NumPy's pairwise
sum along one row, so the blocked statistics, and the report bytes, are
exactly those of the unblocked formulas.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import qpoly
from .params import Classification, FieldParams
from .simulate import Ensemble

__all__ = [
    "TestEntry",
    "empirical_corr",
    "weak_form_residuals",
    "martingale_residuals",
    "symmetry_checks",
    "standard_suite",
    "build_report",
    "report_json",
    "load_report",
    "n_failures",
]

DEFAULT_THRESHOLD = 4.0
# the fixed battery: correlation lags 1.._K_MAX, weak-form monomials of degree
# <= _DEGREE, eigen rows n = 1.._N_MAX against Q_0.._M_MAX
_K_MAX = 5
_DEGREE = 4
_N_MAX = 4
_M_MAX = 4
# values per temporary in one block of whole chains (see _by_rows)
_BLOCK_ELEMENTS = 2 ** 15


@dataclass(frozen=True)
class TestEntry:
    test_id: str
    statistic: str
    estimate: float
    stderr: float
    threshold: float
    passed: bool


def _gate(test_id: str, statistic: str, per_chain: np.ndarray) -> TestEntry:
    per_chain = np.asarray(per_chain, dtype=float)
    est = float(per_chain.mean())
    if per_chain.size > 1:
        se = float(per_chain.std(ddof=1) / np.sqrt(per_chain.size))
    else:
        se = 0.0
    return TestEntry(test_id=test_id, statistic=statistic, estimate=est,
                     stderr=se, threshold=DEFAULT_THRESHOLD,
                     passed=bool(abs(est) <= DEFAULT_THRESHOLD * se))


def _by_rows(v: np.ndarray, stats) -> list[np.ndarray]:
    """Apply ``stats`` to consecutive blocks of whole chains (rows of ``v``)
    and concatenate each per-chain column it returns over the blocks."""
    rows = max(1, _BLOCK_ELEMENTS // v.shape[1])
    blocks = [stats(v[r:r + rows]) for r in range(0, v.shape[0], rows)]
    return [np.concatenate(col) for col in zip(*blocks)]


def empirical_corr(e: Ensemble, rho: float) -> list[TestEntry]:
    """Lag-k cross moments against rho^k, k = 1..5 (standardized scale,
    so no per-chain studentizing; lag 0 is identically 1 and not gated)."""
    if not _K_MAX < e.n_steps / 10:
        raise ValueError(f"need more than {10 * _K_MAX} steps for lag {_K_MAX}")
    lags = _by_rows(e.values, lambda vb: [(vb[:, :-k] * vb[:, k:]).mean(axis=1)
                                          for k in range(1, _K_MAX + 1)])
    return [_gate(f"corr_k{k}", f"E[x_t x_(t+{k})] - rho^{k}", lag - rho ** k)
            for k, lag in enumerate(lags, start=1)]


_MONOMIALS = [(i, j) for i in range(_DEGREE + 1) for j in range(_DEGREE + 1 - i)]


def weak_form_residuals(e: Ensemble, p: FieldParams) -> list[TestEntry]:
    """Weak-form residuals of the two conditional-moment identities.

    For every monomial g = x^i y^j with i + j <= 4, gates the sample
    means of (X_t - a (X_{t-1} + X_{t+1})) g and
    (X_t^2 - Q(X_{t-1}, X_{t+1})) g over interior triples.  Polynomial test
    functions up to degree 4 are a practical, not a complete, separating
    class.
    """
    if e.n_steps < 3:
        raise ValueError("need at least 3 steps for interior triples")
    a = p.rho / (1.0 + p.rho * p.rho)

    def stats(vb):
        xp, xm, xn = vb[:, :-2], vb[:, 1:-1], vb[:, 2:]
        lin = xm - a * (xp + xn)
        quad = xm * xm - (p.A * (xp * xp + xn * xn) + p.B * xp * xn
                          + p.D * (xp + xn) + p.C)
        # each power once per block; x_(t-1)^i and x_(t+1)^j are its two slices
        pw = [vb ** i for i in range(_DEGREE + 1)]
        cols = []
        for (i, j) in _MONOMIALS:
            g = pw[i][:, :-2] * pw[j][:, 2:]
            cols += [(lin * g).mean(axis=1), (quad * g).mean(axis=1)]
        return cols

    cols = iter(_by_rows(e.values, stats))
    out = []
    for (i, j) in _MONOMIALS:
        out.append(_gate(f"weak_lin_x{i}y{j}",
                         f"E[(x_t - a(x_(t-1)+x_(t+1))) x_(t-1)^{i} x_(t+1)^{j}]",
                         next(cols)))
        out.append(_gate(f"weak_quad_x{i}y{j}",
                         f"E[(x_t^2 - Q(x_(t-1),x_(t+1))) x_(t-1)^{i} x_(t+1)^{j}]",
                         next(cols)))
    return out


def martingale_residuals(e: Ensemble, rho: float, q: float,
                         n_max: int = _N_MAX) -> list[TestEntry]:
    """Gates E[(Q_n(X_{t+1}) - rho^n Q_n(X_t)) Q_m(X_t)] for n = 1..n_max,
    m = 0..4, with the polynomials built at the supplied q."""
    if not 1 <= n_max <= 8:
        raise ValueError("n_max must be in [1, 8]")
    deg = max(n_max, _M_MAX)

    def stats(vb):
        tabs = qpoly.qhermite_table(vb.ravel(), q, deg).reshape(deg + 1, *vb.shape)
        cols = []
        for n in range(1, n_max + 1):
            resid = tabs[n][:, 1:] - rho ** n * tabs[n][:, :-1]
            cols += [(resid * tabs[m][:, :-1]).mean(axis=1) for m in range(_M_MAX + 1)]
        return cols

    cols = iter(_by_rows(e.values, stats))
    return [_gate(f"mart_n{n}_m{m}",
                  f"E[(Q_{n}(x_(t+1)) - rho^{n} Q_{n}(x_t)) Q_{m}(x_t)]",
                  next(cols))
            for n in range(1, n_max + 1) for m in range(_M_MAX + 1)]


def symmetry_checks(e: Ensemble) -> list[TestEntry]:
    """Gates the first and third moments near zero."""
    mean, third = _by_rows(e.values, lambda vb: [vb.mean(axis=1),
                                                 (vb ** 3).mean(axis=1)])
    return [
        _gate("sym_mean", "E[x]", mean),
        _gate("sym_third", "E[x^3]", third),
    ]


def standard_suite(e: Ensemble, p: FieldParams, c: Classification) -> list[TestEntry]:
    """The full verification battery applicable to a classified parameter set.

    Correlation decay, weak-form conditional identities and the symmetry
    moments run for every existing case.  The polynomial eigen-increment
    rows run with the case's deformation parameter; for the scaled two-point
    family only the degree-1 row is an identity (the conditional second
    moment is chain-constant there, so higher rows are genuinely biased for
    non-degenerate radial laws) and the suite gates only that row.
    """
    entries = empirical_corr(e, p.rho) + weak_form_residuals(e, p) + symmetry_checks(e)
    if c.eigen_q is not None:
        entries += martingale_residuals(e, p.rho, c.eigen_q, c.martingale_n_max or _N_MAX)
    return entries


def build_report(entries: list[TestEntry], meta: dict) -> dict:
    """Machine-readable report with stable key order."""
    tests = [
        {
            "id": en.test_id,
            "statistic": en.statistic,
            "estimate": en.estimate,
            "stderr": en.stderr,
            "k": en.threshold,
            "pass": en.passed,
        }
        for en in entries
    ]
    failed = [en.test_id for en in entries if not en.passed]
    return {
        "meta": dict(meta),
        "tests": tests,
        "summary": {"n_fail": len(failed), "failed_ids": failed},
    }


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def load_report(source) -> dict:
    """Read back a report (path, file object or JSON string)."""
    if hasattr(source, "read"):
        return json.load(source)
    text = str(source)
    if text.lstrip().startswith("{"):
        return json.loads(text)
    with open(text, "r") as fh:
        return json.load(fh)


def n_failures(report: dict) -> int:
    return int(report["summary"]["n_fail"])

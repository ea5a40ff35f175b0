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
exactly those of the unblocked formulas.  ``verify_csv`` reads a CSV in blocks
of whole chains planned from its last row, each parsed, checked and reduced in
a process of its own, and gates the joined columns once, so its report bytes do
not depend on the CPU count; a file the plan does not fit is read as one block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import qpoly, simulate
from .params import Classification, FieldParams
from .simulate import Ensemble

__all__ = [
    "TestEntry",
    "weak_form_residuals",
    "martingale_residuals",
    "standard_suite",
    "verify_csv",
    "build_report",
    "report_json",
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
    rows = max(1, _BLOCK_ELEMENTS // max(v.shape[1], 1))  # stats reject 0 steps
    blocks = [stats(v[r:r + rows]) for r in range(0, v.shape[0], rows)]
    return [np.concatenate(col) for col in zip(*blocks)]


def _gates(tests: list[tuple[str, str]], columns: list[np.ndarray]) -> list[TestEntry]:
    return [_gate(test_id, statistic, col)
            for (test_id, statistic), col in zip(tests, columns, strict=True)]


_CORR_TESTS = [(f"corr_k{k}", f"E[x_t x_(t+{k})] - rho^{k}") for k in range(1, _K_MAX + 1)]


def _corr_stats(vb: np.ndarray, rho: float) -> list[np.ndarray]:
    if not _K_MAX < vb.shape[1] / 10:
        raise ValueError(f"need more than {10 * _K_MAX} steps for lag {_K_MAX}")
    return [(vb[:, :-k] * vb[:, k:]).mean(axis=1) - rho ** k for k in range(1, _K_MAX + 1)]


_MONOMIALS = [(i, j) for i in range(_DEGREE + 1) for j in range(_DEGREE + 1 - i)]
_WEAK_TESTS = [test for (i, j) in _MONOMIALS for test in (
    (f"weak_lin_x{i}y{j}", f"E[(x_t - a(x_(t-1)+x_(t+1))) x_(t-1)^{i} x_(t+1)^{j}]"),
    (f"weak_quad_x{i}y{j}", f"E[(x_t^2 - Q(x_(t-1),x_(t+1))) x_(t-1)^{i} x_(t+1)^{j}]"))]


_SYM_TESTS = [("sym_mean", "E[x]"), ("sym_third", "E[x^3]")]


def _times(a, b):
    """a * b, where None stands for a power x^0 = 1, which multiplies nothing."""
    return b if a is None else a if b is None else a * b


def _weak_sym_stats(vb: np.ndarray, p: FieldParams) -> list[np.ndarray]:
    """The weak-form columns of a block, then the two symmetry columns, which read
    the weak form's x^3."""
    if vb.shape[1] < 3:
        raise ValueError("need at least 3 steps for interior triples")
    a = p.rho / (1.0 + p.rho * p.rho)
    xp, xm, xn = vb[:, :-2], vb[:, 1:-1], vb[:, 2:]
    lin = xm - a * (xp + xn)
    quad = xm * xm - (p.A * (xp * xp + xn * xn) + p.B * xp * xn
                      + p.D * (xp + xn) + p.C)
    # each power once per block; x_(t-1)^i and x_(t+1)^j are its two slices, and
    # x^0 = 1 has none
    pw = {i: vb ** i for i in range(1, _DEGREE + 1)}
    xs = {i: w[:, :-2] for i, w in pw.items()}
    ys = {j: w[:, 2:] for j, w in pw.items()}
    cols = []
    for (i, j) in _MONOMIALS:
        g = _times(xs.get(i), ys.get(j))
        cols += [_times(lin, g).mean(axis=1), _times(quad, g).mean(axis=1)]
    return cols + [vb.mean(axis=1), pw[3].mean(axis=1)]


def weak_form_residuals(e: Ensemble, p: FieldParams) -> list[TestEntry]:
    """Weak-form residuals of the two conditional-moment identities.

    For every monomial g = x^i y^j with i + j <= 4, gates the sample
    means of (X_t - a (X_{t-1} + X_{t+1})) g and
    (X_t^2 - Q(X_{t-1}, X_{t+1})) g over interior triples.  Polynomial test
    functions up to degree 4 are a practical, not a complete, separating
    class.
    """
    cols = _by_rows(e.values, partial(_weak_sym_stats, p=p))
    return _gates(_WEAK_TESTS, cols[:len(_WEAK_TESTS)])


def _mart_tests(n_max: int) -> list[tuple[str, str]]:
    return [(f"mart_n{n}_m{m}", f"E[(Q_{n}(x_(t+1)) - rho^{n} Q_{n}(x_t)) Q_{m}(x_t)]")
            for n in range(1, n_max + 1) for m in range(_M_MAX + 1)]


def _mart_stats(vb: np.ndarray, rho: float, q: float, n_max: int) -> list[np.ndarray]:
    deg = max(n_max, _M_MAX)
    tabs = qpoly.qhermite_table(vb.ravel(), q, deg).reshape(deg + 1, *vb.shape)
    cols = []
    for n in range(1, n_max + 1):
        resid = tabs[n][:, 1:] - rho ** n * tabs[n][:, :-1]
        cols += [resid.mean(axis=1)]  # Q_0 = 1
        cols += [(resid * tabs[m][:, :-1]).mean(axis=1) for m in range(1, _M_MAX + 1)]
    return cols


def martingale_residuals(e: Ensemble, rho: float, q: float) -> list[TestEntry]:
    """Gates E[(Q_n(X_{t+1}) - rho^n Q_n(X_t)) Q_m(X_t)] for n = 1..4,
    m = 0..4, with the polynomials built at the supplied q."""
    return _gates(_mart_tests(_N_MAX),
                  _by_rows(e.values, partial(_mart_stats, rho=rho, q=q, n_max=_N_MAX)))


def _battery(p: FieldParams, c: Classification) -> tuple[list[tuple[str, str]], Callable]:
    """standard_suite's (test id, statistic) pairs in report order, and the function
    of a block of whole chains that gives their per-chain columns in that order."""
    sections = [(_CORR_TESTS, partial(_corr_stats, rho=p.rho)),
                (_WEAK_TESTS + _SYM_TESTS, partial(_weak_sym_stats, p=p))]
    if c.eigen_q is not None:
        n_max = c.martingale_n_max or _N_MAX
        sections.append((_mart_tests(n_max),
                         partial(_mart_stats, rho=p.rho, q=c.eigen_q, n_max=n_max)))
    tests = [test for section, _ in sections for test in section]
    return tests, lambda v: [col for _, stats in sections for col in _by_rows(v, stats)]


def standard_suite(e: Ensemble, p: FieldParams, c: Classification) -> list[TestEntry]:
    """The full verification battery applicable to a classified parameter set.

    Correlation decay, weak-form conditional identities and the symmetry
    moments run for every existing case.  The polynomial eigen-increment
    rows run with the case's deformation parameter; for the scaled two-point
    family only the degree-1 row is an identity (the conditional second
    moment is chain-constant there, so higher rows are genuinely biased for
    non-degenerate radial laws) and the suite gates only that row.  The gates
    are taken on the per-chain columns of the ensemble as one block.
    """
    tests, columns = _battery(p, c)
    return _gates(tests, columns(e.values))


def verify_csv(path, p: FieldParams,
               c: Classification) -> tuple[list[TestEntry], int, int]:
    """``standard_suite(read_csv(path), p, c)`` and the CSV's (n_chains, n_steps),
    with the same entries, errors and error order at any CPU count.

    A regular file is read in blocks of whole chains planned from its last row,
    one per usable CPU, each parsed, checked and reduced to the battery's columns
    in a process of its own (see simulate._read_blocks), joined in block order and
    gated here.  A file the plan does not fit, or a pipe, is read as one block.
    """
    tests, columns = _battery(p, c)
    blocks, n_chains, n_steps = simulate._read_blocks(path, columns, simulate._fork_count())
    return _gates(tests, [np.concatenate(col) for col in zip(*blocks)]), n_chains, n_steps


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

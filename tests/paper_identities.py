"""The source paper's proof-step identities and two quadrature oracles, which the
tests read and no pipeline stage runs.

Proof steps, each checked numerically:

- ``two_sided_weights`` (``TwoSidedWeights``): the weights of the linear
  regressions of X_k and X_{k+1} on the two outer neighbours X_{k-1} and
  X_{k+n+1}, which the gap induction substitutes.
- ``gap_second_moment_coeffs`` (``GapCoeffs``): the closed form of
  E(X_k^2 | X_{k-1}, X_{k+n}) at the degenerate parameter point
  (``_degenerate_point``), where q is undefined.
- ``gap_induction_residual``: the induction step that widens the gap from n to
  n + 1 at that point, whose cross coefficient grows like rho^(-n-1); it is the
  nonexistence argument behind ``NonexistentDegenerate``.
- ``forecast_recurrence_check``: the forecast recurrence
  Y_{n+1} = (1 + rho^2) Y_n - rho^2 Y_{n-1} against its closed form
  C1 + C2 rho^(2n).
- ``conditional_moment_residual``: the one-step conditional moments of a
  kernel, E(X_1 | X_0 = y) = rho y and E(X_1^2 | X_0 = y) = alpha1 y^2 + gamma1,
  against the parameter algebra's regression coefficients.

Oracles:

- ``mehler_sum``: the truncated bivariate eigen-series of a ``MehlerQ`` kernel
  in x and y, the density f(x|y) / f_q(x) without the sampler's clamp.
- ``integrate_adaptive``: node-doubling Gauss-Legendre, the tests'
  independent integral against the package's fixed rules and theta ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from qfields import qpoly
from qfields.kernel import MehlerQ, TransitionKernel, _mehler_rows
from qfields.params import FieldParams, _check_rho, regression_coeffs
from qfields.quadrature import QuadratureError, gl_nodes


@dataclass(frozen=True)
class TwoSidedWeights:
    """Projection weights conditioning on X_{k-1} and X_{k+n+1}.

    ``w_left``/``w_right`` reconstruct E(X_k | both), ``w_left_next`` and
    ``w_right_next`` reconstruct E(X_{k+1} | both). At n = 0 both targets
    reduce to the nearest-neighbour mean with symmetric weight rho/(1+rho^2).
    """

    w_left: float
    w_right: float
    w_left_next: float
    w_right_next: float


def two_sided_weights(rho: float, n: int) -> TwoSidedWeights:
    _check_rho(rho)
    if n < 0:
        raise ValueError("n must be nonnegative")
    den = rho ** (n + 2) - rho ** (-(n + 2))
    return TwoSidedWeights(
        w_left=(rho ** (n + 1) - rho ** (-(n + 1))) / den,
        w_right=(rho - 1.0 / rho) / den,
        w_left_next=(rho ** n - rho ** (-n)) / den,
        w_right_next=(rho * rho - rho ** -2) / den,
    )


@dataclass(frozen=True)
class GapCoeffs:
    """Coefficients of E(X_k^2 | X_{k-1}, X_{k+n}) at the degenerate point:
    ``left_sq`` X_{k-1}^2 + ``right_sq`` X_{k+n}^2 + ``cross`` X_{k-1} X_{k+n}."""

    left_sq: float
    right_sq: float
    cross: float


def gap_second_moment_coeffs(rho: float, n: int) -> GapCoeffs:
    _check_rho(rho)
    if n < 1:
        raise ValueError("n must be >= 1")
    rho2 = rho * rho
    r2n = rho2 ** n
    r2n2 = r2n * rho2
    return GapCoeffs(
        left_sq=(1.0 - r2n) / (1.0 - r2n2),
        right_sq=(1.0 - rho2) / (1.0 - r2n2),
        cross=(rho2 - 1.0) * (1.0 - r2n) / (rho ** (n + 1) * (1.0 - r2n2)),
    )


def _degenerate_point(rho: float) -> tuple[float, float]:
    rho2 = rho * rho
    return 1.0 / (1.0 + rho2), (rho2 - 1.0) / (rho2 * (1.0 + rho2))


def gap_induction_residual(rho: float, n: int) -> float:
    """Numerically run the induction step widening the gap from n to n + 1.

    Substitutes the gap-n coefficients and the two-sided projection weights
    into the tower-property identity at the degenerate parameter point,
    solves the resulting linear equation for the gap-(n+1) coefficients and
    returns their maximum deviation from the closed forms.  The cross
    coefficient grows like rho^(-n-1), so each deviation is normalized by
    max(1, |closed-form value|) to keep the check scale-free.
    """
    A, B = _degenerate_point(rho)
    c = gap_second_moment_coeffs(rho, n)
    w = two_sided_weights(rho, n)
    den = 1.0 - A * c.left_sq
    c1 = (A + B * w.w_left_next) / den
    c2 = A * (c.right_sq + c.cross * w.w_right) / den
    c3 = (A * c.cross * w.w_left + B * w.w_right_next) / den
    ref = gap_second_moment_coeffs(rho, n + 1)
    return max(
        abs(c1 - ref.left_sq) / max(1.0, abs(ref.left_sq)),
        abs(c2 - ref.right_sq) / max(1.0, abs(ref.right_sq)),
        abs(c3 - ref.cross) / max(1.0, abs(ref.cross)),
    )


def forecast_recurrence_check(rho: float, y0: float, y1: float, n_max: int) -> float:
    """Iterate Y_{n+1} = (1 + rho^2) Y_n - rho^2 Y_{n-1} against its closed form.

    The closed form is C1 + C2 rho^(2n) with C2 = (y0 - y1)/(1 - rho^2) and
    C1 = -(rho^2 y0 - y1)/(1 - rho^2); returns the max deviation over
    n <= n_max.
    """
    _check_rho(rho)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rho2 = rho * rho
    c2 = (y0 - y1) / (1.0 - rho2)
    c1 = -(rho2 * y0 - y1) / (1.0 - rho2)
    dev = 0.0
    prev, cur = y0, y1
    r2n = rho2
    for _ in range(1, n_max + 1):
        nxt = (1.0 + rho2) * cur - rho2 * prev
        prev, cur = cur, nxt
        r2n *= rho2
        dev = max(dev, abs(cur - (c1 + c2 * r2n)))
    return dev


def conditional_moment_residual(k: TransitionKernel, p: FieldParams, y: float) -> dict:
    """Residuals of the one-step conditional mean and second moment against
    rho*y and alpha1*y^2 + gamma1 from the parameter algebra (D = 0)."""
    rc = regression_coeffs(p)
    mean, second = (float(v) for v in k.expect(y, lambda x: np.vstack([x, x * x])))
    return {
        "r_mean": float(abs(mean - p.rho * y)),
        "r_var": float(abs(second - (rc.alpha1 * y * y + rc.gamma1))),
    }


def mehler_sum(k: MehlerQ, x, y) -> np.ndarray:
    """The bivariate series sum_{n<=N} rho^n Q_n(x) Q_n(y) / [n]_q!
    with shape (len(x), len(y))."""
    return _mehler_rows(k, x, qpoly.qhermite_table(y, k.q, k.truncation))


def integrate_adaptive(f: Callable[[np.ndarray], np.ndarray],
                       a: float, b: float,
                       tol: float = 1e-10,
                       n_start: int = 64,
                       n_max: int = 8192) -> tuple[float, float]:
    """Node-doubling Gauss-Legendre with a Cauchy-difference error estimate.

    Returns (value, error_estimate); raises QuadratureError when doubling up
    to n_max never brings consecutive passes within tol of each other.  f
    must accept node arrays.
    """
    def fixed(n: int) -> float:
        x, w = gl_nodes(a, b, n)
        return float(w @ np.asarray(f(x), dtype=float))

    prev = fixed(n_start)
    n = 2 * n_start
    est = np.inf
    while n <= n_max:
        val = fixed(n)
        est = abs(val - prev)
        if est <= tol * max(1.0, abs(val)):
            return val, est
        prev = val
        n *= 2
    raise QuadratureError("quadrature did not converge", est)

"""One-step Markov transition kernels for the existing cases.

The compact continuous case uses the eigen-expansion kernel
``f(x|y) = f_q(x) * sum_n rho^n Q_n(x) Q_n(y) / [n]_q!``: the one-step
conditional expectation maps Q_n to rho^n Q_n, which the residual operations
certify by a trapezoid ladder in theta that raises when it does not converge
(at a point or a sequence of points, with one q-Hermite table per call and one
ladder per point);
the Gaussian endpoint uses the closed-form AR(1) kernel, the discrete cases a
2x2 stochastic matrix (optionally scaled by a chain-constant radius).

Truncation tails of the series are orthogonal to every retained polynomial
direction, so the spectral residual checks integrate the raw truncated
series; the public pointwise density applies the documented clamp instead.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import qpoly
from .measure import QGaussian, RadialLaw, StdGaussian, MeasureSpec, ScaledTwoPoint, \
    TwoPointSym, density, theta_to_x, theta_weight
from .params import FieldParams, _check_rho, regression_coeffs
from .quadrature import QuadratureError, gh_nodes, integrate_gaussian

__all__ = [
    "TransitionKernel",
    "MehlerQ",
    "GaussianAR1",
    "TwoPointChain",
    "ScaledTwoPointChain",
    "PositivityError",
    "mehler_kernel",
    "transition_density",
    "eigen_residual",
    "conditional_moment_residual",
    "stationarity_residual",
    "two_point_matrix",
    "chapman_kolmogorov_residual",
]


class PositivityError(RuntimeError):
    """Negative kernel values beyond the clamp threshold: the truncation /
    parameter combination cannot represent a positive kernel."""


class TransitionKernel:
    """Base of the one-step kernels, one class per existing case.

    Each case carries its stationary ``law``, the ``eigen_q`` of the monic
    q-Hermite family it maps Q_n -> rho^n Q_n, and ``expect``.  Construction
    requires 0 < |rho| < 1.
    """

    __slots__ = ()

    def __post_init__(self):
        _check_rho(self.rho)

    @property
    def name(self) -> str:
        return type(self).__name__

    def expect(self, y: float, g) -> np.ndarray:
        """Integrals of the rows of g(x), shape (m, len(x)), against f(x | y),
        over the nodes and weights of f(. | y) that ``_rule(y)`` returns."""
        x, p = self._rule(y)
        return np.array([p @ row for row in g(x)])


@dataclass(frozen=True)
class MehlerQ(TransitionKernel):
    rho: float
    q: float
    truncation: int
    tail_estimate: float

    @property
    def law(self) -> QGaussian:
        return QGaussian(self.q)

    @property
    def eigen_q(self) -> float:
        return self.q

    def expect(self, y: float, g) -> np.ndarray:
        n1 = self.truncation + 1
        ky = _mehler_coeffs(self) * qpoly.qhermite_all(y, self.q, self.truncation)
        return _ladder(self, lambda x, wq, tab: g(x) @ (wq * (ky @ tab[:n1])))


@dataclass(frozen=True)
class GaussianAR1(TransitionKernel):
    rho: float

    law = StdGaussian()
    eigen_q = 1.0

    def _rule(self, y: float) -> tuple[np.ndarray, np.ndarray]:
        return gh_nodes(mean=self.rho * y, sd=math.sqrt(1.0 - self.rho * self.rho), n=96)


class _SignChain(TransitionKernel):
    """X = R*Y with the radius R kept and the sign Y kept with probability
    (1 + rho)/2; the one-step law from y is atomic."""

    __slots__ = ()
    eigen_q = -1.0

    def _rule(self, y: float) -> tuple[np.ndarray, np.ndarray]:
        r = abs(y)
        if r == 0.0:
            return np.array([0.0]), np.array([1.0])
        s = math.copysign(1.0, y)
        return np.array([s * r, -s * r]), np.array([(1.0 + self.rho) / 2.0, (1.0 - self.rho) / 2.0])


@dataclass(frozen=True)
class TwoPointChain(_SignChain):
    rho: float

    law = TwoPointSym()

    def _rule(self, y: float) -> tuple[np.ndarray, np.ndarray]:
        if y not in (-1.0, 1.0):
            raise ValueError("two-point chain states are +/-1")
        return super()._rule(y)


@dataclass(frozen=True)
class ScaledTwoPointChain(_SignChain):
    rho: float
    radial: RadialLaw

    @property
    def law(self) -> ScaledTwoPoint:
        return ScaledTwoPoint(self.radial)


_Q_WARN = 0.995
_TOL = _TOL_NEG = 1e-9  # series truncation target; floor of the clamp threshold


def mehler_kernel(rho: float, q: float, truncation: int | None = None) -> MehlerQ:
    """Build the eigen-expansion kernel, choosing the truncation order.

    The order is the smallest N with |rho|^N * max|Q_N|^2 / [N]_q! below _TOL
    on a support grid, capped at the polynomial degree limit.  The stored
    tail estimate is a conservative endpoint-supremum figure; pointwise
    evaluation clamps negatives against a tighter local envelope instead
    (see transition_density).
    """
    _check_rho(rho)  # before the series work that |rho| = 1 would break
    if not -1.0 < q < 1.0:
        raise ValueError("MehlerQ requires q strictly inside (-1, 1); "
                         "the q = 1 endpoint is the closed-form AR(1) kernel")
    if q > _Q_WARN:
        warnings.warn(f"q = {q} close to 1: series truncation degrades; "
                      "consider the Gaussian AR(1) kernel", stacklevel=2)
    cap = qpoly.MAX_DEGREE
    spec = QGaussian(q)
    grid = theta_to_x(spec, np.linspace(0.0, math.pi, 129))
    tab = qpoly.qhermite_table(grid, q, cap)
    sup = np.abs(tab).max(axis=1)
    fact = qpoly.q_factorials(cap, q)
    t = np.abs(rho) ** np.arange(cap + 1) * sup * sup / fact
    if truncation is None:
        n_trunc = cap
        for n in range(4, cap):
            if t[n] < _TOL and t[n + 1] <= t[n]:
                n_trunc = n
                break
    else:
        if not 1 <= truncation <= cap:
            raise ValueError(f"truncation must be in [1, {cap}]")
        n_trunc = truncation
    # conservative endpoint-supremum tail bound; the pointwise clamp decision
    # uses a local last-term estimate instead (see transition_density)
    tail = float(t[n_trunc + 1:].sum() + t[cap] * abs(rho) / (1.0 - abs(rho)))
    return MehlerQ(rho=rho, q=q, truncation=n_trunc, tail_estimate=tail)


def _mehler_coeffs(k: MehlerQ) -> np.ndarray:
    n = np.arange(k.truncation + 1)
    return k.rho ** n / qpoly.q_factorials(k.truncation, k.q)


def mehler_sum(k: MehlerQ, x, y) -> np.ndarray:
    """The bivariate series sum_{n<=N} rho^n Q_n(x) Q_n(y) / [n]_q!
    with shape (len(x), len(y))."""
    qx = qpoly.qhermite_table(x, k.q, k.truncation)
    qx *= _mehler_coeffs(k)[:, None]
    return qx.T @ qpoly.qhermite_table(y, k.q, k.truncation)


def _mehler_sum_and_last(k: MehlerQ, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Series sum plus a local tail envelope: the max magnitude over the
    trailing retained terms (individual polynomials pass through zeros, so a
    single last term underestimates the truncation wobble)."""
    tail_rows = slice(max(1, k.truncation - 7), k.truncation + 1)
    qx = qpoly.qhermite_table(x, k.q, k.truncation)[tail_rows]
    qy = qpoly.qhermite_table(y, k.q, k.truncation)[tail_rows]
    env = np.abs(qx[:, :, None] * qy[:, None, :])
    env *= np.abs(_mehler_coeffs(k)[tail_rows])[:, None, None]
    return mehler_sum(k, x, y), env.max(axis=0)


def transition_density(k: TransitionKernel, x, y: float):
    """Conditional density f(x | y); MehlerQ values are clamped at zero,
    values below -_TOL_NEG raise."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if isinstance(k, GaussianAR1):
        out = _ar1_density(k, xs, y)
    elif isinstance(k, MehlerQ):
        fq = density(k.law, xs)
        total, last = _mehler_sum_and_last(k, xs, np.array([y]))
        out = fq * total[:, 0]
        mask = out < 0.0
        if mask.any():
            r = abs(k.rho)
            local = np.maximum(_TOL_NEG, 10.0 * fq * last[:, 0] * r / (1.0 - r))
            beyond = -out[mask] > local[mask]
            if beyond.any():
                worst = float(out[mask][beyond].min())
                raise PositivityError(
                    f"kernel positivity violation: value {worst:.3e} exceeds the "
                    f"clamp threshold at (rho={k.rho}, q={k.q}, N={k.truncation})")
            out = np.maximum(out, 0.0)
    else:
        raise ValueError(f"{k.name} is atomic and has no transition density")
    return out if np.ndim(x) else float(out[0])


def _ar1_density(k: GaussianAR1, x, y):
    sd2 = 1.0 - k.rho * k.rho
    return np.exp(-0.5 * (x - k.rho * y) ** 2 / sd2) / math.sqrt(2.0 * math.pi * sd2)


# cached theta-space evaluation data per (q, truncation, node count)
_THETA_CACHE: dict = {}
_NODE_LADDER = (128, 256, 512, 1024, 2048)
_LADDER_TOL = 1e-9
_EIGEN_DEGREE_MAX = 12


def _theta_data(k: MehlerQ, n_nodes: int):
    """Nodes x, weights w(theta) d(theta) and Q_0..Q_M(x), M = max(N, _EIGEN_DEGREE_MAX),
    of one trapezoid rung, which converges geometrically on even, 2 pi-periodic,
    analytic integrands.  The kernel reads rows 0..N, the eigen residual row n."""
    key = (k.q, k.truncation, n_nodes)
    if key not in _THETA_CACHE:
        # theta_j = j pi / n, weight pi / n; the endpoints carry none: w vanishes with sin(theta)
        theta = np.arange(1, n_nodes) * (math.pi / n_nodes)
        x = theta_to_x(k.law, theta)
        _THETA_CACHE[key] = (x, (math.pi / n_nodes) * theta_weight(k.law, theta),
                             qpoly.qhermite_table(x, k.q, max(k.truncation, _EIGEN_DEGREE_MAX)))
    return _THETA_CACHE[key]


def _ladder(k: MehlerQ, rung):
    """Node-doubling in theta: rung(x, wq, tab) on each size of _NODE_LADDER
    until two sizes agree within _LADDER_TOL; QuadratureError if none do.
    tab holds Q_0..Q_M on the rung's nodes (see _theta_data)."""
    vals = (rung(*_theta_data(k, n_nodes)) for n_nodes in _NODE_LADDER)
    prev, diff = next(vals), math.inf
    for val in vals:
        diff = float(np.max(np.abs(val - prev)))
        if diff <= _LADDER_TOL * max(1.0, float(np.max(np.abs(val)))):
            return val
        prev = val
    raise QuadratureError(f"theta quadrature did not converge at rho={k.rho:g}, q={k.q:g}, "
                          f"N={k.truncation} by {_NODE_LADDER[-1]} nodes", diff)


def _points(x) -> np.ndarray:
    """The points of a residual call, a scalar or a 1-d sequence, as a 1-d array."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if xs.ndim != 1:
        raise ValueError("residual points must be a scalar or a 1-d sequence")
    return xs


def _per_point(x, out: np.ndarray):
    """A float for a scalar call, the array of residuals for a sequence."""
    return out if np.ndim(x) else float(out[0])


def eigen_residual(k: TransitionKernel, n: int, y):
    """|integral Q_n(x) f(x|y) dx - rho^n Q_n(y)| for the kernel's q, at a point y
    (a float) or at each of a sequence of points (an array); each point runs its
    own quadrature, in order."""
    if not 0 <= n <= _EIGEN_DEGREE_MAX:
        raise ValueError(f"degree n must be in [0, {_EIGEN_DEGREE_MAX}]")
    ys = _points(y)
    if isinstance(k, MehlerQ):
        n1 = k.truncation + 1
        coeffs = _mehler_coeffs(k)
        qy = qpoly.qhermite_table(ys, k.q, max(k.truncation, n))
        vals = []
        for j in range(ys.size):
            ky = coeffs * qy[:n1, j]
            vals.append(_ladder(k, lambda x, wq, tab: tab[n:n + 1] @ (wq * (ky @ tab[:n1])))[0])
    else:
        deg = max(n, 1)
        qy = qpoly.qhermite_table(ys, k.eigen_q, deg)
        vals = [k.expect(yj, lambda x: qpoly.qhermite_table(x, k.eigen_q, deg)[n:n + 1])[0]
                for yj in ys]
    return _per_point(y, np.abs(np.array(vals, dtype=float) - k.rho ** n * qy[n]))


def conditional_moment_residual(k: TransitionKernel, p: FieldParams, y: float) -> dict:
    """Residuals of the one-step conditional mean and second moment against
    rho*y and alpha1*y^2 + gamma1 from the parameter algebra (D = 0)."""
    rc = regression_coeffs(p)
    mean, second = (float(v) for v in k.expect(y, lambda x: np.vstack([x, x * x])))
    return {
        "r_mean": float(abs(mean - p.rho * y)),
        "r_var": float(abs(second - (rc.alpha1 * y * y + rc.gamma1))),
    }


def stationarity_residual(k: TransitionKernel, spec: MeasureSpec, x):
    """|integral f(x|y) d nu(y) - f_nu(x)| for a continuous kernel, at a point x
    (a float) or at each of a sequence of points (an array), in order."""
    if spec != k.law:
        raise ValueError("kernel/measure pair mismatch")
    xs = _points(x)
    if isinstance(k, MehlerQ):
        n1 = k.truncation + 1
        coeffs = _mehler_coeffs(k)
        qx = qpoly.qhermite_table(xs, k.q, k.truncation)
        out = np.empty(xs.size)
        for j, xj in enumerate(xs):
            # one density call per point: a vector call sums its product in other blocks
            fx = density(spec, xj)
            kx = coeffs * qx[:, j]
            out[j] = abs(_ladder(k, lambda y, wq, tab: fx * float(wq @ (kx @ tab[:n1]))) - fx)
        return _per_point(x, out)
    if isinstance(k, GaussianAR1):
        # Gauss-Hermite against the narrower Gaussian factor in y: N(0, 1) with f(x|y)
        # as integrand, or, once rho^2 > 1/2, f(x|.) = N(x/rho, (1 - rho^2)/rho^2)/|rho|
        # with the N(0, 1) density as integrand
        r = k.rho
        if r * r <= 0.5:
            return _per_point(x, np.array([
                abs(integrate_gaussian(lambda yv: _ar1_density(k, xj, yv), n=160)
                    - density(spec, xj)) for xj in xs]))
        sd = math.sqrt(1.0 - r * r) / abs(r)
        return _per_point(x, np.array([
            abs(integrate_gaussian(lambda yv: density(spec, yv), mean=xj / r, sd=sd, n=160)
                / abs(r) - density(spec, xj)) for xj in xs]))
    raise ValueError(f"{k.name} is atomic and has no stationarity residual")


def two_point_matrix(rho: float) -> np.ndarray:
    """Stochastic matrix of the +/-1 chain with linear one-step regression:
    stay (1+rho)/2, flip (1-rho)/2; states ordered (+1, -1)."""
    if not abs(rho) < 1.0:
        raise ValueError("|rho| must be < 1")
    stay = (1.0 + rho) / 2.0
    flip = (1.0 - rho) / 2.0
    return np.array([[stay, flip], [flip, stay]])


def chapman_kolmogorov_residual(k: TransitionKernel, x, z):
    """|integral f(x|y) f(y|z) dy - f_2(x|z)| where f_2 is the kernel with
    rho^2 (same truncation, so the comparison isolates quadrature error), at a
    pair of points (a float) or at each pair of two equal-length sequences (an
    array), in order."""
    xs, zs = _points(x), _points(z)
    if xs.shape != zs.shape:
        raise ValueError("x and z must be two points or two sequences of one length")
    if isinstance(k, GaussianAR1):
        k2 = GaussianAR1(k.rho * k.rho)
        sd = math.sqrt(1.0 - k.rho * k.rho)
        # Gauss-Hermite against f(y|z) = N(rho*z, sd^2) leaves f(x|y) as integrand
        return _per_point(x, np.array([
            abs(integrate_gaussian(lambda yv: _ar1_density(k, xj, yv), mean=k.rho * zj, sd=sd,
                                   n=160) - transition_density(k2, xj, zj))
            for xj, zj in zip(xs, zs)]))
    if not isinstance(k, MehlerQ):
        raise ValueError("Chapman-Kolmogorov check applies to continuous kernels")
    n1 = k.truncation + 1
    coeffs = _mehler_coeffs(k)
    coeffs2 = (k.rho * k.rho) ** np.arange(n1) / qpoly.q_factorials(k.truncation, k.q)
    qxz = qpoly.qhermite_table(np.concatenate([xs, zs]), k.q, k.truncation)
    out = np.empty(xs.size)
    for j, xj in enumerate(xs):
        fx = density(k.law, xj)
        qx, qz = qxz[:, j], qxz[:, xs.size + j]
        kx, kz = coeffs * qx, coeffs * qz
        val = _ladder(k, lambda y, wq, tab: fx * float(wq @ ((kx @ tab[:n1]) * (kz @ tab[:n1]))))
        out[j] = abs(val - fx * float(coeffs2 @ (qx * qz)))
    return _per_point(x, out)

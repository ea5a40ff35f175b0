"""One-step Markov transition kernels for the existing cases.

The compact continuous case uses the eigen-expansion kernel
``f(x|y) = f_q(x) * sum_n rho^n Q_n(x) Q_n(y) / [n]_q!``: the one-step
conditional expectation maps Q_n to rho^n Q_n, which the residual operations
certify by a trapezoid ladder in theta that raises when it does not converge
(at a point or a sequence of points, with one q-Hermite table per call and one
ladder per point, and the eigen residual at a degree or a sequence of degrees).
Each such kernel is built with one grid table, Q_0..Q_64 at theta = j pi / 128,
which chooses its truncation and which the ladder's first rung and the
sampler's conditioning states read again, and with its series coefficients
rho^n / [n]_q!, computed once.  All else the residual operations read depends on
q alone, and they keep it in one bounded store, _THETA_CACHE, one entry per q (see
_QData); mehler_kernel reads the entry of its q when there is one and otherwise
builds its grid table without storing it.  The Gaussian endpoint uses the closed-form
AR(1) kernel, the discrete cases keep the sign with probability (1 + rho)/2
(optionally with a chain-constant radius).

Truncation tails of the series are orthogonal to every retained polynomial
direction, so the spectral residual checks integrate the raw truncated
series; the sampler's conditional tables, the one place the series is used as
a density, clamp its negative values at 0 (see simulate._cell_masses).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import qpoly
from .measure import QGaussian, RadialLaw, StdGaussian, ScaledTwoPoint, TwoPointSym, \
    _put_bounded, density, theta_to_x, theta_weight
from .params import FieldParams, _check_rho, regression_coeffs
from .quadrature import QuadratureError, gh_nodes, integrate_gaussian

__all__ = [
    "TransitionKernel",
    "MehlerQ",
    "GaussianAR1",
    "TwoPointChain",
    "ScaledTwoPointChain",
    "mehler_kernel",
    "eigen_residual",
    "conditional_moment_residual",
    "stationarity_residual",
    "chapman_kolmogorov_residual",
]


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
    """Built by ``mehler_kernel``, which also fills the two read-only arrays:
    ``grid_table``, Q_0..Q_64 at theta = j pi / 128, j = 0..128, and ``coeffs``,
    rho^n / [n]_q! for n = 0..truncation.  Neither takes part in ==, hash or repr."""

    rho: float
    q: float
    truncation: int
    tail_estimate: float
    grid_table: np.ndarray = field(compare=False, repr=False)
    coeffs: np.ndarray = field(compare=False, repr=False)

    @property
    def law(self) -> QGaussian:
        return QGaussian(self.q)

    @property
    def eigen_q(self) -> float:
        return self.q

    def expect(self, y: float, g) -> np.ndarray:
        n1 = self.truncation + 1
        ky = self.coeffs * qpoly.qhermite_table(float(y), self.q, self.truncation)[:, 0]
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
_TOL = 1e-9  # series truncation target
# mehler_kernel tabulates Q_0..Q_64 at theta = j pi / _GRID_INTERVALS, j = 0.._GRID_INTERVALS;
# the ladder's first rung is the inner points of that grid
_GRID_INTERVALS = 128


def mehler_kernel(rho: float, q: float) -> MehlerQ:
    """Build the eigen-expansion kernel, choosing the truncation order.

    The order is the smallest N from 4 up with |rho|^N * max|Q_N|^2 / [N]_q!
    below _TOL and not below the next term, on a support grid, capped at the
    polynomial degree limit.  The stored tail estimate is a conservative
    endpoint-supremum figure.
    """
    _check_rho(rho)  # before the series work that |rho| = 1 would break
    if not -1.0 < q < 1.0:
        raise ValueError("MehlerQ requires q strictly inside (-1, 1); "
                         "the q = 1 endpoint is the closed-form AR(1) kernel")
    if q > _Q_WARN:
        warnings.warn(f"q = {q} close to 1: series truncation degrades; "
                      "consider the Gaussian AR(1) kernel", stacklevel=2)
    cap = qpoly.MAX_DEGREE
    data = _THETA_CACHE.get(q)
    if data is None:  # only the residual calls store an entry
        grid = theta_to_x(QGaussian(q), np.linspace(0.0, math.pi, _GRID_INTERVALS + 1))
        data = _QData(q, qpoly.qhermite_table(grid, q, cap))
    t = np.abs(rho) ** np.arange(cap + 1) * data.sup * data.sup / data.fact
    n_trunc = next((n for n in range(4, cap) if t[n] < _TOL and t[n + 1] <= t[n]), cap)
    tail = float(t[n_trunc + 1:].sum() + t[cap] * abs(rho) / (1.0 - abs(rho)))
    coeffs = rho ** np.arange(n_trunc + 1) / data.fact[:n_trunc + 1]
    coeffs.flags.writeable = False  # shared by every reader, as the grid table is
    return MehlerQ(rho=rho, q=q, truncation=n_trunc, tail_estimate=tail,
                   grid_table=data.grid_table, coeffs=coeffs)


class _QData:
    """The q-only data of one q (see _THETA_CACHE): the grid table, its row suprema
    and [0]_q!..[64]_q!, and what the residual calls fill in: per rung size its nodes,
    weights and Q_0..Q_64 table (see _theta_data), per point set its Q_0..Q_64 table
    (see _point_table) and per point the law's density (see _density).  Every array is
    read-only and shared by its readers."""

    __slots__ = ("grid_table", "sup", "fact", "rungs", "tables", "densities")

    def __init__(self, q: float, grid_table: np.ndarray):
        self.grid_table = grid_table
        self.sup = np.abs(grid_table).max(axis=1)
        self.fact = qpoly.q_factorials(qpoly.MAX_DEGREE, q)
        grid_table.flags.writeable = self.sup.flags.writeable = self.fact.flags.writeable = False
        self.rungs: dict = {}
        self.tables: dict = {}
        self.densities: dict = {}


def mehler_sum(k: MehlerQ, x, y) -> np.ndarray:
    """The bivariate series sum_{n<=N} rho^n Q_n(x) Q_n(y) / [n]_q!
    with shape (len(x), len(y))."""
    return _mehler_rows(k, x, qpoly.qhermite_table(y, k.q, k.truncation))


def _mehler_rows(k: MehlerQ, x, qy: np.ndarray) -> np.ndarray:
    """mehler_sum(k, x, y) from qy = qhermite_table(y, k.q, k.truncation), which a
    caller summing many x against one y tabulates once."""
    qx = qpoly.qhermite_table(x, k.q, k.truncation)
    qx *= k.coeffs[:, None]
    return qx.T @ qy


def _ar1_density(k: GaussianAR1, x, y):
    sd2 = 1.0 - k.rho * k.rho
    return np.exp(-0.5 * (x - k.rho * y) ** 2 / sd2) / math.sqrt(2.0 * math.pi * sd2)


# the q-only data of the residual calls, one _QData per q, keyed by the float q; the
# residual calls make the entries, mehler_kernel only reads them.  At most
# _THETA_CACHE_SIZE q values, the oldest dropped first; per q at most _POINT_TABLES
# point-set tables and _POINT_DENSITIES densities.  Any dict serves as the store
_THETA_CACHE: dict = {}
_THETA_CACHE_SIZE = 8
_POINT_TABLES = 8
_POINT_DENSITIES = 32
_NODE_LADDER = (_GRID_INTERVALS, 256, 512, 1024, 2048)
_LADDER_TOL = 1e-9
_EIGEN_DEGREE_MAX = 12


def _q_data(k: MehlerQ) -> _QData:
    """The store's entry of k.q, made if there is none; its grid table is k's, which
    mehler_kernel computed from q alone."""
    data = _THETA_CACHE.get(k.q)
    if data is None:
        data = _put_bounded(_THETA_CACHE, k.q, _QData(k.q, k.grid_table), _THETA_CACHE_SIZE)
    return data


def _theta_data(k: MehlerQ, n_nodes: int):
    """Nodes x, weights w(theta) d(theta) and Q_0..Q_M(x), M = max(N, _EIGEN_DEGREE_MAX),
    of one trapezoid rung, which converges geometrically on even, 2 pi-periodic,
    analytic integrands.  The kernel reads rows 0..N, the eigen residual row n; the
    table is a row prefix of the rung's Q_0..Q_64, which every kernel at k.q shares."""
    data = _q_data(k)
    rung = data.rungs.get(n_nodes)
    if rung is None:
        # theta_j = j pi / n, weight pi / n; the endpoints carry none: w vanishes with sin(theta)
        theta = np.arange(1, n_nodes) * (math.pi / n_nodes)
        x = theta_to_x(k.law, theta)
        # the first rung's nodes are the inner points of the grid, bit for bit; copied
        # contiguous, so that the products over it see a table of its own
        tab = (np.ascontiguousarray(data.grid_table[:, 1:-1]) if n_nodes == _GRID_INTERVALS
               else qpoly.qhermite_table(x, k.q, qpoly.MAX_DEGREE))
        rung = (x, (math.pi / n_nodes) * theta_weight(k.law, theta), tab)
        for a in rung:
            a.flags.writeable = False
        data.rungs[n_nodes] = rung
    x, wq, tab = rung
    return x, wq, tab[:max(k.truncation, _EIGEN_DEGREE_MAX) + 1]


def _point_table(k: MehlerQ, xs: np.ndarray) -> np.ndarray:
    """Q_0..Q_64 at the points xs of a residual call (see _points), read-only; the
    entry of k.q holds the tables of its last _POINT_TABLES point sets."""
    tables = _q_data(k).tables
    key = xs.tobytes()
    tab = tables.get(key)
    if tab is None:
        tab = qpoly.qhermite_table(xs, k.q, qpoly.MAX_DEGREE)
        tab.flags.writeable = False
        _put_bounded(tables, key, tab, _POINT_TABLES)
    return tab


def _density(k: MehlerQ, x: float) -> float:
    """The law's density at one point, a scalar call (a vector call sums its product in
    other blocks); the entry of k.q holds its last _POINT_DENSITIES."""
    densities = _q_data(k).densities
    fx = densities.get(x)
    if fx is None:
        fx = _put_bounded(densities, x, density(k.law, x), _POINT_DENSITIES)
    return fx


def _ladder(k: MehlerQ, rung):
    """Node-doubling in theta: rung(x, wq, tab) on each size of _NODE_LADDER
    until two sizes agree within _LADDER_TOL; QuadratureError if none do.
    tab holds Q_0..Q_M on the rung's nodes (see _theta_data).  A rung returns a
    float or an array; a NaN in either never agrees."""
    vals = (rung(*_theta_data(k, n_nodes)) for n_nodes in _NODE_LADDER)
    prev, diff = next(vals), math.inf
    for val in vals:
        if isinstance(val, float):
            diff, size = abs(val - prev), abs(val)
        else:
            diff, size = float(np.max(np.abs(val - prev))), float(np.max(np.abs(val)))
        if diff <= _LADDER_TOL * max(1.0, size):
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


def eigen_residual(k: TransitionKernel, n, y):
    """|integral Q_n(x) f(x|y) dx - rho^n Q_n(y)| for the kernel's q, at a point y
    (a float) or at each of a sequence of points (an array), for a degree n or for
    each of a sequence of degrees (a leading axis, equal bit for bit to the stacked
    calls at one degree).  Each degree and point runs its own quadrature, degree by
    degree and in each point by point, so the first that fails to converge raises."""
    degrees = np.atleast_1d(n).tolist()
    if not degrees or not all(0 <= d <= _EIGEN_DEGREE_MAX for d in degrees):
        raise ValueError(f"degree n must be in [0, {_EIGEN_DEGREE_MAX}], or a nonempty "
                         "sequence of such degrees")
    ys = _points(y)
    if isinstance(k, MehlerQ):
        n1 = k.truncation + 1
        qy = _point_table(k, ys)
        kys = [k.coeffs * qy[:n1, j] for j in range(ys.size)]
        dens = {}  # (point, rung size) -> wq * (ky @ tab[:n1]), which every degree reads

        def rung(d, j):
            def at(x, wq, tab):
                if (j, x.size) not in dens:
                    dens[j, x.size] = wq * (kys[j] @ tab[:n1])
                # a one-row product: the rows of a many-row one round differently
                return float((tab[d:d + 1] @ dens[j, x.size])[0])
            return at

        vals = np.array([[_ladder(k, rung(d, j)) for j in range(ys.size)] for d in degrees])
    else:
        deg = max([1, *degrees])
        qy = qpoly.qhermite_table(ys, k.eigen_q, deg)
        vals = np.array([k.expect(yj, lambda x: qpoly.qhermite_table(x, k.eigen_q, deg)[degrees])
                         for yj in ys]).T
    # rho^n as a Python float power per degree: np.power over the degrees can round
    # differently on some CPUs
    out = np.abs(vals - np.array([k.rho ** d for d in degrees])[:, None] * qy[degrees])
    if not np.ndim(n):
        return _per_point(y, out[0])
    return out if np.ndim(y) else out[:, 0]


def conditional_moment_residual(k: TransitionKernel, p: FieldParams, y: float) -> dict:
    """Residuals of the one-step conditional mean and second moment against
    rho*y and alpha1*y^2 + gamma1 from the parameter algebra (D = 0)."""
    rc = regression_coeffs(p)
    mean, second = (float(v) for v in k.expect(y, lambda x: np.vstack([x, x * x])))
    return {
        "r_mean": float(abs(mean - p.rho * y)),
        "r_var": float(abs(second - (rc.alpha1 * y * y + rc.gamma1))),
    }


def stationarity_residual(k: TransitionKernel, x):
    """|integral f(x|y) d nu(y) - f_nu(x)| for a continuous kernel and its
    stationary law nu, at a point x (a float) or at each of a sequence of points
    (an array), in order."""
    xs = _points(x)
    law = k.law
    if isinstance(k, MehlerQ):
        n1 = k.truncation + 1
        qx = _point_table(k, xs)
        out = np.empty(xs.size)
        for j, xj in enumerate(xs):
            fx = _density(k, xj)
            kx = k.coeffs * qx[:n1, j]
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
                    - density(law, xj)) for xj in xs]))
        sd = math.sqrt(1.0 - r * r) / abs(r)
        return _per_point(x, np.array([
            abs(integrate_gaussian(lambda yv: density(law, yv), mean=xj / r, sd=sd, n=160)
                / abs(r) - density(law, xj)) for xj in xs]))
    raise ValueError(f"{k.name} is atomic and has no stationarity residual")


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
                                   n=160) - _ar1_density(k2, xj, zj))
            for xj, zj in zip(xs, zs)]))
    if not isinstance(k, MehlerQ):
        raise ValueError("Chapman-Kolmogorov check applies to continuous kernels")
    n1 = k.truncation + 1
    coeffs2 = (k.rho * k.rho) ** np.arange(n1) / _q_data(k).fact[:n1]
    qxz = _point_table(k, np.concatenate([xs, zs]))
    out = np.empty(xs.size)
    for j, xj in enumerate(xs):
        fx = _density(k, xj)  # kernel-check repeats each x, and its stationarity points
        qx, qz = qxz[:n1, j], qxz[:n1, xs.size + j]
        kx, kz = k.coeffs * qx, k.coeffs * qz
        val = _ladder(k, lambda y, wq, tab: fx * float(wq @ ((kx @ tab[:n1]) * (kz @ tab[:n1]))))
        out[j] = abs(val - fx * float(coeffs2 @ (qx * qz)))
    return _per_point(x, out)

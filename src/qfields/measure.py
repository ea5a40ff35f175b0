"""Stationary one-dimensional laws and their samplers.

The continuum family is the compactly supported symmetric law (indexed by the
deformation parameter q in (-1, 1)) that makes the monic q-Hermite
polynomials orthogonal with squared norms [n]_q!; its q -> 1 endpoint is the
standard Gaussian.  The discrete cases are the symmetric two-point law and
scaled two-point laws R*Y with a user-supplied radial part.

Densities are evaluated through the angle theta = arccos(x / S) with
S = 2/sqrt(1-q): in theta the density is sin(theta) times an infinite
product, a Jacobi theta function.  For |q| < _JACOBI_Q the product is summed
factor by factor in log space; from there on the number of factors grows like
1/(1-|q|), and Jacobi's imaginary transformation gives the log weight in
closed form instead, a few terms per node whatever q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qpoly import q_brackets
from .quadrature import QuadratureError, gl_nodes

__all__ = [
    "MeasureSpec",
    "QGaussian",
    "StdGaussian",
    "TwoPointSym",
    "ScaledTwoPoint",
    "RadialLaw",
    "CdfTable",
    "support",
    "density",
    "moment",
    "cdf_table",
]


class MeasureSpec:
    """Base of the stationary-law variants.

    ``draw(u)`` is the law's inverse-CDF map: it turns ``n_uniforms`` rows of
    uniforms, shape (n_uniforms, n), into n draws.
    """

    __slots__ = ()
    n_uniforms = 1

    @property
    def name(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class QGaussian(MeasureSpec):
    """Compactly supported symmetric law with deformation parameter q in (-1, 1)."""

    q: float

    def __post_init__(self):
        if not -1.0 < self.q < 1.0:
            raise ValueError("q must lie strictly inside (-1, 1)")

    def draw(self, u) -> np.ndarray:
        return cdf_table(self).quantile(u[0])


@dataclass(frozen=True)
class StdGaussian(MeasureSpec):
    q = 1.0  # the q = 1 end of the q-Gaussian family

    def draw(self, u) -> np.ndarray:
        from scipy.special import ndtri

        return ndtri(np.maximum(u[0], np.finfo(float).tiny))


@dataclass(frozen=True)
class TwoPointSym(MeasureSpec):
    """(delta_{-1} + delta_{+1}) / 2, the q = -1 end of the q-Gaussian family."""

    q = -1.0

    def draw(self, u) -> np.ndarray:
        return np.where(u[0] < 0.5, 1.0, -1.0)


@dataclass(frozen=True)
class RadialLaw:
    """Finite nonnegative discrete law with E R^2 = 1; values and probabilities
    must be finite.

    Accepted as a list of (value, probability) pairs.  An atom at zero is
    permitted; the product construction X = R*Y is then one of several
    solutions and reports carry that caveat.
    """

    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.probs) or not self.values:
            raise ValueError("radial law needs matching, nonempty values/probs")
        if not all(math.isfinite(v) for v in (*self.values, *self.probs)):
            raise ValueError("radial values and probabilities must be finite")
        if any(v < 0.0 for v in self.values):
            raise ValueError("radial values must be nonnegative")
        if any(p < 0.0 for p in self.probs):
            raise ValueError("radial probabilities must be nonnegative")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise ValueError("radial probabilities must sum to 1 within 1e-9")
        msq = sum(p * v * v for v, p in zip(self.values, self.probs))
        if abs(msq - 1.0) > 1e-9:
            raise ValueError(f"radial law must satisfy E R^2 = 1 within 1e-9 (got {msq!r})")

    @property
    def has_zero_atom(self) -> bool:
        return any(v == 0.0 and p > 0.0 for v, p in zip(self.values, self.probs))


@dataclass(frozen=True)
class ScaledTwoPoint(MeasureSpec):
    """R*Y: the radius from u[0], the fair sign Y from u[1]."""

    radial: RadialLaw
    n_uniforms = 2

    def draw(self, u) -> np.ndarray:
        cum = np.cumsum(self.radial.probs)
        cum[-1] = 1.0
        r = np.asarray(self.radial.values, dtype=float)[np.searchsorted(cum, u[0], side="right")]
        return r * np.where(u[1] < 0.5, 1.0, -1.0)


def support(spec: MeasureSpec):
    """Interval (lo, hi) for continuous specs, array of atoms otherwise."""
    if isinstance(spec, QGaussian):
        s = 2.0 / math.sqrt(1.0 - spec.q)
        return (-s, s)
    if isinstance(spec, StdGaussian):
        return (-math.inf, math.inf)
    if isinstance(spec, TwoPointSym):
        return np.array([-1.0, 1.0])
    if isinstance(spec, ScaledTwoPoint):
        pts = {-v for v in spec.radial.values} | set(spec.radial.values)
        return np.array(sorted(pts))
    raise TypeError(f"unknown spec {spec!r}")


def _product_terms(q: float, tol: float) -> int:
    """Number of product factors so the running tail factor differs from 1
    by less than tol (factor k deviates by O(q^k); stop at |q|^k < tol/(10 k))."""
    if q == 0.0:
        return 0
    k = 1
    aq = abs(q)
    while aq ** k >= tol / (10.0 * k):
        k += 1
    return k


# columns (theta) per block of the (k, theta) factor matrix, of at most 121 rows (k)
_COL_BLOCK = 512


@lru_cache(maxsize=16)
def _product_factors(q: float, tol: float) -> tuple[np.ndarray, np.ndarray, np.float64]:
    """The q-only factors of _qg_log_weight, read-only: q^k and 1 - q^k as columns,
    k = 1.._product_terms(q, tol), and the sum of log(1 - q^k).  _log_weight asks at
    |q| < _JACOBI_Q only, at most 121 factors at _WEIGHT_TOL."""
    qk = np.power(q, np.arange(1, _product_terms(q, tol) + 1))[:, None]
    one_minus = 1.0 - qk
    qk.flags.writeable = one_minus.flags.writeable = False
    return qk, one_minus, np.log(one_minus).sum()


def _qg_log_weight(q: float, sin_theta: np.ndarray, tol: float) -> np.ndarray:
    """log of sin(theta) * prod(1-q^k) * prod((1-q^k)^2 + 4 q^k sin^2 theta)."""
    out = np.where(sin_theta > 0.0, np.log(np.maximum(sin_theta, 1e-300)), -np.inf)
    qk, one_minus, log_const = _product_factors(q, tol)
    if qk.size == 0:
        return out
    s2 = sin_theta * sin_theta
    # near-equal column widths, at least 2 from 2 nodes up: NumPy sums a width-1 block
    # pairwise, not row by row as it sums a wider one, which changes the last bits
    n, n_col = out.size, max(1, -(-out.size // _COL_BLOCK))
    for c in range(n_col):
        cols = slice(n * c // n_col, n * (c + 1) // n_col)
        out[cols] = (out[cols] + log_const
                     + np.log(one_minus ** 2 + 4.0 * qk * s2[None, cols]).sum(axis=0))
    return out


# from this |q| up the log weight is in closed form, below it _qg_log_weight.  Relative
# to the product summed in 80-bit long double, the closed form is the more accurate from
# q = 0.3 up (6e-16 against 3e-15 to 5e-14) and from q = -0.75 down (2e-15 to 2e-13
# against 4e-15 to 4e-12 at -0.999); 0.75 keeps every |q| <= 0.7, and with it every
# pinned sampler and kernel-check digest at |q| <= 0.5, on the product
_JACOBI_Q = 0.75


def _jacobi_log_weight(beta: float, theta: np.ndarray) -> np.ndarray:
    """log of the weight at q = exp(-beta) and theta in [0, pi/2] by Jacobi's
    imaginary transformation: it is sqrt(pi/(2 beta)) exp(beta/8) times
    sum_m (-1)^m exp(-2(theta - pi/2 + pi m)^2 / beta), of which m = 0, 1, -1, 2
    are kept; the rest are below exp(-4 pi^2 / beta) relative (e^-137 at q = 0.75)."""
    a = 4.0 * math.pi / beta
    with np.errstate(divide="ignore"):  # log 0 = -inf at theta = 0
        return (math.log(0.5 * math.sqrt(2.0 * math.pi / beta)) + beta / 8.0
                - 2.0 * (theta - 0.5 * math.pi) ** 2 / beta
                + np.log(-np.expm1(-a * theta) - np.exp(-a * (math.pi - theta))
                         + np.exp(-a * (2.0 * theta + math.pi))))


def _log_weight(q: float, theta: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(log of sin(theta) times the product, sin(theta)).  The closed forms fold
    theta to min(theta, pi - theta) first, so that the weight vanishes at 0 and
    math.pi and w(theta) == w(pi - theta) bitwise.  At q = -p, b = -ln p, the even-k
    factors are the weight at p^2 (beta = 2b: rounding p*p would cost 1e-11 at
    p = 0.999) and the odd-k ones theta_3(theta, p) (-p; p^2)_inf / (p^2; p^2)_inf.
    Of theta_3 = sqrt(pi/b) sum_m exp(-(theta - pi m)^2 / b) (Poisson summation)
    m = 0, 1 are kept; Dedekind's eta transformation gives the two products' logs,
    pi^2/(24 b) - b/24 and log(pi/b)/2 + b/12 - pi^2/(12 b).  Every omitted term is
    below exp(-pi^2 / b) relative (e^-34 at p = 0.75)."""
    if abs(q) < _JACOBI_Q:
        sin_t = np.sin(theta)
        return _qg_log_weight(q, sin_t, tol), sin_t
    theta = np.minimum(theta, math.pi - theta)
    if q > 0.0:
        return _jacobi_log_weight(-math.log(q), theta), np.sin(theta)
    b = -math.log(-q)
    return (_jacobi_log_weight(2.0 * b, theta) + (math.pi ** 2 / 8.0 - theta * theta) / b
            - b / 8.0 + np.log1p(np.exp(-math.pi * (math.pi - 2.0 * theta) / b))), np.sin(theta)


# truncation tolerance of the log-weight product for densities and the kernel
_WEIGHT_TOL = 1e-12


def density(spec: MeasureSpec, x):
    """Density of a continuous spec at x (vectorized); 0 outside the support."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if isinstance(spec, StdGaussian):
        out = np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
    elif isinstance(spec, QGaussian):
        s = 2.0 / math.sqrt(1.0 - spec.q)
        inside = np.abs(xs) < s  # endpoints are exact zeros of the density
        theta = np.arccos(np.clip(xs / s, -1.0, 1.0))
        logw, sin_t = _log_weight(spec.q, theta, _WEIGHT_TOL)
        pref = math.log(math.sqrt(1.0 - spec.q) / math.pi)
        out = np.where(inside & (sin_t > 0.0), np.exp(pref + logw), 0.0)
    else:
        raise ValueError(f"{spec.name} is atomic and has no density")
    return out if np.ndim(x) else float(out[0])


def theta_weight(spec: QGaussian, theta: np.ndarray, tol: float = _WEIGHT_TOL) -> np.ndarray:
    """Weight w(theta) with x = -S cos(theta): integral of f dx over the
    support equals integral of w d(theta) over [0, pi]."""
    s = 2.0 / math.sqrt(1.0 - spec.q)
    logw, sin_t = _log_weight(spec.q, theta, tol)
    pref = math.log(math.sqrt(1.0 - spec.q) / math.pi)
    return np.exp(pref + logw) * s * np.where(sin_t > 0.0, sin_t, 0.0)


def theta_to_x(spec: QGaussian, theta: np.ndarray) -> np.ndarray:
    s = 2.0 / math.sqrt(1.0 - spec.q)
    return -s * np.cos(theta)


def moment(spec: MeasureSpec, k: int) -> float:
    """k-th moment; odd moments return exactly 0 by symmetry."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > 16:
        raise ValueError("moments above order 16 are outside the accuracy contract")
    if k == 0:
        return 1.0
    if k % 2 == 1:
        return 0.0
    if isinstance(spec, ScaledTwoPoint):
        return float(sum(p * v ** k for v, p in zip(spec.radial.values, spec.radial.probs)))
    if isinstance(spec, (QGaussian, StdGaussian, TwoPointSym)):
        # (J^k)_00 for x Q_n = Q_{n+1} + [n]_q Q_{n-1}: Dyck paths whose down-steps
        # from height h weigh [h]_q (Flajolet 1980), all terms nonnegative; v[h] sums
        # the paths so far ending at height h (none above k/2 can return to 0).  At
        # q = 1, [h]_1 = h gives (k-1)!!; at q = -1, [h]_-1 alternates 1, 0 and gives 1
        br, v = q_brackets(k // 2, spec.q), np.eye(1, k // 2 + 1)[0]
        for _ in range(k):
            v = np.concatenate(([0.0], v[:-1])) + np.append(br[1:] * v[1:], 0.0)
        return float(v[0])
    raise TypeError(f"unknown spec {spec!r}")


@dataclass(frozen=True, eq=False)
class Pchip:
    """Monotone cubic Hermite interpolant (PCHIP, Fritsch-Carlson) on strictly
    increasing breaks x; NaN outside [x[0], x[-1]] and at NaN.

    ``c[:, i]`` holds the cubic, quadratic, linear and constant coefficients
    of interval i in powers of (at - x[i]).  Built by ``pchip``; construction
    and evaluation repeat SciPy's ``PchipInterpolator(x, y,
    extrapolate=False)`` term for term, so the values are bit-identical.
    """

    x: np.ndarray
    c: np.ndarray

    def __call__(self, at):
        at = np.asarray(at, dtype=float)
        x, c = self.x, self.c
        inside = (x[0] <= at) & (at <= x[-1])  # False at NaN
        # x[i] <= at < x[i+1]; the right end belongs to the last interval
        i = np.where(inside, np.minimum(np.searchsorted(x, at, side="right") - 1,
                                        x.size - 2), 0)
        return np.where(inside, _pchip_pieces(x, c, i, at), np.nan)


def _pchip_pieces(x: np.ndarray, c: np.ndarray, i: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The cubic of interval i[j] at at[j], for breaks x and coefficients c laid out
    as ``Pchip``'s (and SciPy's)."""
    s = at - x.take(i)
    ss = s * s
    # SciPy's evaluate_poly1 order, lowest power first: the bits depend on it
    return (((0.0 + c[3].take(i)) + c[2].take(i) * s) + c[1].take(i) * ss
            + c[0].take(i) * (ss * s))


def _pchip_end_slope(h0, h1, m0, m1):
    """Moler's one-sided three-point end slope, kept shape-preserving."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip(x: np.ndarray, y: np.ndarray) -> Pchip:
    """PCHIP through (x, y): weighted harmonic means of the secant slopes
    inside, one-sided end slopes.  Raises ValueError when a slope is not
    finite; coefficients may overflow to inf where an interval is tiny."""
    with np.errstate(all="ignore"):
        h = np.diff(x)
        m = np.diff(y) / h
        if x.size == 2:
            d = np.array([m[0], m[0]])
        else:
            w1 = 2.0 * h[1:] + h[:-1]
            w2 = h[1:] + 2.0 * h[:-1]
            flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
            inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
            d = np.concatenate(([_pchip_end_slope(h[0], h[1], m[0], m[1])], inner,
                                [_pchip_end_slope(h[-1], h[-2], m[-1], m[-2])]))
        if not np.all(np.isfinite(d)):
            raise ValueError("PCHIP slopes are not finite")
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        c = np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))
    return Pchip(x, c)


@dataclass(eq=False)
class CdfTable:
    """Quantile function of a compact law, interpolated from its CDF on a
    cosine-spaced support grid ``x``.

    ``max_error`` records the normalization defect |raw total mass - 1|,
    the dominant error term of the per-cell quadrature.
    """

    x: np.ndarray
    max_error: float
    _quantile: Pchip

    def quantile(self, u):
        us = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        with np.errstate(invalid="ignore"):  # inf * 0 at a left break, pinned below
            out = self._quantile(us)
        # near q = 1 the first intervals of F are so short that their
        # coefficients overflow, and F reaches 1 before the last grid points:
        # the ends are x[0] and x[-1] whatever the interpolant holds there
        out = np.where(us <= 0.0, self.x[0], np.where(us >= 1.0, self.x[-1], out))
        out = np.clip(out, self.x[0], self.x[-1])
        return out if np.ndim(u) else float(out)


# CDF-table grid size and the tolerance of its weight product and mass defect
_CDF_POINTS = 4097
_CDF_TOL = 1e-10
_CELL_NODES = 16
# cdf_table's tables by spec, about 200 KB each; at most _TABLE_CACHE_SIZE, the oldest
# dropped first (see _put_bounded)
_TABLE_CACHE: dict = {}
_TABLE_CACHE_SIZE = 8


def _put_bounded(store: dict, key, value, size: int):
    """store[key] = value for a key not in store, first dropping the oldest entries
    (in insertion order) so that at most size remain; returns value.  Any dict
    serves as the store."""
    while len(store) >= size:
        del store[next(iter(store))]
    store[key] = value
    return value


def theta_cells(edges: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of every cell between consecutive
    theta edges, each of shape (n_cells, n_nodes)."""
    t_ref, w_ref = gl_nodes(0.0, 1.0, n_nodes)
    h = np.diff(edges)
    return edges[:-1, None] + h[:, None] * t_ref, h[:, None] * w_ref


def _strictly_increasing(F: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    keep = np.concatenate(([True], np.diff(F) > 0.0))
    return F[keep], x[keep]


def cdf_table(spec: MeasureSpec) -> CdfTable:
    """Build (and cache, see _TABLE_CACHE) the CDF table of a compact continuous spec.

    Cosine-spaced grid; per-cell Gauss-Legendre in theta (the density
    vanishes like a square root at the endpoints, which the substitution
    renders smooth); a monotone cubic interpolant from F to x.
    """
    if not isinstance(spec, QGaussian):
        raise ValueError("cdf_table requires a compactly supported continuous spec")
    cached = _TABLE_CACHE.get(spec)
    if cached is not None:
        return cached

    theta_grid = np.linspace(0.0, math.pi, _CDF_POINTS)
    x_grid = theta_to_x(spec, theta_grid)
    nodes, weights = theta_cells(theta_grid, _CELL_NODES)
    vals = theta_weight(spec, nodes.ravel(), _CDF_TOL).reshape(nodes.shape)
    cells = (weights * vals).sum(axis=1)
    F = np.concatenate(([0.0], np.cumsum(cells)))
    total = F[-1]
    max_error = abs(total - 1.0)
    if max_error > _CDF_TOL * 1e3:
        raise QuadratureError("CDF normalization defect too large", max_error)
    F = F / total
    F = np.maximum.accumulate(F)
    F[-1] = 1.0
    Fi, xi = _strictly_increasing(F, x_grid)
    try:
        table = CdfTable(x=x_grid, max_error=max_error, _quantile=pchip(Fi, xi))
    except ValueError:
        raise ValueError(
            f"CDF table of QGaussian(q={spec.q:g}) on n_points={_CDF_POINTS} has "
            f"non-finite slopes: the mass near the support ends underflows") from None
    return _put_bounded(_TABLE_CACHE, spec, table, _TABLE_CACHE_SIZE)

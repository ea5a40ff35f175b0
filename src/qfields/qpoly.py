"""q-deformed combinatorics and three-term recurrences.

q-brackets and q-factorials, the monic q-Hermite family ``Q_n`` used as
eigenfunctions of the one-step conditional expectation, the two-parameter
family ``p_n`` orthogonal for the conditional law given one neighbour, and
the positivity scan of its recurrence coefficients (a zero coefficient means
the orthogonality measure has finite support, a negative one that no positive
measure exists).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Forward recurrence is stable inside the support at these degrees; evaluation
# runs in 80-bit extended accumulators and higher degrees are rejected.
MAX_DEGREE = 64
# |c_n| at or below this counts as zero in the positivity scan
_FAVARD_ZERO = 1e-10


def q_bracket(n: int, q: float) -> float:
    """[n]_q = 1 + q + ... + q^(n-1), evaluated by Horner; [0]_q = 0.

    Exact for q = 1 ([n]_1 = n) and q = -1 ([n]_-1 alternates 1, 0).
    """
    return float(q_brackets(n, q)[n])


def q_brackets(n_max: int, q: float) -> np.ndarray:
    """Array of [0]_q .. [n_max]_q via the recurrence [n]_q = q*[n-1]_q + 1."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    out = np.empty(n_max + 1)
    out[0] = 0.0
    for n in range(1, n_max + 1):
        out[n] = out[n - 1] * q + 1.0
    return out


def q_factorial(n: int, q: float) -> float:
    """[n]_q! = prod_{j=1..n} [j]_q; empty product 1 for n = 0."""
    return float(q_factorials(n, q)[n])


def q_factorials(n_max: int, q: float) -> np.ndarray:
    """Array of [0]_q! .. [n_max]_q!."""
    br = q_brackets(n_max, q)
    out = np.empty(n_max + 1)
    out[0] = 1.0
    np.cumprod(br[1:], out=out[1:])
    return out


def qhermite_table(x, q: float, n_max: int) -> np.ndarray:
    """Evaluate Q_0..Q_{n_max} at the points ``x``.

    Monic recurrence Q_0 = 1, Q_1 = x, Q_{n+1} = x Q_n - [n]_q Q_{n-1},
    run in extended precision on three rolling rows, each rounded to float64
    once as it is stored. Returns an array of shape (n_max+1, len(x)).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max > MAX_DEGREE:
        raise ValueError(f"degree {n_max} exceeds supported maximum {MAX_DEGREE}")
    xs = np.atleast_1d(np.asarray(x, dtype=np.longdouble))
    tab = np.empty((n_max + 1, xs.size))
    tab[0] = 1.0
    if n_max >= 1:
        tab[1] = xs
    prev, cur, nxt = np.ones_like(xs), xs.copy(), np.empty_like(xs)  # Q_{n-1}, Q_n, Q_{n+1}
    br = np.longdouble(0.0)
    qq = np.longdouble(q)
    for n in range(1, n_max):
        br = br * qq + 1.0  # [n]_q
        np.multiply(xs, cur, out=nxt)
        prev *= br  # Q_{n-1} is not read again
        nxt -= prev
        tab[n + 1] = nxt
        prev, cur, nxt = cur, nxt, prev
    return tab


def qhermite_all(x: float, q: float, n_max: int) -> np.ndarray:
    """Q_0(x)..Q_{n_max}(x) at a single point."""
    return qhermite_table(float(x), q, n_max)[:, 0]


def asc_table(x, y: float, rho: float, q: float, n_max: int) -> np.ndarray:
    """Evaluate p_0..p_{n_max} at ``x`` for the conditional-law family.

    p_0 = 1, p_1 = x - rho*y,
    p_{n+1} = (x - rho*y*q^n) p_n - (1 - rho^2 q^{n-1}) [n]_q p_{n-1}.
    At rho -> 0 the family degenerates to the q-Hermite polynomials.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max > MAX_DEGREE:
        raise ValueError(f"degree {n_max} exceeds supported maximum {MAX_DEGREE}")
    xs = np.atleast_1d(np.asarray(x, dtype=np.longdouble))
    tab = np.empty((n_max + 1, xs.size), dtype=np.longdouble)
    tab[0] = 1.0
    if n_max >= 1:
        tab[1] = xs - np.longdouble(rho) * np.longdouble(y)
    br = np.longdouble(0.0)
    qq = np.longdouble(q)
    qn = np.longdouble(1.0)  # q^{n-1}
    rr = np.longdouble(rho)
    yy = np.longdouble(y)
    for n in range(1, n_max):
        br = br * qq + 1.0  # [n]_q
        tab[n + 1] = (xs - rr * yy * qn * qq) * tab[n] - (1.0 - rr * rr * qn) * br * tab[n - 1]
        qn *= qq
    return tab.astype(np.float64)


def asc_all(x: float, y: float, rho: float, q: float, n_max: int) -> np.ndarray:
    """p_0(x)..p_{n_max}(x) at a single point."""
    return asc_table(float(x), y, rho, q, n_max)[:, 0]


def asc_coefficient(n: int, rho: float, q: float) -> float:
    """Product coefficient c_n = (1 - rho^2 q^{n-1}) [n]_q of the recurrence."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (1.0 - rho * rho * q ** (n - 1)) * q_bracket(n, q)


class FavardVerdict:
    """Outcome of scanning the recurrence coefficients c_n for positivity."""

    __slots__ = ()

    @property
    def name(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class AllPositive(FavardVerdict):
    pass


@dataclass(frozen=True)
class TerminatesAt(FavardVerdict):
    n0: int
    m: int | None = None  # detected lattice order, when q matches (rho^2)^(-1/m)


@dataclass(frozen=True)
class FailsAt(FavardVerdict):
    n0: int


def favard_scan(rho: float, q: float, n_max: int) -> FavardVerdict:
    """Scan c_n = (1 - rho^2 q^{n-1}) [n]_q for n = 1..n_max in order.

    First |c_n| <= 1e-10 wins TerminatesAt (finitely supported measure), first
    c_n < -1e-10 wins FailsAt (no positive measure), otherwise AllPositive.
    For q in (-1, 1] every coefficient is bounded below by (1 - rho^2)
    times a positive bracket, so the scan is guaranteed AllPositive there.
    For q > 1, c_n < 0 from n = 2 + floor(ln(rho^-2) / ln q) on, so AllPositive
    is never the answer there: a scan that ends undecided raises ValueError naming n.
    """
    if not 0.0 < abs(rho) < 1.0:
        raise ValueError("rho must satisfy 0 < |rho| < 1")
    if not math.isfinite(q):  # a NaN coefficient compares false both ways
        raise ValueError(f"q must be finite, got {q}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rho2 = rho * rho
    br = 0.0
    qpow = 1.0  # q^{n-1}
    for n in range(1, n_max + 1):
        br = br * q + 1.0
        c = (1.0 - rho2 * qpow) * br
        if abs(c) <= _FAVARD_ZERO:
            m = None
            if n >= 2:
                m_cand = n - 1
                if abs(q - rho2 ** (-1.0 / m_cand)) <= 1e-6 * max(1.0, abs(q)):
                    m = m_cand
            return TerminatesAt(n0=n, m=m)
        if c < -_FAVARD_ZERO:
            return FailsAt(n0=n)
        qpow *= q
    if q > 1.0:
        n_neg = 2 + math.floor(math.log(1.0 / rho2) / math.log(q))
        raise ValueError(f"scan undecided by n_max = {n_max}: at q = {q!r} > 1 the "
                         f"coefficients turn negative at n = {n_neg}")
    return AllPositive()

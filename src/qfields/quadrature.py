"""Quadrature helpers: Gauss-Legendre for the per-cell theta integrals of the
CDF and conditional tables (and, node-doubling, the tests' oracle), where the
substitution absorbs the square-root vanishing of the compact densities; the
kernel's residual checks run their own trapezoid ladder in theta.
Gauss-Hermite handles the unbounded Gaussian cases exactly on polynomials.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np


class QuadratureError(RuntimeError):
    """Non-convergence; carries the achieved error estimate."""

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (achieved error estimate {estimate:.3e})")
        self.estimate = estimate


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gl_nodes(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    x, w = _leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


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


@lru_cache(maxsize=16)
def _hermegauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    # probabilists' weight exp(-t^2/2); weights sum to sqrt(2*pi)
    t, w = np.polynomial.hermite_e.hermegauss(n)
    return t, w / np.sqrt(2.0 * np.pi)


def gh_nodes(mean: float = 0.0, sd: float = 1.0,
             n: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights for the N(mean, sd^2) density."""
    t, w = _hermegauss(n)
    return mean + sd * t, w


def integrate_gaussian(f: Callable[[np.ndarray], np.ndarray],
                       mean: float = 0.0, sd: float = 1.0, n: int = 64) -> float:
    """Integral of f against the N(mean, sd^2) density via Gauss-Hermite.

    Exact for polynomial f of degree < 2n.
    """
    x, w = gh_nodes(mean, sd, n)
    return float(w @ np.asarray(f(x), dtype=float))

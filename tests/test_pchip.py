"""Bitwise oracle: ``measure.pchip`` against SciPy's PchipInterpolator.

The package's PCHIP repeats the arithmetic of
``scipy.interpolate.PchipInterpolator(x, y, extrapolate=False)`` term for
term, so the sampler tables built with it are bit-identical to the ones
SciPy would build.  These tests hold it to that on the inputs the package
produces (the conditional-table rows and the CDF table's quantile rows), on
out-of-range, endpoint and NaN evaluation points, on 2- and 3-point data,
and on the rows near q = 1 where the slopes stop being finite.  The table
build reads each conditional row on its u-grid by counting, not searching;
that reader is held to SciPy's evaluation on the same rows and on breaks
that share a u-cell, sit on a level or lie one ulp inside the ends.
"""

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from qfields import measure, simulate
from qfields.kernel import mehler_kernel
from qfields.measure import Pchip, QGaussian, cdf_table, pchip


def assert_bitwise(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def assert_same_as_scipy(x, y, at):
    """Both raise, or both build and agree bit for bit at ``at``."""
    try:
        with np.errstate(all="ignore"):
            want = PchipInterpolator(x, y, extrapolate=False)
    except ValueError:
        with pytest.raises(ValueError):
            pchip(x, y)
        return False
    with np.errstate(all="ignore"):
        assert_bitwise(pchip(x, y)(at), want(at))
    return True


def _probes(x, rng):
    """Random interior points, every break near both ends, points outside
    the range on both sides, and NaN."""
    lo, hi = x[0], x[-1]
    return np.concatenate([rng.uniform(lo, hi, 400), x[:24], x[-24:],
                           [lo - 1.0, hi + 1.0, np.nextafter(lo, -np.inf),
                            np.nextafter(hi, np.inf), -np.inf, np.inf, np.nan]])


def _recorded_rows(module, build, monkeypatch):
    """The (x, y) data of every interpolant ``build()`` makes through
    ``module.pchip``; data whose slopes are not finite is recorded too and
    the build goes on past it with an interpolant that is NaN wherever it is
    read, called or through its breaks and coefficients (on a private table
    cache)."""
    rows = []

    def record(x, y):
        rows.append((x, y))
        try:
            return pchip(x, y)
        except ValueError:
            return Pchip(x, np.full((4, x.size - 1), np.nan))

    monkeypatch.setattr(module, "pchip", record)
    monkeypatch.setattr(measure, "_TABLE_CACHE", {})
    build()
    return rows


def _conditional_rows(rho, q, monkeypatch):
    return _recorded_rows(simulate, lambda: simulate._build_conditional_tables(
        mehler_kernel(rho, q)), monkeypatch)


def _cdf_rows(q, monkeypatch):
    """[(F, x)] of the CDF table: its quantile direction."""
    return _recorded_rows(measure, lambda: cdf_table(QGaussian(q)), monkeypatch)


@pytest.mark.parametrize("rho,q", [(0.5, 0.5), (-0.8, -0.9), (0.3, 0.0), (0.95, 0.9),
                                   (-0.5, 0.5), (0.8, 0.8), (0.5, -0.5)])
def test_conditional_rows_bitwise(rho, q, monkeypatch):
    rows = _conditional_rows(rho, q, monkeypatch)
    assert len(rows) == simulate._N_Y
    u_grid = np.linspace(0.0, 1.0, simulate._N_U)
    for x, y in rows:
        assert assert_same_as_scipy(x, y, u_grid)
        assert_u_grid_reader_as_scipy(x, y)


def assert_u_grid_reader_as_scipy(x, y):
    """The table build's reader of the u-grid, on the package's interpolant and on
    SciPy's, is bit for bit SciPy's evaluation there."""
    u_grid = np.linspace(0.0, 1.0, simulate._N_U)
    with np.errstate(all="ignore"):
        want = PchipInterpolator(x, y, extrapolate=False)
        assert_bitwise(simulate._on_u_grid(pchip(x, y), u_grid), want(u_grid))
        assert_bitwise(simulate._on_u_grid(want, u_grid), want(u_grid))


def test_u_grid_levels_are_exact():
    # the reader's premise: level k of the u-grid is k / (_N_U - 1) to the bit
    n = simulate._N_U
    assert np.array_equal(np.linspace(0.0, 1.0, n) * (n - 1), np.arange(n))


# (x, y) with breaks x running from 0 to 1, as a conditional CDF row's do; y is flat
# across the two tiny intervals, whose slopes would not be finite otherwise
U_GRID_ROWS = {
    "two breaks": ([0.0, 1.0], [-1.5, 1.5]),
    "five in one u-cell": ([0.0] + [0.3 + k * 8e-6 for k in range(1, 6)] + [1.0],
                           [-1.4, -0.3, -0.2, 0.1, 0.0, 0.2, 1.4]),
    "on levels": ([0.0, 7 / 4096, 0.5, 3071 / 4096, 1.0], [-1.0, -0.9, 0.0, 0.6, 1.0]),
    "extreme": ([0.0, 5e-324, 0.5, 1.0 - 2.0 ** -53, 1.0], [-1.0, -1.0, 0.2, 1.0, 1.0]),
}


@pytest.mark.parametrize("name", list(U_GRID_ROWS))
def test_u_grid_reader_rows(name):
    assert_u_grid_reader_as_scipy(*(np.array(a) for a in U_GRID_ROWS[name]))


def test_conditional_rows_near_q_one_raise_alike(monkeypatch):
    rows = _conditional_rows(0.5, 0.99, monkeypatch)
    u_grid = np.linspace(0.0, 1.0, simulate._N_U)
    built = [assert_same_as_scipy(x, y, u_grid) for x, y in rows]
    assert not all(built)  # the refusal at q = 0.99 comes from these rows


def test_tables_match_scipy_built_tables(monkeypatch):
    want = simulate._build_conditional_tables(mehler_kernel(0.5, 0.5))
    monkeypatch.setattr(simulate, "pchip",
                        lambda x, y: PchipInterpolator(x, y, extrapolate=False))
    got = simulate._build_conditional_tables(mehler_kernel(0.5, 0.5))
    assert_bitwise(got.quantiles, want.quantiles)


@pytest.mark.parametrize("q", [-0.99, -0.9, -0.5, 0.0, 0.5, 0.9, 0.98, 0.985])
def test_cdf_table_quantile_bitwise(q, monkeypatch):
    [(Fi, xi)] = _cdf_rows(q, monkeypatch)
    rng = np.random.default_rng(7)
    u = np.concatenate([_probes(Fi, rng), [0.0, 1.0, 1e-300, 5e-324]])
    assert assert_same_as_scipy(Fi, xi, u)


def test_cdf_table_near_q_one_raises_alike(monkeypatch):
    built = [assert_same_as_scipy(x, y, np.linspace(x[0], x[-1], 101))
             for x, y in _cdf_rows(0.99, monkeypatch)]
    assert built == [False]  # the quantile direction's slopes overflow


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", range(12))
def test_few_points_bitwise(n, seed):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(-2.0, 2.0, n))
    # monotone, non-monotone and flat data
    y = [np.sort(rng.normal(size=n)), rng.normal(size=n), np.full(n, 0.5)][seed % 3]
    assert assert_same_as_scipy(x, y, _probes(x, rng))


def test_scalar_and_shape():
    x, y = np.array([0.0, 1.0, 3.0]), np.array([0.0, 2.0, 2.5])
    f = pchip(x, y)
    assert f(3.0).shape == ()
    assert float(f(3.0)) == 2.5
    assert np.isnan(f(3.5))
    assert f(np.zeros((2, 3))).shape == (2, 3)

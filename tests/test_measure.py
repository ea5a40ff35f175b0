import math

import numpy as np
import pytest

from qfields import measure, qpoly
from qfields.measure import (QGaussian, RadialLaw, ScaledTwoPoint,
                             StdGaussian, TwoPointSym, cdf_table, density,
                             moment, support)
from qfields.quadrature import integrate_adaptive


def semicircle_cdf(x):
    """Closed form for the variance-1 semicircle on [-2, 2] (vectorized)."""
    return 0.5 + x * np.sqrt(4.0 - x * x) / (4.0 * math.pi) + np.arcsin(x / 2.0) / math.pi


def quadrature_cdf(spec: QGaussian, x: float) -> float:
    """F(x) by adaptive quadrature of the weight over theta in [0, arccos(-x/S)],
    independent of the CDF table's grid and interpolant."""
    theta = math.acos(-x / support(spec)[1])
    val, _ = integrate_adaptive(lambda th: measure.theta_weight(spec, th), 0.0, theta, tol=1e-12)
    return val


class TestDensity:
    def test_semicircle_values(self):
        s = QGaussian(0.0)
        assert density(s, 0.0) == pytest.approx(1.0 / math.pi, abs=1e-12)
        assert density(s, 1.0) == pytest.approx(math.sqrt(3.0) / (2.0 * math.pi), abs=1e-12)
        assert density(s, 2.0) == 0.0
        assert density(s, -2.0) == 0.0
        assert density(s, 2.5) == 0.0

    def test_semicircle_closed_form_on_grid(self):
        s = QGaussian(0.0)
        xs = np.linspace(-1.99, 1.99, 101)
        ref = np.sqrt(4.0 - xs * xs) / (2.0 * math.pi)
        assert np.allclose(density(s, xs), ref, atol=1e-12)

    def test_gaussian_density(self):
        assert density(StdGaussian(), 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-15)

    @pytest.mark.parametrize("q", [-0.5, 0.0, 0.5, 0.9])
    def test_nonnegative_and_normalized(self, q):
        s = QGaussian(q)
        lo, hi = support(s)
        xs = np.linspace(lo, hi, 10_000)
        fs = density(s, xs)
        assert np.all(fs >= 0.0)
        val, _ = integrate_adaptive(lambda th: measure.theta_weight(s, th),
                                    0.0, math.pi, tol=1e-12)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_q_to_one_continuity(self):
        # near the Gaussian endpoint the central density approaches 1/sqrt(2 pi)
        f0 = density(QGaussian(0.999), 0.0)
        assert f0 == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=0.01)

    def test_atomic_rejected(self):
        with pytest.raises(ValueError):
            density(TwoPointSym(), 0.5)

    def test_q_range_enforced(self):
        with pytest.raises(ValueError):
            QGaussian(1.0)
        with pytest.raises(ValueError):
            QGaussian(-1.0)


class TestSupport:
    def test_semicircle(self):
        assert support(QGaussian(0.0)) == (-2.0, 2.0)

    def test_q_half(self):
        lo, hi = support(QGaussian(0.5))
        assert hi == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
        assert lo == -hi

    def test_gaussian_unbounded(self):
        lo, hi = support(StdGaussian())
        assert lo == -math.inf and hi == math.inf

    def test_two_point_atoms(self):
        assert list(support(TwoPointSym())) == [-1.0, 1.0]

    def test_scaled_atoms(self):
        radial = RadialLaw(values=(math.sqrt(2.0), 0.0), probs=(0.5, 0.5))
        atoms = support(ScaledTwoPoint(radial))
        assert list(atoms) == [-math.sqrt(2.0), 0.0, math.sqrt(2.0)]


class TestMoment:
    @pytest.mark.parametrize("q", [-0.5, 0.0, 0.5, 0.9])
    def test_odd_exact_zero(self, q):
        assert moment(QGaussian(q), 1) == 0.0
        assert moment(QGaussian(q), 7) == 0.0

    @pytest.mark.parametrize("q", [-0.5, 0.0, 0.5, 0.9])
    def test_unit_variance(self, q):
        assert moment(QGaussian(q), 2) == pytest.approx(1.0, abs=1e-8)

    def test_semicircle_kurtosis(self):
        # Catalan number C_2 = 2 for the variance-1 semicircle
        assert moment(QGaussian(0.0), 4) == pytest.approx(2.0, abs=1e-8)

    def test_semicircle_sixth(self):
        assert moment(QGaussian(0.0), 6) == pytest.approx(5.0, abs=1e-8)  # C_3

    def test_gaussian_fourth(self):
        assert moment(StdGaussian(), 4) == pytest.approx(3.0, abs=1e-10)

    @pytest.mark.parametrize("k", range(2, 17, 2))
    def test_family_ends_exact(self, k):
        # q = 1 and q = -1 ends of the Dyck-path sum: (k-1)!! and the +-1 law's 1
        assert moment(StdGaussian(), k) == math.prod(range(1, k, 2))
        assert moment(TwoPointSym(), k) == 1.0

    def test_atomic(self):
        assert moment(TwoPointSym(), 2) == 1.0
        radial = RadialLaw(values=(math.sqrt(2.0), 0.0), probs=(0.5, 0.5))
        assert moment(ScaledTwoPoint(radial), 4) == pytest.approx(2.0, abs=1e-14)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            moment(QGaussian(0.0), 18)

    def test_semicircle_catalan_exact(self):
        for k in range(0, 9):
            assert moment(QGaussian(0.0), 2 * k) == _catalan(k)

    @pytest.mark.parametrize("q", [-0.9, -0.5, 0.0, 0.5, 0.9, 0.98])
    def test_matches_quadrature_oracle(self, q):
        s = QGaussian(q)
        for k in range(2, 17, 2):
            quad, _ = integrate_adaptive(
                lambda th: measure.theta_to_x(s, th) ** k * measure.theta_weight(s, th),
                0.0, math.pi, tol=1e-12)
            assert moment(s, k) == pytest.approx(quad, rel=1e-12)


def _catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def _semicircle_pair_integral(m: int, n: int) -> float:
    """Exact integral of Q_m Q_n against the semicircle via coefficient
    convolution and Catalan moments; independent of any quadrature."""
    coeffs = [np.array([1.0]), np.array([0.0, 1.0])]
    for j in range(1, max(m, n)):
        nxt = np.zeros(j + 2)
        nxt[1:] += coeffs[j]
        nxt[: j] -= qpoly.q_brackets(j, 0.0)[j] * coeffs[j - 1]
        coeffs.append(nxt)
    prod = np.convolve(coeffs[m], coeffs[n])
    total = 0.0
    for power, c in enumerate(prod):
        if power % 2 == 0 and c != 0.0:
            total += c * _catalan(power // 2)
    return total


class TestOrthogonalityOracle:
    def test_exact_catalan_route_matches_quadrature(self):
        s = QGaussian(0.0)
        for m in range(0, 7):
            for n in range(m, 7):
                exact = _semicircle_pair_integral(m, n)
                f = lambda th: (qpoly.qhermite_table(measure.theta_to_x(s, th), 0.0, n)[m]
                                * qpoly.qhermite_table(measure.theta_to_x(s, th), 0.0, n)[n]
                                * measure.theta_weight(s, th))
                quad, _ = integrate_adaptive(f, 0.0, math.pi, tol=1e-12)
                assert quad == pytest.approx(exact, abs=1e-10)
                expected = 1.0 if m == n else 0.0  # [n]_0! = 1
                assert exact == pytest.approx(expected, abs=1e-12)


class TestCdfTable:
    def test_midpoint_and_endpoint(self):
        t = cdf_table(QGaussian(0.0))
        assert t.quantile(0.5) == pytest.approx(0.0, abs=1e-10)
        assert t.quantile(1.0) == 2.0
        assert t.quantile(0.0) == -2.0

    def test_closed_form_interior(self):
        t = cdf_table(QGaussian(0.0))
        for x in (-1.5, -0.3, 0.7, 1.0, 1.9):
            assert t.quantile(semicircle_cdf(x)) == pytest.approx(x, abs=1e-8)

    def test_quantile_round_trip(self):
        s = QGaussian(0.5)
        t = cdf_table(s)
        for c in (-0.95, -0.7, -0.3, 0.0, 0.2, 0.6, 0.95):
            x = c * support(s)[1]
            assert t.quantile(quadrature_cdf(s, x)) == pytest.approx(x, abs=1e-8)

    def test_monotone(self):
        t = cdf_table(QGaussian(0.9))
        assert np.all(np.diff(t.quantile(np.linspace(0.0, 1.0, 100_001))) >= 0.0)
        assert t.max_error <= 1e-10

    def test_unbounded_rejected(self):
        with pytest.raises(ValueError):
            cdf_table(StdGaussian())

    def test_cache_bounded_oldest_dropped_first(self, monkeypatch):
        # one more spec than the bound drops the first; rebuilt, its table is the same
        monkeypatch.setattr(measure, "_TABLE_CACHE", {})
        specs = [QGaussian(q) for q in np.linspace(-0.8, 0.8, measure._TABLE_CACHE_SIZE + 1)]
        u = np.linspace(0.0, 1.0, 257)
        first = cdf_table(specs[0])
        for spec in specs[1:]:
            cdf_table(spec)
        assert list(measure._TABLE_CACHE) == specs[1:]
        again = cdf_table(specs[0])
        assert again is not first and list(measure._TABLE_CACHE) == specs[2:] + specs[:1]
        assert again.quantile(u).tobytes() == first.quantile(u).tobytes()
        assert again.max_error == first.max_error


class TestCdfTableNearQOne:
    # n_points: the grid size the refusal names, the fixed CDF grid
    @pytest.mark.parametrize("q,n_points", [(0.99, 4097)])
    def test_named_error(self, q, n_points):
        with pytest.raises(ValueError, match=rf"q={q:g}\) on n_points={n_points}") as err:
            cdf_table(QGaussian(q))
        assert "dydx" not in str(err.value)

    def test_named_error_q0999_default_grid(self):
        # ~3e4 product factors at q = 0.999; the closed-form weight refuses it as cheaply
        with pytest.raises(ValueError, match=r"q=0\.999\) on n_points=4097") as err:
            cdf_table(QGaussian(0.999))
        assert "dydx" not in str(err.value)

    @pytest.mark.parametrize("q", [0.9, 0.95, 0.98, 0.985])
    def test_quantile_finite_including_ends(self, q):
        t = cdf_table(QGaussian(q))
        u = np.concatenate(([0.0], np.linspace(0.0, 1.0, 1001), [1.0]))
        x = t.quantile(u)
        assert np.all(np.isfinite(x))
        assert x[0] == t.quantile(0.0) == t.x[0]
        assert np.all(np.diff(x) >= 0.0)

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.95, 0.98])
    def test_quantile_reaches_right_end(self, q):
        t = cdf_table(QGaussian(q))
        assert t.quantile(1.0) == t.x[-1]
        assert t.quantile(np.array([0.0, 1.0])).tolist() == [t.x[0], t.x[-1]]

    def test_pinned_left_end_is_the_interpolant_value(self):
        # where the coefficients are finite the pin changes nothing
        t = cdf_table(QGaussian(0.5))
        assert t._quantile(0.0) == t.x[0] == t.quantile(0.0)


class TestRadialLaw:
    def test_accepts_unit_second_moment(self):
        r = RadialLaw(values=(math.sqrt(2.0), 0.0), probs=(0.5, 0.5))
        assert r.has_zero_atom

    def test_rejects_bad_second_moment(self):
        with pytest.raises(ValueError):
            RadialLaw(values=(1.5, 0.0), probs=(0.5, 0.5))

    def test_rejects_bad_probs(self):
        with pytest.raises(ValueError):
            RadialLaw(values=(1.0,), probs=(0.7,))
        with pytest.raises(ValueError):
            RadialLaw(values=(1.0, 1.0), probs=(0.5, -0.5))

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            RadialLaw(values=(-1.0, 1.0), probs=(0.5, 0.5))

    def test_degenerate_unit(self):
        r = RadialLaw(values=(1.0,), probs=(1.0,))
        assert not r.has_zero_atom

    @pytest.mark.parametrize("values,probs", [
        ((math.nan,), (1.0,)), ((1.0,), (math.nan,)), ((1.0, math.inf), (1.0, 0.0))],
        ids=["nan-value", "nan-probability", "inf-value"])
    def test_rejects_non_finite(self, values, probs):
        # every comparison with NaN is false, and 0 * inf adds NaN to E R^2
        with pytest.raises(ValueError, match="finite"):
            RadialLaw(values=values, probs=probs)


def sample(spec, rng, n):
    """n draws of the law through its inverse-CDF map."""
    return spec.draw(rng.random((spec.n_uniforms, n)))


class TestSampling:
    def test_two_point_mean_gate(self):
        rng = np.random.default_rng(101)
        xs = sample(TwoPointSym(), rng, 1_000_000)
        assert set(np.unique(xs)) == {-1.0, 1.0}
        assert abs(xs.mean()) <= 4.0 / math.sqrt(1e6)

    def test_semicircle_variance_gate(self):
        rng = np.random.default_rng(202)
        xs = sample(QGaussian(0.0), rng, 1_000_000)
        assert abs(xs.var() - 1.0) <= 0.005

    def test_scaled_support(self):
        radial = RadialLaw(values=(math.sqrt(2.0), 0.0), probs=(0.5, 0.5))
        rng = np.random.default_rng(303)
        xs = sample(ScaledTwoPoint(radial), rng, 10_000)
        assert set(np.round(np.unique(xs), 12)) <= {-round(math.sqrt(2.0), 12), 0.0,
                                                    round(math.sqrt(2.0), 12)}

    def test_deterministic_given_stream(self):
        a = sample(QGaussian(0.5), np.random.default_rng(9), 1000)
        b = sample(QGaussian(0.5), np.random.default_rng(9), 1000)
        assert np.array_equal(a, b)

    KS_999 = 1.9495  # asymptotic 99.9% Kolmogorov quantile

    @pytest.mark.parametrize("q", [0.0, 0.5])
    def test_ks_continuous(self, q):
        # at q = 0 the distance at every draw against the closed form; at q = 0.5 at 63
        # fixed points against quadrature, which is never larger than the full distance
        n = 100_000
        rng = np.random.default_rng(404)
        s = QGaussian(q)
        xs = np.sort(sample(s, rng, n))
        if q == 0.0:
            at, grid = xs, semicircle_cdf(xs)
        else:
            at = np.linspace(*support(s), 65)[1:-1]
            grid = np.array([quadrature_cdf(s, x) for x in at])
        emp_hi = np.searchsorted(xs, at, side="right") / n
        emp_lo = np.searchsorted(xs, at, side="left") / n
        d = max(np.max(np.abs(emp_hi - grid)), np.max(np.abs(grid - emp_lo)))
        assert d <= self.KS_999 / math.sqrt(n)

    def test_ks_gaussian(self):
        from scipy.special import ndtr
        n = 100_000
        rng = np.random.default_rng(505)
        xs = np.sort(sample(StdGaussian(), rng, n))
        grid = ndtr(xs)
        emp_hi = np.arange(1, n + 1) / n
        emp_lo = np.arange(0, n) / n
        d = max(np.max(np.abs(emp_hi - grid)), np.max(np.abs(grid - emp_lo)))
        assert d <= self.KS_999 / math.sqrt(n)

    def test_two_point_frequency_gate(self):
        n = 100_000
        rng = np.random.default_rng(606)
        xs = sample(TwoPointSym(), rng, n)
        p_hat = (xs > 0).mean()
        assert abs(p_hat - 0.5) <= self.KS_999 / math.sqrt(n)


def _qg_log_weight_unblocked(q, sin_theta, tol):
    """The weight before column blocking: one (k, theta) factor matrix per
    row block of 65536 k, summed over k in one go."""
    out = np.where(sin_theta > 0.0, np.log(np.maximum(sin_theta, 1e-300)), -np.inf)
    kmax = measure._product_terms(q, tol)
    if kmax == 0:
        return out
    s2 = sin_theta * sin_theta
    block = 65536
    for start in range(1, kmax + 1, block):
        ks = np.arange(start, min(start + block, kmax + 1))
        qk = np.power(q, ks)
        one_minus = 1.0 - qk
        out = out + np.log(one_minus).sum()
        out = out + np.log(one_minus[:, None] ** 2 + 4.0 * qk[:, None] * s2[None, :]).sum(axis=0)
    return out


class TestLogWeightBlocks:
    """Column-blocked factor matrix: bit-identical to the one-matrix sum."""

    W = measure._COL_BLOCK

    @pytest.mark.parametrize("q", [-0.9, 0.0, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, W - 1, W, W + 1, 2 * W + 1, 4097])
    def test_bitwise_against_unblocked(self, q, n):
        rng = np.random.default_rng(n)
        sin_t = np.sin(np.sort(rng.random(n)) * math.pi)
        sin_t[:min(n, 1)] = 0.0  # an endpoint of the support
        got = measure._qg_log_weight(q, sin_t, 1e-12)
        assert np.array_equal(got, _qg_log_weight_unblocked(q, sin_t, 1e-12))

    @pytest.mark.parametrize("q", [-0.74, -0.5, 0.0, 0.5, 0.74])
    @pytest.mark.parametrize("tol", [measure._WEIGHT_TOL, measure._CDF_TOL])
    def test_cached_factors_bitwise_against_uncached(self, q, tol):
        # the q-only factors come from a cache: its first and later reads give the
        # weight of the uncached expression, and the cached factors are read-only
        sin_t = np.sin(np.linspace(0.0, math.pi, 129))
        want = _qg_log_weight_unblocked(q, sin_t, tol).view(np.int64)
        measure._product_factors.cache_clear()
        for _ in range(2):
            assert np.array_equal(measure._qg_log_weight(q, sin_t, tol).view(np.int64), want)
        qk, one_minus, _ = measure._product_factors(q, tol)
        assert not (qk.flags.writeable or one_minus.flags.writeable)

    def test_table_density_bitwise(self):
        # the 4097-point CDF grid nodes and the 513-point density CLI grid
        for q in (-0.9, 0.5, 0.99):
            spec = QGaussian(q)
            nodes, _ = measure.theta_cells(np.linspace(0.0, math.pi, 4097), 16)
            sin_t = np.sin(nodes.ravel())
            assert np.array_equal(measure._qg_log_weight(q, sin_t, 1e-12),
                                  _qg_log_weight_unblocked(q, sin_t, 1e-12))
            xs = measure.theta_to_x(spec, np.linspace(0.0, math.pi, 513))
            theta = np.arccos(np.clip(xs / measure.support(spec)[1], -1.0, 1.0))
            assert np.array_equal(measure._qg_log_weight(q, np.sin(theta), 1e-12),
                                  _qg_log_weight_unblocked(q, np.sin(theta), 1e-12))

    def test_memory_bounded_by_column_block(self):
        # q = 0.99 needs ~3500 factors per node: the one-matrix form holds
        # 3500 x 8192 doubles (230 MB); column blocks hold 3500 x 512 (14 MB)
        import tracemalloc
        sin_t = np.sin(np.linspace(0.0, math.pi, 8192))
        tracemalloc.start()
        try:
            measure._qg_log_weight(0.99, sin_t, 1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6

    @pytest.mark.parametrize("q", [0.5, 0.9])
    def test_block_temporaries_bounded_by_factor_count(self, q):
        # a block holds 512 columns of at most 340 factors (1.4 MB) at q <= 0.9;
        # from |q| = _JACOBI_Q up nothing calls the product (test_product_never_reached)
        import tracemalloc
        sin_t = np.sin(np.linspace(0.0, math.pi, 8192))
        tracemalloc.start()
        try:
            measure._qg_log_weight(q, sin_t, 1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


# nodes of the two production grids: the conditional tables (1024 cells of 8) and the
# CDF table (4096 cells of 16)
COND_NODES = measure.theta_cells(np.linspace(0.0, math.pi, 1025), 8)[0].ravel()
CDF_NODES = measure.theta_cells(np.linspace(0.0, math.pi, 4097), 16)[0].ravel()


def _product_theta_weight(spec, theta, tol=1e-12):
    """theta_weight as it reads on the product path."""
    sin_t = np.sin(theta)
    logw = measure._qg_log_weight(spec.q, sin_t, tol)
    pref = math.log(math.sqrt(1.0 - spec.q) / math.pi)
    return np.exp(pref + logw) * measure.support(spec)[1] * np.where(sin_t > 0.0, sin_t, 0.0)


def _log_weight_compensated(q, theta, tol=1e-12):
    """The product with 1 - q^k from expm1 (from 1 + |q|^k at odd k if q < 0) and
    the factors summed with Neumaier's compensation: within 4e-14 of the product
    summed in 80-bit long double at q = 0.99 and 1.5e-14 at q = -0.99, where
    _qg_log_weight's plain sums are off by 2.6e-12 and 2.9e-13."""
    lq = math.log(abs(q))
    s2 = np.sin(theta) ** 2
    total, comp = np.log(np.sin(theta)), np.zeros_like(theta)
    for k in range(1, measure._product_terms(q, tol) + 1):
        qk = -math.exp(k * lq) if q < 0.0 and k % 2 else math.exp(k * lq)
        one_minus = 1.0 - qk if qk < 0.0 else -math.expm1(k * lq)
        term = 3.0 * math.log(one_minus) + np.log1p(4.0 * qk * s2 / (one_minus * one_minus))
        t = total + term
        comp += np.where(np.abs(total) >= np.abs(term), (total - t) + term, (term - t) + total)
        total = t
    return total + comp


class TestJacobiLogWeight:
    """The closed forms at |q| >= _JACOBI_Q against the product they replace there."""

    # the product's own rounding grows with its 3,799 factors at q = 0.99: 2.6e-12
    # there, against 4e-14 for _log_weight_compensated (test_compensated_oracle)
    @pytest.mark.parametrize("q,rtol", [(measure._JACOBI_Q, 1e-12), (0.8, 1e-12),
                                        (0.9, 1e-12), (0.95, 1e-12), (0.98, 1e-12),
                                        (0.99, 4e-12), (-measure._JACOBI_Q, 1e-12),
                                        (-0.8, 1e-12), (-0.9, 1e-12), (-0.95, 1e-12),
                                        (-0.98, 1e-12), (-0.99, 1e-12)])
    @pytest.mark.parametrize("nodes", [COND_NODES, CDF_NODES], ids=["cond", "cdf"])
    def test_matches_product(self, q, rtol, nodes):
        # compared at the folded angle: the closed form puts the support end at
        # theta = math.pi, as theta_to_x does, and the product at the exact pi
        folded = np.minimum(nodes, math.pi - nodes)
        got, sin_t = measure._log_weight(q, nodes, 1e-12)
        want = measure._qg_log_weight(q, np.sin(folded), 1e-12)
        assert np.array_equal(sin_t, np.sin(folded))
        assert np.all(np.abs(got - want) <= rtol * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("q", [0.99, 0.999, -0.99, -0.999])
    def test_compensated_oracle(self, q):
        theta = np.linspace(1e-4, 0.5 * math.pi, 257)
        want = _log_weight_compensated(q, theta)
        got = measure._log_weight(q, theta, 1e-12)[0]
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("q", [-0.9, -0.99, -0.999])
    def test_closer_to_oracle_than_product(self, q):
        # against 80-bit long double the closed form is off by 4e-15, 1.5e-14 and
        # 1.7e-13 here, the product by 1.8e-14, 2.9e-13 and 4.4e-12
        theta = np.linspace(1e-4, 0.5 * math.pi, 257)
        want = _log_weight_compensated(q, theta)
        scale = np.maximum(1.0, np.abs(want))
        closed = np.max(np.abs(measure._log_weight(q, theta, 1e-12)[0] - want) / scale)
        product = np.max(np.abs(measure._qg_log_weight(q, np.sin(theta), 1e-12) - want) / scale)
        assert closed < product

    @pytest.mark.parametrize("q", [measure._JACOBI_Q, 0.9, 0.99, 0.999,
                                   -measure._JACOBI_Q, -0.9, -0.99])
    def test_zero_at_support_ends(self, q):
        spec = QGaussian(q)
        ends = np.array([0.0, math.pi])
        assert np.array_equal(measure._log_weight(q, ends, 1e-12)[0], [-np.inf, -np.inf])
        assert np.array_equal(measure.theta_weight(spec, ends), [0.0, 0.0])
        assert np.array_equal(density(spec, np.array(support(spec))), [0.0, 0.0])

    @pytest.mark.parametrize("q", [measure._JACOBI_Q, 0.9, 0.99, -measure._JACOBI_Q, -0.9,
                                   -0.99])
    def test_symmetric_bitwise(self, q):
        # pi - theta is exact for theta in [pi/2, pi] (Sterbenz)
        spec = QGaussian(q)
        theta = np.concatenate((np.linspace(0.5 * math.pi, math.pi, 1001),
                                CDF_NODES[CDF_NODES >= 0.5 * math.pi]))
        mirror = math.pi - theta
        assert np.array_equal(measure._log_weight(q, theta, 1e-12)[0],
                              measure._log_weight(q, mirror, 1e-12)[0])
        assert np.array_equal(measure.theta_weight(spec, theta),
                              measure.theta_weight(spec, mirror))

    @pytest.mark.parametrize("q", [-0.7, 0.0, 0.5, 0.7])
    def test_product_path_below_crossover_bitwise(self, q):
        spec = QGaussian(q)
        assert np.array_equal(measure.theta_weight(spec, CDF_NODES),
                              _product_theta_weight(spec, CDF_NODES))
        s = support(spec)[1]
        xs = np.linspace(-s, s, 513)
        theta = np.arccos(np.clip(xs / s, -1.0, 1.0))
        pref = math.log(math.sqrt(1.0 - q) / math.pi)
        sin_t = np.sin(theta)
        want = np.where((np.abs(xs) < s) & (sin_t > 0.0),
                        np.exp(pref + measure._qg_log_weight(q, sin_t, 1e-12)), 0.0)
        assert np.array_equal(density(spec, xs), want)

    def test_crossover_off_the_pinned_and_scanned_q(self):
        # classify's rounded q of the pinned and scanned |q| = 0.5 points and of the
        # scan's q = -0.9 and 0.9 columns lie on one side each, read as |q|
        from qfields import params
        for rho in (-0.8, -0.3, 0.3, 0.5, 0.8, 0.95):
            for q in (-0.9, -0.5, 0.5, 0.9):
                rounded = params.classify(params.params_from_rho_q(rho, q)).q
                assert (abs(rounded) >= measure._JACOBI_Q) == (abs(q) == 0.9)
        assert 0.5000000000000002 < measure._JACOBI_Q < 0.8999999999999995

    @pytest.mark.parametrize("rho,q", [(0.5, 0.9), (-0.8, 0.9), (0.95, 0.9), (0.5, 0.99),
                                       (-0.8, -0.9), (0.95, -0.9), (0.5, -0.99)])
    def test_product_never_reached(self, monkeypatch, rho, q):
        from qfields import cli, kernel, params, simulate

        def product(*args):
            raise AssertionError("_qg_log_weight reached")

        monkeypatch.setattr(measure, "_qg_log_weight", product)
        monkeypatch.setattr(measure, "_TABLE_CACHE", {})
        monkeypatch.setattr(kernel, "_THETA_CACHE", {})
        c = params.classify(params.params_from_rho_q(rho, q))
        try:
            simulate.make_sampler(c, simulate.SamplerConfig(rho=rho, q=q))
        except simulate.SamplerError:
            assert q == 0.99  # the named refusal near q = 1
        for qq in (measure._JACOBI_Q, -measure._JACOBI_Q, q):
            try:
                cdf_table(QGaussian(qq))
            except ValueError as err:
                assert "non-finite slopes" in str(err)
            spec = QGaussian(qq)
            density(spec, np.linspace(*support(spec), 513))
            measure.theta_weight(spec, CDF_NODES)
        # exit 2 at q = 0.99, where the theta quadrature does not converge
        rc = cli.run(["kernel-check", "--rho", repr(rho), "--q", repr(q)])
        assert rc == (2 if q == 0.99 else 0)

import math
import warnings

import numpy as np
import pytest

from qfields import kernel, measure, qpoly
from qfields.kernel import (GaussianAR1, ScaledTwoPointChain, TwoPointChain,
                            chapman_kolmogorov_residual, eigen_residual,
                            mehler_kernel, stationarity_residual)
from qfields.measure import QGaussian, RadialLaw, StdGaussian, TwoPointSym
from qfields.params import FieldParams, params_from_rho_q

from paper_identities import (conditional_moment_residual, integrate_adaptive,
                              mehler_sum)

GAUSS_POINT = FieldParams(0.5, 0.16, 0.32, 0.6, 0.0)


class TestConstruction:
    def test_rho_validated(self):
        with pytest.raises(ValueError):
            mehler_kernel(0.0, 0.5)
        with pytest.raises(ValueError):
            mehler_kernel(1.0, 0.5)

    def test_q_endpoint_routed_to_ar1(self):
        with pytest.raises(ValueError):
            mehler_kernel(0.5, 1.0)

    def test_warn_near_one(self):
        with pytest.warns(UserWarning):
            mehler_kernel(0.5, 0.996)

    def test_truncation_grows_with_rho(self):
        n_lo = mehler_kernel(0.3, 0.0).truncation
        n_hi = mehler_kernel(0.8, 0.0).truncation
        assert n_lo < n_hi <= qpoly.MAX_DEGREE


# N < 12 at (0.01, 0.5), N = 64 at (0.5, 0.99); the weight by its product at |q| < 0.75,
# by the two closed forms at q = 0.9 and q = -0.9; and q = 0
CARRIED = [(0.01, 0.5), (0.5, 0.99), (-0.3, -0.5), (0.8, 0.9), (-0.8, -0.9), (0.3, 0.0)]


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestCarriedTables:
    """mehler_kernel's grid table and coefficients, and each reader's share of
    them, equal what the reader would compute on its own, bit for bit."""

    @pytest.mark.parametrize("rho,q", CARRIED)
    def test_grid_table_is_the_truncation_grid(self, rho, q):
        k = mehler_kernel(rho, q)
        grid = measure.theta_to_x(k.law, np.linspace(0.0, math.pi, 129))
        want = qpoly.qhermite_table(grid, q, qpoly.MAX_DEGREE)
        assert np.array_equal(_bits(k.grid_table), _bits(want))
        assert not k.grid_table.flags.writeable

    @pytest.mark.parametrize("rho,q", CARRIED)
    def test_coefficients(self, rho, q):
        k = mehler_kernel(rho, q)
        n = k.truncation
        want = rho ** np.arange(n + 1) / qpoly.q_factorials(n, q)
        assert np.array_equal(_bits(k.coeffs), _bits(want))
        assert not k.coeffs.flags.writeable

    @pytest.mark.parametrize("rho,q", CARRIED)
    def test_first_rung_table(self, rho, q, monkeypatch):
        monkeypatch.setattr(kernel, "_THETA_CACHE", {})
        k = mehler_kernel(rho, q)
        x, _, tab = kernel._theta_data(k, kernel._NODE_LADDER[0])
        theta = np.arange(1, 128) * (math.pi / 128)
        assert np.array_equal(_bits(x), _bits(measure.theta_to_x(k.law, theta)))
        want = qpoly.qhermite_table(x, q, max(k.truncation, kernel._EIGEN_DEGREE_MAX))
        assert np.array_equal(_bits(tab), _bits(want))

    def test_left_out_of_eq_hash_and_repr(self, monkeypatch):
        # with no entry of q = 0.5 in the store, each kernel builds a grid table of its own
        monkeypatch.setattr(kernel, "_THETA_CACHE", {})
        a, b = mehler_kernel(0.5, 0.5), mehler_kernel(0.5, 0.5)
        assert a == b and hash(a) == hash(b) and a.grid_table is not b.grid_table
        assert repr(a) == ("MehlerQ(rho=0.5, q=0.5, truncation=%d, tail_estimate=%r)"
                           % (a.truncation, a.tail_estimate))


def _store_arrays(data):
    """Every array an entry of kernel._THETA_CACHE holds."""
    return [data.grid_table, data.sup, data.fact, *data.tables.values(),
            *(a for rung in data.rungs.values() for a in rung)]


class TestThetaStore:
    """kernel._THETA_CACHE keeps the q-only data of the residual calls, one entry per
    q: bounded, made by the residual calls only, and shared without changing a bit."""

    def test_entries_bounded_oldest_dropped_first(self, monkeypatch):
        monkeypatch.setattr(kernel, "_THETA_CACHE", {})
        size = kernel._THETA_CACHE_SIZE
        qs = [float(q) for q in np.linspace(-0.6, 0.6, size + 3)]
        for q in qs:
            stationarity_residual(mehler_kernel(0.5, q), 0.5)
            assert len(kernel._THETA_CACHE) <= size
        assert list(kernel._THETA_CACHE) == qs[-size:]

    def test_point_memos_bounded(self, monkeypatch):
        # more single points than either memo holds; each residual is the one from an
        # empty store, bit for bit
        monkeypatch.setattr(kernel, "_THETA_CACHE", {})
        k = mehler_kernel(0.5, 0.5)
        xs = np.linspace(-2.5, 2.5, kernel._POINT_DENSITIES + 5)
        got = [stationarity_residual(k, x) for x in xs]
        data = kernel._THETA_CACHE[0.5]
        assert len(data.tables) == kernel._POINT_TABLES
        assert len(data.densities) == kernel._POINT_DENSITIES
        want = []
        for x in xs:
            monkeypatch.setattr(kernel, "_THETA_CACHE", {})
            want.append(stationarity_residual(k, x))
        assert _bits(got).tolist() == _bits(want).tolist()

    @pytest.mark.parametrize("rho,q", CARRIED)
    def test_kernel_from_an_entry_equals_a_fresh_one(self, rho, q, monkeypatch):
        from qfields.quadrature import QuadratureError
        monkeypatch.setattr(kernel, "_THETA_CACHE", {})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # q = 0.99 warns near 1
            fresh = mehler_kernel(rho, q)
            assert kernel._THETA_CACHE == {}  # building a kernel makes no entry
            try:
                stationarity_residual(fresh, 0.0)
            except QuadratureError:
                pass  # the entry is made before the ladder fails
            data = kernel._THETA_CACHE[q]
            shared = mehler_kernel(rho, q)
        assert shared.grid_table is data.grid_table
        assert all(not a.flags.writeable for a in _store_arrays(data))
        assert shared == fresh and hash(shared) == hash(fresh) and repr(shared) == repr(fresh)
        assert _bits(shared.grid_table).tolist() == _bits(fresh.grid_table).tolist()
        assert _bits(shared.coeffs).tolist() == _bits(fresh.coeffs).tolist()

    def test_sampler_makes_no_entry(self, monkeypatch):
        from qfields import simulate
        from qfields.params import classify
        monkeypatch.setattr(kernel, "_THETA_CACHE", {})
        simulate.make_sampler(classify(params_from_rho_q(0.5, 0.5)),
                              simulate.SamplerConfig(rho=0.5, q=0.5))
        assert kernel._THETA_CACHE == {}

    def test_a_plain_dict_serves(self, monkeypatch):
        store: dict = {}
        monkeypatch.setattr(kernel, "_THETA_CACHE", store)
        k = mehler_kernel(-0.3, -0.5)
        s = measure.support(k.law)[1]
        eigen_residual(k, range(9), [-0.4 * s, 0.4 * s])
        assert list(store) == [-0.5] and store[-0.5].rungs


class TestTransitionDensity:
    def test_ar1_closed_form(self):
        k = GaussianAR1(0.6)
        assert kernel._ar1_density(k, 0.6, 1.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi * 0.64), abs=1e-15)

    def test_ar1_normalizes(self):
        k = GaussianAR1(0.6)
        mean, sd = 0.6 * 1.2, math.sqrt(1.0 - 0.36)  # of f(. | y = 1.2)
        val, _ = integrate_adaptive(lambda x: kernel._ar1_density(k, x, 1.2),
                                    mean - 12.0 * sd, mean + 12.0 * sd, tol=1e-12)
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_mehler_normalizes(self):
        k = mehler_kernel(0.5, 0.0)
        s = QGaussian(0.0)
        for y in (-1.5, 0.0, 1.5):
            val, _ = integrate_adaptive(
                lambda th: measure.theta_weight(s, th)
                * mehler_sum(k, measure.theta_to_x(s, th), np.array([y]))[:, 0],
                0.0, math.pi, tol=1e-12)
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_independence_limit(self):
        k = mehler_kernel(1e-6, 0.3)
        s = QGaussian(0.3)
        xs = np.linspace(-1.8, 1.8, 21)
        for y in (-1.0, 0.7):
            f = measure.density(k.law, xs) * mehler_sum(k, xs, [y])[:, 0]
            assert np.allclose(f, measure.density(s, xs), atol=1e-5)

    def test_clamp_recorded_at_hard_corner(self):
        # the truncated series dips below 0 here; the sampler's cell masses clamp it
        from qfields import simulate
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            k = mehler_kernel(0.8, 0.9)
        s = 2.0 / math.sqrt(0.1)
        xs = np.linspace(-s, s, 801)
        assert np.min(measure.density(k.law, xs) * mehler_sum(k, xs, [0.95 * s])[:, 0]) < 0.0
        edges = np.linspace(0.0, math.pi, simulate._N_CELLS + 1)
        cells = simulate._cell_masses(k, edges)
        assert np.all(cells >= 0.0)


class TestEigenResidual:
    def test_degree_zero_exact(self):
        assert eigen_residual(mehler_kernel(0.5, 0.5), 0, 0.7) <= 1e-12

    def test_ar1_linear(self):
        assert eigen_residual(GaussianAR1(0.6), 1, 2.0) <= 1e-13

    def test_mehler_degree_five(self):
        assert eigen_residual(mehler_kernel(0.5, 0.5), 5, 1.0) <= 1e-6

    @pytest.mark.parametrize("rho", [0.3, 0.8])
    @pytest.mark.parametrize("q", [-0.5, 0.9])
    def test_ladder(self, rho, q):
        k = mehler_kernel(rho, q)
        s = 2.0 / math.sqrt(1.0 - q)
        for n in range(0, 9):
            for y in (-0.8 * s, 0.0, 0.6 * s):
                assert eigen_residual(k, n, y) <= 1e-6

    def test_two_point(self):
        k = TwoPointChain(0.5)
        for n in range(0, 5):
            assert eigen_residual(k, n, 1.0) <= 1e-14
            assert eigen_residual(k, n, -1.0) <= 1e-14

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            eigen_residual(GaussianAR1(0.5), 13, 0.0)
        # no integer degree: a float, a bool (which NumPy would read as a mask), or a
        # 2-d sequence
        for k in (GaussianAR1(0.5), mehler_kernel(0.5, 0.5)):
            for n in (2.0, 2.5, np.float64(2.0), True, [True, 1], [[1, 2]]):
                with pytest.raises(ValueError, match="integer"):
                    eigen_residual(k, n, 0.0)


class TestConditionalMoments:
    def test_ar1_exact(self):
        k = GaussianAR1(0.5)
        for y in (-2.0, 0.0, 1.3):
            r = conditional_moment_residual(k, GAUSS_POINT, y)
            assert r["r_mean"] <= 1e-12
            assert r["r_var"] <= 1e-12

    def test_two_point(self):
        rho = 0.5
        A = rho * rho / (1.0 + rho ** 4)
        p = FieldParams(rho, A, 0.0, 1.0 - 2.0 * A, 0.0)
        k = TwoPointChain(rho)
        for y in (-1.0, 1.0):
            r = conditional_moment_residual(k, p, y)
            assert r["r_mean"] <= 1e-14
            assert r["r_var"] <= 1e-14

    def test_scaled_two_point(self):
        radial = RadialLaw(values=(math.sqrt(2.0), 0.0), probs=(0.5, 0.5))
        p = FieldParams(0.5, 0.5, 0.0, 0.0, 0.0)
        k = ScaledTwoPointChain(0.5, radial)
        for y in (-math.sqrt(2.0), 0.0, math.sqrt(2.0)):
            r = conditional_moment_residual(k, p, y)
            assert r["r_mean"] <= 1e-14
            assert r["r_var"] <= 1e-14

    def test_mehler(self):
        k = mehler_kernel(0.7, 0.5)
        p = params_from_rho_q(0.7, 0.5)
        s = 2.0 / math.sqrt(0.5)
        for y in (-0.7 * s, 0.2 * s):
            r = conditional_moment_residual(k, p, y)
            assert r["r_mean"] <= 1e-8
            assert r["r_var"] <= 1e-8


class TestStationarity:
    # the sign chains X = R*Y are stationary by symmetry; they have no residual to take
    def test_two_point_exact(self):
        with pytest.raises(ValueError, match="TwoPointChain is atomic"):
            stationarity_residual(TwoPointChain(0.5), 1.0)

    def test_scaled_exact(self):
        radial = RadialLaw(values=(math.sqrt(2.0), 0.0), probs=(0.5, 0.5))
        k = ScaledTwoPointChain(0.5, radial)
        with pytest.raises(ValueError, match="ScaledTwoPointChain is atomic"):
            stationarity_residual(k, 0.0)

    def test_ar1(self):
        # past rho^2 = 1/2 the quadrature weight is the kernel's own Gaussian factor
        for rho in (0.6, 0.99, 0.999, -0.999):
            assert stationarity_residual(GaussianAR1(rho), 0.7) <= 1e-9

    def test_mehler(self):
        k = mehler_kernel(0.5, 0.0)
        assert stationarity_residual(k, 0.7) <= 1e-6

    def test_stationary_spec_pairing(self):
        assert GaussianAR1(0.4).law == StdGaussian()
        assert TwoPointChain(0.4).law == TwoPointSym()
        assert mehler_kernel(0.5, 0.25).law == QGaussian(0.25)


class TestTwoPointRule:
    """The one-step law of the +/-1 chain: stay (1 + rho)/2, flip (1 - rho)/2."""

    def test_hand_values(self):
        x, p = TwoPointChain(0.5)._rule(1.0)
        assert x.tolist() == [1.0, -1.0]
        assert p[0] == pytest.approx(0.75)
        assert p[1] == pytest.approx(0.25)

    def test_independence(self):
        # rho = 0 is no chain; the rule tends to a fair coin
        assert np.allclose(TwoPointChain(1e-12)._rule(-1.0)[1], 0.5)

    def test_antithetic(self):
        assert TwoPointChain(-0.5)._rule(1.0)[1][0] == pytest.approx(0.25)

    @pytest.mark.parametrize("rho", [-0.9, -0.3, 0.4, 0.99])
    def test_stochastic(self, rho):
        for y in (-1.0, 1.0):
            x, p = TwoPointChain(rho)._rule(y)
            assert x.tolist() == [y, -y]
            assert p.sum() == pytest.approx(1.0)
            assert np.all(p >= 0.0)


class TestComposition:
    def test_ar1_chapman_kolmogorov(self):
        k = GaussianAR1(0.6)
        for x, z in ((0.5, -0.3), (1.2, 0.8)):
            assert chapman_kolmogorov_residual(k, x, z) <= 1e-12

    def test_atomic_rejected(self):
        with pytest.raises(ValueError, match="continuous kernels"):
            chapman_kolmogorov_residual(TwoPointChain(0.5), 1.0, 1.0)

    @pytest.mark.parametrize("rho,q", [(0.5, 0.0), (0.8, 0.9), (0.3, -0.5)])
    def test_mehler_chapman_kolmogorov(self, rho, q):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            k = mehler_kernel(rho, q)
        s = 2.0 / math.sqrt(1.0 - q)
        for x, z in ((0.3 * s, -0.5 * s), (-0.1 * s, 0.6 * s)):
            assert chapman_kolmogorov_residual(k, x, z) <= 1e-6


class TestRhoOnConstruction:
    @pytest.mark.parametrize("make", [
        GaussianAR1,
        TwoPointChain,
        lambda rho: ScaledTwoPointChain(rho, RadialLaw(values=(1.0,), probs=(1.0,))),
        lambda rho: mehler_kernel(rho, 0.5),
    ])
    @pytest.mark.parametrize("rho", [0.0, 1.0, -1.0, 1.5, float("nan")])
    def test_every_kernel_rejects_rho(self, make, rho):
        with pytest.raises(ValueError, match="rho"):
            make(rho)


def _mehler_sum_joint(k, x, y):
    """Series sum from one pair of tables, scaled out of place."""
    qx = qpoly.qhermite_table(x, k.q, k.truncation)
    qy = qpoly.qhermite_table(y, k.q, k.truncation)
    return (qx * k.coeffs[:, None]).T @ qy


class TestMehlerSumOnly:
    @pytest.mark.parametrize("rho,q", [(0.5, 0.5), (-0.3, -0.5), (0.8, 0.9)])
    def test_sum_bitwise(self, rho, q):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            k = mehler_kernel(rho, q)
        s = 2.0 / math.sqrt(1.0 - q)
        x, y = np.linspace(-s, s, 301), np.linspace(-s, s, 65)
        assert np.array_equal(mehler_sum(k, x, y), _mehler_sum_joint(k, x, y))


class TestTrapezoidLadder:
    @pytest.mark.parametrize("rho,q", [(0.5, 0.5), (-0.8, -0.9), (0.95, 0.9), (0.3, 0.98)])
    def test_expect_matches_gauss_legendre_oracle(self, rho, q):
        k = mehler_kernel(rho, q)
        s = QGaussian(q)
        g = lambda x: np.vstack([np.ones_like(x), x, x * x, qpoly.qhermite_table(x, q, 3)[3]])
        for y in (-0.7 * measure.support(s)[1], 0.0, 0.4 * measure.support(s)[1]):
            got = k.expect(y, g)
            for row, val in enumerate(got):
                ref, _ = integrate_adaptive(
                    lambda th: g(measure.theta_to_x(s, th))[row] * measure.theta_weight(s, th)
                    * mehler_sum(k, measure.theta_to_x(s, th), np.array([y]))[:, 0],
                    0.0, math.pi, tol=1e-12)
                assert val == pytest.approx(ref, abs=1e-10)

    def test_unconverged_ladder_raises(self):
        from qfields.quadrature import QuadratureError
        k = mehler_kernel(0.5, 0.99)
        y = 0.8 * measure.support(k.law)[1]  # no two rungs agree here
        with pytest.raises(QuadratureError, match=r"rho=0\.5, q=0\.99, N=64 by 2048") as err:
            eigen_residual(k, 0, y)
        assert err.value.estimate > 1e-9


class TestLadderRungs:
    """A rung may return a float or an array: a float rung and the same rung as a
    one-element array give the same value, or the same error."""

    def test_same_value(self):
        k = mehler_kernel(0.5, 0.5)
        got = kernel._ladder(k, lambda x, wq, tab: float(wq @ (x * x)))
        arr = kernel._ladder(k, lambda x, wq, tab: np.array([wq @ (x * x)]))
        assert isinstance(got, float) and arr.shape == (1,)
        assert _bits(got).tolist() == _bits(arr).tolist()
        assert got == pytest.approx(1.0, abs=1e-12)  # the second moment of the law

    @pytest.mark.parametrize("value", [lambda x, wq: x.size, lambda x, wq: math.nan],
                             ids=["never-converges", "nan"])
    def test_same_error(self, value):
        from qfields.quadrature import QuadratureError
        k = mehler_kernel(0.5, 0.5)
        texts = []
        for rung in (lambda x, wq, tab: float(value(x, wq)),
                     lambda x, wq, tab: np.array([value(x, wq)])):
            with pytest.raises(QuadratureError) as err:
                kernel._ladder(k, rung)
            texts.append(str(err.value))
        assert texts[0] == texts[1]
        assert texts[0].startswith("theta quadrature did not converge at rho=0.5, q=0.5")


class TestResidualSequences:
    """A sequence of points gives the residuals of the scalar calls, bit for bit."""

    @staticmethod
    def _points(k):
        s = 2.0 if isinstance(k, GaussianAR1) else measure.support(k.law)[1]
        return [c * s for c in (-0.8, -0.4, 0.0, 0.4, 0.8)]

    @pytest.mark.parametrize("rho,q", [(0.5, 0.5), (-0.8, -0.9), (0.01, 0.5), (0.5, 1.0)])
    def test_sequence_equals_scalar_calls(self, rho, q):
        k = GaussianAR1(rho) if q == 1.0 else mehler_kernel(rho, q)
        ys = self._points(k)
        zs = ys[::-1]
        for n in range(kernel._EIGEN_DEGREE_MAX + 1):  # (0.01, 0.5) truncates at N = 6
            assert eigen_residual(k, n, ys).tolist() == [eigen_residual(k, n, y) for y in ys]
        assert stationarity_residual(k, ys).tolist() == [stationarity_residual(k, x) for x in ys]
        assert chapman_kolmogorov_residual(k, ys, zs).tolist() == \
            [chapman_kolmogorov_residual(k, x, z) for x, z in zip(ys, zs)]
        assert all(isinstance(r, float) for r in (
            eigen_residual(k, 2, ys[0]), stationarity_residual(k, ys[0]),
            chapman_kolmogorov_residual(k, ys[0], zs[0])))

    @pytest.mark.parametrize("rho,q", [(0.5, 0.5), (-0.8, -0.9), (0.01, 0.5)])
    def test_one_rung_raises_the_scalar_error(self, rho, q, monkeypatch):
        from qfields.quadrature import QuadratureError
        monkeypatch.setattr(kernel, "_NODE_LADDER", (128,))
        k = mehler_kernel(rho, q)
        ys = self._points(k)
        for call in (lambda y: eigen_residual(k, 3, y),
                     lambda y: stationarity_residual(k, y),
                     lambda y: chapman_kolmogorov_residual(k, y, y)):
            with pytest.raises(QuadratureError) as seq:
                call(ys)
            with pytest.raises(QuadratureError) as one:
                call(ys[0])
            assert (seq.value.args, seq.value.estimate) == (one.value.args, one.value.estimate)

    def test_first_unconverged_point_raises(self):
        # at (0.5, 0.99) the ladders converge at 0 and -0.4 S and fail at 0.8 S and -0.8 S,
        # with different error estimates
        from qfields.quadrature import QuadratureError
        k = mehler_kernel(0.5, 0.99)
        ys = [c * measure.support(k.law)[1] for c in (0.0, -0.4, 0.8, -0.8)]
        with pytest.raises(QuadratureError) as seq:
            eigen_residual(k, 0, ys)
        with pytest.raises(QuadratureError) as one:
            eigen_residual(k, 0, ys[2])
        with pytest.raises(QuadratureError) as last:
            eigen_residual(k, 0, ys[3])
        assert seq.value.estimate == one.value.estimate != last.value.estimate

    @pytest.mark.parametrize("rho,q", [(0.95, 0.5), (-0.95, 0.9), (0.5, -0.9), (-0.8, -0.9),
                                       (0.01, 0.5), (0.5, 1.0), (-0.95, 1.0)])
    def test_degree_sequence_equals_stacked_calls(self, rho, q):
        k = GaussianAR1(rho) if q == 1.0 else mehler_kernel(rho, q)
        ys = self._points(k)
        for degrees in (range(kernel._EIGEN_DEGREE_MAX + 1), [8, 0, 3, 3]):
            for y in (ys, ys[1]):
                got = eigen_residual(k, degrees, y)
                want = np.stack([eigen_residual(k, n, y) for n in degrees])
                assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())

    def test_degree_sequence_on_a_sign_chain(self):
        k = TwoPointChain(-0.3)
        got = eigen_residual(k, range(5), [1.0, -1.0])
        assert got.tobytes() == np.stack([eigen_residual(k, n, [1.0, -1.0])
                                          for n in range(5)]).tobytes()

    def test_degree_sequence_raises_the_first_error(self):
        # at (0.5, 0.99) the ladders fail at -0.8 S for degrees 0..6 and at 0.8 S for 0..7:
        # degrees [7, 0] fail first at (7, 0.8 S), by degree and then by point
        from qfields.quadrature import QuadratureError
        k = mehler_kernel(0.5, 0.99)
        s = measure.support(k.law)[1]
        for degrees, ys in ((range(9), self._points(k)), ([7, 0], [-0.8 * s, 0.8 * s])):
            with pytest.raises(QuadratureError) as seq:
                eigen_residual(k, degrees, ys)
            first = None
            for n in degrees:
                try:
                    eigen_residual(k, n, ys)
                except QuadratureError as exc:
                    first = exc
                    break
            assert (str(seq.value), seq.value.estimate) == (str(first), first.estimate)

    def test_degrees_validated(self):
        k = mehler_kernel(0.5, 0.5)
        for degrees in ([], [0, 13], [-1]):
            with pytest.raises(ValueError, match="degree"):
                eigen_residual(k, degrees, 0.0)

    def test_points_must_pair_up(self):
        k = mehler_kernel(0.5, 0.5)
        with pytest.raises(ValueError, match="one length"):
            chapman_kolmogorov_residual(k, [0.0, 1.0], [0.0])
        with pytest.raises(ValueError, match="1-d"):
            stationarity_residual(k, [[0.0]])

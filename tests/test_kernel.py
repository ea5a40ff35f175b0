import math
import warnings

import numpy as np
import pytest

from qfields import kernel, measure, qpoly
from qfields.kernel import (GaussianAR1, ScaledTwoPointChain, TwoPointChain,
                            chapman_kolmogorov_residual,
                            conditional_moment_residual, eigen_residual,
                            mehler_kernel, stationarity_residual)
from qfields.measure import QGaussian, RadialLaw, StdGaussian, TwoPointSym
from qfields.params import FieldParams, params_from_rho_q

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


class TestTransitionDensity:
    def test_ar1_closed_form(self):
        k = GaussianAR1(0.6)
        assert kernel._ar1_density(k, 0.6, 1.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi * 0.64), abs=1e-15)

    def test_ar1_normalizes(self):
        from qfields.quadrature import integrate_adaptive
        k = GaussianAR1(0.6)
        mean, sd = 0.6 * 1.2, math.sqrt(1.0 - 0.36)  # of f(. | y = 1.2)
        val, _ = integrate_adaptive(lambda x: kernel._ar1_density(k, x, 1.2),
                                    mean - 12.0 * sd, mean + 12.0 * sd, tol=1e-12)
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_mehler_normalizes(self):
        from qfields.quadrature import integrate_adaptive
        k = mehler_kernel(0.5, 0.0)
        s = QGaussian(0.0)
        for y in (-1.5, 0.0, 1.5):
            val, _ = integrate_adaptive(
                lambda th: measure.theta_weight(s, th)
                * kernel.mehler_sum(k, measure.theta_to_x(s, th), np.array([y]))[:, 0],
                0.0, math.pi, tol=1e-12)
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_independence_limit(self):
        k = mehler_kernel(1e-6, 0.3)
        s = QGaussian(0.3)
        xs = np.linspace(-1.8, 1.8, 21)
        for y in (-1.0, 0.7):
            f = measure.density(k.law, xs) * kernel.mehler_sum(k, xs, [y])[:, 0]
            assert np.allclose(f, measure.density(s, xs), atol=1e-5)

    def test_clamp_recorded_at_hard_corner(self):
        # the truncated series dips below 0 here; the sampler's cell masses clamp it
        from qfields import simulate
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            k = mehler_kernel(0.8, 0.9)
        s = 2.0 / math.sqrt(0.1)
        xs = np.linspace(-s, s, 801)
        assert np.min(measure.density(k.law, xs) * kernel.mehler_sum(k, xs, [0.95 * s])[:, 0]) < 0.0
        edges = np.linspace(0.0, math.pi, simulate._N_CELLS + 1)
        cells = simulate._cell_masses(k, np.linspace(-0.95 * s, 0.95 * s, simulate._N_Y), edges)
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
    return (qx * kernel._mehler_coeffs(k)[:, None]).T @ qy


class TestMehlerSumOnly:
    @pytest.mark.parametrize("rho,q", [(0.5, 0.5), (-0.3, -0.5), (0.8, 0.9)])
    def test_sum_bitwise(self, rho, q):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            k = mehler_kernel(rho, q)
        s = 2.0 / math.sqrt(1.0 - q)
        x, y = np.linspace(-s, s, 301), np.linspace(-s, s, 65)
        assert np.array_equal(kernel.mehler_sum(k, x, y), _mehler_sum_joint(k, x, y))


class TestTrapezoidLadder:
    @pytest.mark.parametrize("rho,q", [(0.5, 0.5), (-0.8, -0.9), (0.95, 0.9), (0.3, 0.98)])
    def test_expect_matches_gauss_legendre_oracle(self, rho, q):
        from qfields.quadrature import integrate_adaptive
        k = mehler_kernel(rho, q)
        s = QGaussian(q)
        g = lambda x: np.vstack([np.ones_like(x), x, x * x, qpoly.qhermite_table(x, q, 3)[3]])
        for y in (-0.7 * measure.support(s)[1], 0.0, 0.4 * measure.support(s)[1]):
            got = k.expect(y, g)
            for row, val in enumerate(got):
                ref, _ = integrate_adaptive(
                    lambda th: g(measure.theta_to_x(s, th))[row] * measure.theta_weight(s, th)
                    * kernel.mehler_sum(k, measure.theta_to_x(s, th), np.array([y]))[:, 0],
                    0.0, math.pi, tol=1e-12)
                assert val == pytest.approx(ref, abs=1e-10)

    def test_unconverged_ladder_raises(self):
        from qfields.quadrature import QuadratureError
        k = mehler_kernel(0.5, 0.99)
        y = 0.8 * measure.support(k.law)[1]  # no two rungs agree here
        with pytest.raises(QuadratureError, match=r"rho=0\.5, q=0\.99, N=64 by 2048") as err:
            eigen_residual(k, 0, y)
        assert err.value.estimate > 1e-9


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

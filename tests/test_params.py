import math

import numpy as np
import pytest

from qfields import params
from qfields.params import (DegenerateDenominatorError, ExistsGaussian,
                            ExistsQGaussian, ExistsScaledTwoPoint,
                            ExistsTwoPointSymmetric, FieldParams, InvalidParams,
                            Nonexistent, NonexistentDegenerate, OpenLattice,
                            b_from_q, boundary_values, classify,
                            consistency_residuals, derive,
                            forecast_recurrence_check, gap_induction_residual,
                            gap_second_moment_coeffs, params_from_rho_b,
                            params_from_rho_q, regression_coeffs,
                            two_sided_weights, validate)

GAUSS_POINT = FieldParams(0.5, 0.16, 0.32, 0.6, 0.0)


class TestValidate:
    def test_gaussian_point_ok(self):
        # 1 - 2*0.16 - 0.32*0.25 = 0.6
        p = GAUSS_POINT
        assert validate(p).ok
        assert abs(p.C - (1.0 - 2.0 * p.A - p.B * p.rho * p.rho)) <= 1e-12

    def test_rho_zero_rejected(self):
        r = validate(FieldParams(0.0, 0.16, 0.32, 0.6, 0.0))
        assert not r.ok
        assert any("rho" in v for v in r.violations)

    def test_c_mismatch(self):
        r = validate(FieldParams(0.5, 0.5, 0.0, 0.3, 0.0))
        assert not r.ok
        assert any("C mismatch" in v for v in r.violations)

    def test_rho_magnitude(self):
        assert not validate(FieldParams(1.0, 0.0, 0.0, 1.0, 0.0)).ok
        assert not validate(FieldParams(-1.3, 0.0, 0.0, 1.0, 0.0)).ok

    def test_nonfinite(self):
        assert not validate(FieldParams(0.5, math.nan, 0.0, 1.0, 0.0)).ok


class TestDerive:
    def test_regression_weight(self):
        assert derive(GAUSS_POINT).a == pytest.approx(0.4, abs=1e-15)

    def test_r_and_q_at_gaussian_point(self):
        d = derive(GAUSS_POINT)
        assert d.R == pytest.approx(2.0, abs=1e-12)
        assert d.q == pytest.approx(1.0, abs=1e-12)
        assert d.constraint_residual == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_q(self):
        p = FieldParams(0.5, 0.8, -2.4, 0.0, 0.0)
        assert derive(p).q is None

    def test_negative_rho_uses_even_powers(self):
        d_pos = derive(params_from_rho_q(0.5, 0.25))
        d_neg = derive(params_from_rho_q(-0.5, 0.25))
        assert d_pos.q == pytest.approx(d_neg.q, abs=1e-14)


class TestBFromQ:
    def test_hand_values(self):
        assert b_from_q(0.5, 1.0) == pytest.approx(0.32, abs=1e-15)
        assert b_from_q(0.5, -1.0) == pytest.approx(0.0, abs=1e-15)
        assert b_from_q(0.5, 0.0625) == pytest.approx(0.16, abs=1e-15)

    def test_pole_rejected(self):
        with pytest.raises(DegenerateDenominatorError):
            b_from_q(0.5, 16.0)

    @pytest.mark.parametrize("rho", [0.3, -0.3, 0.5, -0.5, 0.9, -0.9])
    def test_round_trip(self, rho):
        for q in list(np.linspace(-0.99, 0.99, 23)) + [1.0]:
            p = params_from_rho_b(rho, b_from_q(rho, q))
            assert derive(p).q == pytest.approx(q, abs=1e-12)

    def test_monotone_in_b(self):
        rho = 0.6
        b1 = boundary_values(rho).degenerate
        bs = np.linspace(b1 + 0.05, 3.0, 200)
        qs = [derive(params_from_rho_b(rho, b)).q for b in bs]
        assert all(q is not None for q in qs)
        assert all(q2 > q1 for q1, q2 in zip(qs, qs[1:]))


class TestBoundary:
    def test_hand_values_at_half(self):
        b = boundary_values(0.5, 3)
        assert b.degenerate == pytest.approx(-2.4, abs=1e-14)
        assert b.continuum_sup == pytest.approx(0.32, abs=1e-15)
        assert b.lattice[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.8])
    def test_first_lattice_value_is_one(self, rho):
        assert boundary_values(rho).lattice[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.8, -0.6])
    def test_lattice_maps_to_lattice_q(self, rho):
        b = boundary_values(rho, 4)
        for m, bval in enumerate(b.lattice, start=1):
            q = derive(params_from_rho_b(rho, bval)).q
            assert q == pytest.approx((rho * rho) ** (-1.0 / m), rel=1e-12)

    def test_degenerate_matches_undefined_q(self):
        for rho in (0.3, 0.5, 0.8, -0.7):
            bn = boundary_values(rho)
            p = params_from_rho_b(rho, bn.degenerate)
            assert derive(p).q is None
            assert p.A == pytest.approx(1.0 / (1.0 + rho * rho), rel=1e-12)


class TestClassify:
    def test_gaussian(self):
        assert classify(GAUSS_POINT) == ExistsGaussian()

    def test_qgaussian(self):
        c = classify(params_from_rho_q(0.5, 0.0625))
        assert isinstance(c, ExistsQGaussian)
        assert c.q == pytest.approx(0.0625, abs=1e-12)

    def test_degenerate(self):
        c = classify(FieldParams(0.5, 0.8, -2.4, 0.0, 0.0))
        assert isinstance(c, NonexistentDegenerate)
        assert "uniform integrability" in c.caveat

    def test_open_lattice_m1(self):
        c = classify(FieldParams(0.5, 0.0, 1.0, 0.75, 0.0))
        assert c == OpenLattice(m=1)

    def test_invalid_propagates(self):
        assert isinstance(classify(FieldParams(0.0, 0.16, 0.32, 0.68, 0.0)), InvalidParams)

    def test_nonzero_d(self):
        p = FieldParams(0.5, 0.16, 0.32, 0.6, 0.25)
        assert isinstance(classify(p), Nonexistent)

    def test_two_point_branches(self):
        assert isinstance(classify(FieldParams(0.5, 0.5, 0.0, 0.0, 0.0)),
                          ExistsScaledTwoPoint)
        c = classify(FieldParams(0.5, 0.2, 0.0, 0.6, 0.0))
        assert isinstance(c, ExistsTwoPointSymmetric)

    def test_two_point_overlap_note(self):
        rho = 0.5
        A = rho * rho / (1.0 + rho ** 4)
        c = classify(FieldParams(rho, A, 0.0, 1.0 - 2.0 * A, 0.0))
        assert isinstance(c, ExistsTwoPointSymmetric)
        assert "q = -1" in c.note

    def test_constraint_violation(self):
        p = FieldParams(0.5, 0.3, 0.1, 0.375, 0.0)
        assert isinstance(classify(p), Nonexistent)

    def test_negative_b(self):
        assert isinstance(classify(params_from_rho_b(0.5, -0.1)), Nonexistent)

    def test_below_degenerate(self):
        assert isinstance(classify(params_from_rho_b(0.5, -5.0)), Nonexistent)

    def test_sign_invariance_of_q_pipeline(self):
        for q in (-0.5, 0.0625, 0.5, 1.0):
            assert classify(params_from_rho_q(0.7, q)) == classify(params_from_rho_q(-0.7, q))

    def test_total_on_random_valid_params(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            rho = rng.uniform(-0.95, 0.95)
            if abs(rho) < 0.05:
                continue
            A = rng.uniform(-2, 2)
            B = rng.uniform(-4, 4)
            D = rng.choice([0.0, rng.uniform(-1, 1)])
            p = FieldParams(rho, A, B, 1.0 - 2 * A - B * rho * rho, D)
            c = classify(p)
            assert isinstance(c, params.Classification)
            assert not isinstance(c, InvalidParams)


class TestRegressionCoeffs:
    def test_gaussian_point(self):
        rc = regression_coeffs(GAUSS_POINT)
        assert rc.alpha1 == pytest.approx(0.25, abs=1e-14)
        assert rc.alpha2 == pytest.approx(0.0625, abs=1e-14)
        assert rc.beta1 == 0.0 and rc.beta2 == 0.0
        assert rc.gamma1 == pytest.approx(0.75, abs=1e-14)
        assert rc.gamma2 == pytest.approx(0.9375, abs=1e-14)

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateDenominatorError):
            regression_coeffs(FieldParams(0.5, 0.8, -2.4, 0.0, 0.0))

    def test_d_proportional_betas(self):
        rc = regression_coeffs(FieldParams(0.5, 0.16, 0.32, 0.6, 0.7))
        assert rc.beta1 == pytest.approx(0.7 * 1.25 / 0.8, rel=1e-14)
        assert rc.beta2 == pytest.approx(0.7 * 1.25 ** 2 / 0.8, rel=1e-14)

    def test_constraint_implies_alpha1_rho_squared(self):
        # under the compatibility constraint the one-step coefficient is rho^2
        for rho in (0.3, 0.5, 0.8, -0.7):
            for q in (-0.5, 0.0, 0.5, 1.0):
                rc = regression_coeffs(params_from_rho_q(rho, q))
                assert rc.alpha1 == pytest.approx(rho * rho, abs=1e-12)
                assert rc.gamma1 == pytest.approx(1.0 - rho * rho, abs=1e-12)


class TestConsistency:
    def test_gaussian_point_all_zero(self):
        cr = consistency_residuals(GAUSS_POINT)
        assert abs(cr.r1) <= 1e-12
        assert abs(cr.r2) <= 1e-12
        assert abs(cr.r3) <= 1e-12
        assert abs(cr.c_product) <= 1e-12

    def test_inconsistent_point_flags(self):
        cr = consistency_residuals(FieldParams(0.5, 0.3, 0.1, 0.375, 0.0))
        assert cr.r1 == pytest.approx(-0.09, abs=1e-12)
        assert cr.c_product == pytest.approx(0.140625, abs=1e-12)

    def test_constraint_family_zero_residuals(self):
        rhos = np.concatenate([np.linspace(0.05, 0.95, 10), -np.linspace(0.05, 0.95, 10)])
        qs = np.linspace(-0.99, 1.0, 20)
        for rho in rhos:
            for q in qs:
                cr = consistency_residuals(params_from_rho_q(rho, q))
                assert max(abs(cr.r1), abs(cr.r2), abs(cr.r3)) <= 1e-10
                assert abs(cr.c_product) <= 1e-10


def _projection_oracle(rho: float, n: int):
    """Least-squares projection weights for X_k and X_{k+1} on
    (X_{k-1}, X_{k+n+1}) under covariance rho^|i-j|."""
    gap = n + 2  # index distance between the conditioning variables
    cov = np.array([[1.0, rho ** gap], [rho ** gap, 1.0]])
    w_k = np.linalg.solve(cov, np.array([rho, rho ** (n + 1)]))
    w_k1 = np.linalg.solve(cov, np.array([rho ** 2, rho ** n]))
    return w_k, w_k1


class TestTwoSidedWeights:
    def test_gap_zero_reduces_to_nearest_neighbour(self):
        for rho in (0.3, 0.5, -0.8):
            w = two_sided_weights(rho, 0)
            a = rho / (1.0 + rho * rho)
            assert w.w_left == pytest.approx(a, rel=1e-14)
            assert w.w_right == pytest.approx(a, rel=1e-14)

    def test_hand_fractions(self):
        w = two_sided_weights(0.5, 1)
        assert w.w_left == pytest.approx(10.0 / 21.0, rel=1e-14)
        assert w.w_right == pytest.approx(4.0 / 21.0, rel=1e-14)

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.8, 0.9, -0.7])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 6])
    def test_against_projection_oracle(self, rho, n):
        w = two_sided_weights(rho, n)
        w_k, w_k1 = _projection_oracle(rho, n)
        assert w.w_left == pytest.approx(w_k[0], rel=1e-12)
        assert w.w_right == pytest.approx(w_k[1], rel=1e-12)
        assert w.w_left_next == pytest.approx(w_k1[0], rel=1e-12)
        assert w.w_right_next == pytest.approx(w_k1[1], rel=1e-12)


class TestGapCoeffs:
    def test_gap_one_is_the_conditional_variance_form(self):
        c = gap_second_moment_coeffs(0.5, 1)
        assert c.left_sq == pytest.approx(0.8, rel=1e-14)
        assert c.right_sq == pytest.approx(0.8, rel=1e-14)
        assert c.cross == pytest.approx(-2.4, rel=1e-14)

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.8, -0.6])
    def test_gap_one_matches_degenerate_point(self, rho):
        c = gap_second_moment_coeffs(rho, 1)
        b = boundary_values(rho)
        assert c.left_sq == pytest.approx(1.0 / (1.0 + rho * rho), rel=1e-13)
        assert c.cross == pytest.approx(b.degenerate, rel=1e-13)

    def test_large_gap_limits(self):
        rho = 0.5
        c = gap_second_moment_coeffs(rho, 40)
        assert c.left_sq == pytest.approx(1.0, abs=1e-12)
        assert c.right_sq == pytest.approx(1.0 - rho * rho, abs=1e-12)
        assert abs(c.cross) > 1e8  # diverges like rho^(-n-1)

    @pytest.mark.parametrize("rho", [0.3, -0.3, 0.5, -0.5, 0.7, -0.7])
    def test_induction_grid(self, rho):
        for n in range(1, 41):
            assert gap_induction_residual(rho, n) <= 1e-10

    def test_induction_examples(self):
        assert gap_induction_residual(0.5, 1) <= 1e-10
        assert gap_induction_residual(-0.7, 10) <= 1e-10
        assert gap_induction_residual(0.9, 40) <= 1e-8  # near-cancellation in 1 - rho^(2n)


class TestForecastRecurrence:
    def test_constant_sequence(self):
        assert forecast_recurrence_check(0.5, 1.0, 1.0, 50) == 0.0

    def test_pure_geometric(self):
        assert forecast_recurrence_check(0.5, 1.0, 0.25, 50) <= 1e-12

    def test_generic(self):
        assert forecast_recurrence_check(0.8, 2.0, 1.0, 100) <= 1e-9

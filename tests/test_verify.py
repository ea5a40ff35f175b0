import json
import math
import tracemalloc

import numpy as np
import pytest

from qfields.params import FieldParams, classify, params_from_rho_q
from qfields.simulate import Ensemble, SamplerConfig, make_sampler, sample_ensemble
from qfields.verify import (build_report, martingale_residuals, report_json,
                            standard_suite, weak_form_residuals)

GAUSS_POINT = FieldParams(0.5, 0.16, 0.32, 0.6, 0.0)
TWO_POINT = FieldParams(0.5, 0.25 / 1.0625, 0.0, 1.0 - 0.5 / 1.0625, 0.0)


def _entries(e: Ensemble, p: FieldParams, prefix: str):
    """standard_suite's entries of ``e`` at ``p`` whose ids start with ``prefix``."""
    return [x for x in standard_suite(e, p, classify(p)) if x.test_id.startswith(prefix)]


@pytest.fixture(scope="module")
def gauss_ensemble():
    c = classify(GAUSS_POINT)
    s = make_sampler(c, SamplerConfig(rho=0.5))
    return sample_ensemble(s, 100, 2000, 42)


@pytest.fixture(scope="module")
def two_point_ensemble():
    s = make_sampler(classify(TWO_POINT), SamplerConfig(rho=TWO_POINT.rho))
    return sample_ensemble(s, 100, 2000, 43)


class TestEmpiricalCorr:
    def test_all_lags_pass(self, gauss_ensemble):
        entries = _entries(gauss_ensemble, GAUSS_POINT, "corr_k")
        assert len(entries) == 5
        assert all(e.passed for e in entries)
        assert [e.test_id for e in entries] == [f"corr_k{k}" for k in range(1, 6)]

    def test_lag_zero_not_gated(self, gauss_ensemble):
        ids = [e.test_id for e in standard_suite(gauss_ensemble, GAUSS_POINT,
                                                  classify(GAUSS_POINT))]
        assert "corr_k0" not in ids

    def test_k_max_precondition(self, gauss_ensemble):
        short = Ensemble(values=gauss_ensemble.values[:, :50])
        with pytest.raises(ValueError, match="more than 50 steps"):
            standard_suite(short, GAUSS_POINT, classify(GAUSS_POINT))

    def test_wrong_rho_fails(self, gauss_ensemble):
        wrong = params_from_rho_q(0.8, 1.0)
        assert not _entries(gauss_ensemble, wrong, "corr_k")[0].passed


class TestWeakForm:
    def test_gaussian_point_passes(self, gauss_ensemble):
        entries = weak_form_residuals(gauss_ensemble, GAUSS_POINT)
        assert len(entries) == 30  # 15 monomials x 2 identities
        assert all(e.passed for e in entries)

    def test_corrupted_a_fails_on_quadratic(self, gauss_ensemble):
        corrupted = FieldParams(0.5, 0.2, 0.32, 0.6, 0.0)
        entries = weak_form_residuals(gauss_ensemble, corrupted)
        by_id = {e.test_id: e for e in entries}
        assert not by_id["weak_quad_x2y0"].passed

    def test_scaled_pointwise_identity_degenerate_pass(self):
        # A=1/2, B=D=C=0: the quadratic identity holds pointwise, so the
        # residual entries are exactly zero with zero standard error
        from qfields.measure import RadialLaw
        p = FieldParams(0.5, 0.5, 0.0, 0.0, 0.0)
        radial = RadialLaw(values=(math.sqrt(2.0), 0.0), probs=(0.5, 0.5))
        s = make_sampler(classify(p), SamplerConfig(rho=0.5, radial=radial))
        e = sample_ensemble(s, 50, 400, 7)
        entries = weak_form_residuals(e, p)
        quad = [x for x in entries if x.test_id.startswith("weak_quad")]
        assert all(x.estimate == 0.0 and x.stderr == 0.0 and x.passed for x in quad)


class TestMartingale:
    def test_gaussian_point_passes(self, gauss_ensemble):
        entries = martingale_residuals(gauss_ensemble, 0.5, 1.0)
        assert len(entries) == 20
        assert all(e.passed for e in entries)

    def test_wrong_rho_fails_n2_m2(self, gauss_ensemble):
        entries = martingale_residuals(gauss_ensemble, 0.55, 1.0)
        by_id = {e.test_id: e for e in entries}
        assert not by_id["mart_n2_m2"].passed

    def test_two_point_degenerate_rows_pass_exactly(self, two_point_ensemble):
        entries = martingale_residuals(two_point_ensemble, 0.5, -1.0)
        for e in entries:
            n = int(e.test_id.split("_")[1][1:])
            m = int(e.test_id.split("_")[2][1:])
            if n >= 2 or m >= 2:
                assert e.estimate == 0.0 and e.stderr == 0.0
            assert e.passed


class TestSymmetry:
    def test_passes(self, gauss_ensemble):
        entries = _entries(gauss_ensemble, GAUSS_POINT, "sym_")
        assert [e.test_id for e in entries] == ["sym_mean", "sym_third"]
        assert all(e.passed for e in entries)

    def test_shifted_ensemble_fails_mean(self, gauss_ensemble):
        shifted = Ensemble(values=gauss_ensemble.values + 0.1)
        entries = _entries(shifted, GAUSS_POINT, "sym_")
        assert not entries[0].passed

    def test_two_point_third_equals_first(self, two_point_ensemble):
        entries = _entries(two_point_ensemble, TWO_POINT, "sym_")
        assert entries[0].estimate == pytest.approx(entries[1].estimate, abs=1e-15)


class TestStandardSuite:
    def test_gaussian_composition(self, gauss_ensemble):
        entries = standard_suite(gauss_ensemble, GAUSS_POINT, classify(GAUSS_POINT))
        assert len(entries) == 5 + 30 + 2 + 20
        assert all(e.passed for e in entries)

    def test_scaled_only_linear_martingale_rows(self):
        from qfields.measure import RadialLaw
        p = FieldParams(0.5, 0.5, 0.0, 0.0, 0.0)
        radial = RadialLaw(values=(math.sqrt(2.0), 0.0), probs=(0.5, 0.5))
        c = classify(p)
        s = make_sampler(c, SamplerConfig(rho=0.5, radial=radial))
        e = sample_ensemble(s, 60, 500, 3)
        entries = standard_suite(e, p, c)
        mart_ids = [x.test_id for x in entries if x.test_id.startswith("mart")]
        assert mart_ids == [f"mart_n1_m{m}" for m in range(5)]
        assert all(x.passed for x in entries)

    @pytest.mark.parametrize("p,n_gates", [
        (GAUSS_POINT, 57),
        (params_from_rho_q(0.5, 0.5), 57),
        (FieldParams(0.5, 0.25 / 1.0625, 0.0, 1.0 - 0.5 / 1.0625, 0.0), 57),
        (FieldParams(0.5, 0.5, 0.0, 0.0, 0.0), 42)],
        ids=["gaussian", "qgaussian", "twopoint", "scaled"])
    def test_fixed_battery_size(self, p, n_gates):
        # 5 lags + 30 weak-form + 2 symmetry gates, and 20 eigen rows (5 when scaled)
        e = Ensemble(values=np.random.default_rng(0).standard_normal((4, 60)))
        assert len(standard_suite(e, p, classify(p))) == n_gates


class TestReport:
    def test_schema_and_counts(self, gauss_ensemble):
        entries = standard_suite(gauss_ensemble, GAUSS_POINT, classify(GAUSS_POINT))
        meta = {"seed": 42, "n_chains": gauss_ensemble.n_chains,
                "n_steps": gauss_ensemble.n_steps, "params": {"rho": 0.5}}
        rep = build_report(entries, meta)
        assert set(rep) == {"meta", "tests", "summary"}
        assert set(rep["tests"][0]) == {"id", "statistic", "estimate", "stderr", "k", "pass"}
        assert rep["summary"]["n_fail"] == 0

    def test_corrupted_report_lists_ids(self, gauss_ensemble):
        corrupted = FieldParams(0.5, 0.2, 0.32, 0.6, 0.0)
        entries = weak_form_residuals(gauss_ensemble, corrupted)
        rep = build_report(entries, {})
        assert rep["summary"]["n_fail"] >= 1
        assert "weak_quad_x2y0" in rep["summary"]["failed_ids"]

    def test_empty_entries_valid(self):
        rep = build_report([], {"seed": 1})
        assert rep["tests"] == []
        assert rep["summary"]["n_fail"] == 0

    def test_json_round_trip(self, gauss_ensemble):
        entries = _entries(gauss_ensemble, GAUSS_POINT, "sym_")
        rep = build_report(entries, {"seed": 7})
        assert json.loads(report_json(rep)) == rep

    def test_json_deterministic(self, gauss_ensemble):
        entries = _entries(gauss_ensemble, GAUSS_POINT, "sym_")
        a = report_json(build_report(entries, {"seed": 7}))
        b = report_json(build_report(_entries(gauss_ensemble, GAUSS_POINT, "sym_"), {"seed": 7}))
        assert a == b


class TestGateCalibration:
    def test_familywise_false_failure_rate(self):
        # 100 independent seeds of the Gaussian case, 30 weak-form tests each:
        # families with any false failure at 4 sigma should stay below 5%
        c = classify(GAUSS_POINT)
        s = make_sampler(c, SamplerConfig(rho=0.5))
        bad = 0
        for seed in range(100):
            e = sample_ensemble(s, 40, 400, seed)
            entries = weak_form_residuals(e, GAUSS_POINT)
            if any(not x.passed for x in entries):
                bad += 1
        assert bad <= 5


def _weak_form_unhoisted(e, p, degree):
    """Per-chain weak-form means with each monomial's powers recomputed, as
    before the powers were hoisted out of the monomial loop."""
    v = e.values
    xp, xm, xn = v[:, :-2], v[:, 1:-1], v[:, 2:]
    a = p.rho / (1.0 + p.rho * p.rho)
    lin = xm - a * (xp + xn)
    quad = xm * xm - (p.A * (xp * xp + xn * xn) + p.B * xp * xn
                      + p.D * (xp + xn) + p.C)
    out = []
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            g = xp ** i * xn ** j
            out += [(lin * g).mean(axis=1), (quad * g).mean(axis=1)]
    return out


class TestWeakFormHoistedPowers:
    @pytest.mark.parametrize("degree", [4])
    def test_bitwise_against_unhoisted(self, gauss_ensemble, degree):
        from qfields.verify import _gate
        ref = [_gate("", "", m) for m in
               _weak_form_unhoisted(gauss_ensemble, GAUSS_POINT, degree)]
        got = weak_form_residuals(gauss_ensemble, GAUSS_POINT)
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert (g.estimate, g.stderr, g.passed) == (r.estimate, r.stderr, r.passed)


def _unblocked_per_chain(e, p, q, degree, n_max, m_max):
    """Per-chain arrays of the four batteries computed on the whole ensemble at
    once, in battery order (corr lags 1..5, weak form, symmetry, eigen rows)."""
    from qfields import qpoly
    v = e.values
    cols = [(v[:, :-k] * v[:, k:]).mean(axis=1) - p.rho ** k for k in range(1, 6)]
    xp, xm, xn = v[:, :-2], v[:, 1:-1], v[:, 2:]
    a = p.rho / (1.0 + p.rho * p.rho)
    lin = xm - a * (xp + xn)
    quad = xm * xm - (p.A * (xp * xp + xn * xn) + p.B * xp * xn
                      + p.D * (xp + xn) + p.C)
    pp = [xp ** i for i in range(degree + 1)]
    pn = [xn ** j for j in range(degree + 1)]
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            g = pp[i] * pn[j]
            cols += [(lin * g).mean(axis=1), (quad * g).mean(axis=1)]
    cols += [v.mean(axis=1), (v ** 3).mean(axis=1)]
    deg = max(n_max, m_max, 1)
    tabs = qpoly.qhermite_table(v.ravel(), q, deg).reshape(deg + 1, *v.shape)
    for n in range(1, n_max + 1):
        resid = tabs[n][:, 1:] - p.rho ** n * tabs[n][:, :-1]
        cols += [(resid * tabs[m][:, :-1]).mean(axis=1) for m in range(m_max + 1)]
    return cols


class TestBlockedStatistics:
    """The suite computes its per-chain statistics on blocks of whole chains;
    every estimate and standard error must equal the unblocked formulas bit
    for bit, across partial blocks and one-chain blocks."""

    @pytest.mark.parametrize("n_chains,n_steps", [(1, 3001), (7, 3001), (13, 3001),
                                                  (3, 40000)])
    def test_bitwise_against_unblocked(self, n_chains, n_steps):
        p = params_from_rho_q(0.5, 0.5)
        c = classify(p)
        rng = np.random.default_rng(n_chains * n_steps)
        e = Ensemble(values=rng.standard_normal((n_chains, n_steps)))
        got = standard_suite(e, p, c)
        ref = _unblocked_per_chain(e, p, c.eigen_q, degree=4, n_max=4, m_max=4)
        assert len(got) == len(ref) == 57
        for entry, col in zip(got, ref):
            est = float(col.mean())
            se = float(col.std(ddof=1) / np.sqrt(col.size)) if col.size > 1 else 0.0
            assert entry.estimate == est, entry.test_id
            assert entry.stderr == se, entry.test_id

    def test_traced_peak_memory_bounded(self):
        p = params_from_rho_q(0.5, 0.5)
        c = classify(p)
        e = Ensemble(values=np.random.default_rng(5).standard_normal((200, 5000)))
        tracemalloc.start()
        try:
            standard_suite(e, p, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


import math

import numpy as np
import pytest

from qfields import qpoly
from qfields.kernel import mehler_kernel
from qfields.qpoly import (AllPositive, FailsAt, TerminatesAt, favard_scan, q_brackets,
                           q_factorials, qhermite_table)


class TestBrackets:
    def test_hand_values(self):
        assert q_brackets(4, 0.5)[4] == pytest.approx(1.875, abs=1e-15)
        assert q_brackets(3, 4.0)[3] == pytest.approx(21.0, abs=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17])
    def test_q_one_is_n(self, n):
        assert q_brackets(n, 1.0)[n] == n

    def test_q_minus_one_alternates(self):
        assert [q_brackets(n, -1.0)[n] for n in range(5)] == [0.0, 1.0, 0.0, 1.0, 0.0]

    def test_recurrence_consistency(self):
        br = qpoly.q_brackets(10, 0.37)
        for n in range(1, 11):
            assert br[n] == pytest.approx(br[n - 1] * 0.37 + 1.0, rel=1e-15)

    def test_factorial_values(self):
        assert q_factorials(3, 0.5)[3] == pytest.approx(2.625, abs=1e-15)
        assert q_factorials(0, 0.9)[0] == 1.0
        assert q_factorials(5, 1.0)[5] == pytest.approx(math.factorial(5), abs=1e-12)

    def test_factorials_array(self):
        fa = qpoly.q_factorials(6, 0.5)
        assert fa[0] == 1.0
        for n in range(7):  # [j]_q = (1 - q^j) / (1 - q)
            assert fa[n] == pytest.approx(math.prod((1.0 - 0.5 ** j) / 0.5 for j in range(1, n + 1)),
                                          rel=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            q_brackets(-1, 0.5)[-1]
        with pytest.raises(ValueError):
            q_factorials(-2, 0.5)[-2]


def _coefficient_oracle(q: float, n_max: int) -> list[np.ndarray]:
    """Coefficient arrays of Q_n built by the same recurrence in coefficient
    space; evaluation via Horner is an independent route to the values."""
    coeffs = [np.array([1.0]), np.array([0.0, 1.0])]
    for n in range(1, n_max):
        br = q_brackets(n, q)[n]
        nxt = np.zeros(n + 2)
        nxt[1:] += coeffs[n]
        nxt[: n] -= br * coeffs[n - 1]
        coeffs.append(nxt)
    return coeffs[: n_max + 1]


class TestQHermite:
    @pytest.mark.parametrize("q", [-0.9, 0.0, 0.5, 1.0])
    def test_q2_is_x_squared_minus_one(self, q):
        xs = np.linspace(-3, 3, 7)
        tab = qhermite_table(xs, q, 2)
        assert np.allclose(tab[2], xs * xs - 1.0, atol=1e-14)

    def test_hand_values(self):
        assert qhermite_table(2.0, 1.0, 3)[3, 0] == pytest.approx(2.0, abs=1e-14)  # x^3 - 3x
        assert qhermite_table(1.5, 0.0, 3)[3, 0] == pytest.approx(0.375, abs=1e-14)  # x^3 - 2x

    @pytest.mark.parametrize("q", [-0.9, 0.0, 0.5, 1.0])
    def test_against_coefficient_oracle(self, q):
        rng = np.random.default_rng(20240511)
        xs = rng.uniform(-2.5, 2.5, 20)
        coeffs = _coefficient_oracle(q, 12)
        tab = qhermite_table(xs, q, 12)
        for n in range(13):
            expected = np.polyval(coeffs[n][::-1], xs)
            assert np.allclose(tab[n], expected, atol=1e-10, rtol=1e-10)

    def test_degree_cap(self):
        qhermite_table(np.array([0.5]), 0.3, qpoly.MAX_DEGREE)
        with pytest.raises(ValueError):
            qhermite_table(np.array([0.5]), 0.3, qpoly.MAX_DEGREE + 1)


def _asc_coefficient(n: int, rho: float, q: float) -> float:
    """Product coefficient c_n = (1 - rho^2 q^(n-1)) [n]_q of the p_n recurrence,
    the coefficient favard_scan scans."""
    return (1.0 - rho * rho * q ** (n - 1)) * float(q_brackets(n, q)[n])


def _asc_table(x, y: float, rho: float, q: float, n_max: int) -> np.ndarray:
    """p_0..p_{n_max} at the points ``x``, shape (n_max+1, len(x)): the
    Al-Salam-Chihara family orthogonal for the conditional law given one
    neighbour y, by its recurrence in extended precision,
    p_0 = 1, p_1 = x - rho*y, p_{n+1} = (x - rho*y*q^n) p_n - c_n p_{n-1}.
    At rho -> 0 the family degenerates to the q-Hermite polynomials."""
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


class TestConditionalFamily:
    def test_first_step(self):
        assert _asc_table(1.0, 1.0, 0.5, 0.3, 1)[1, 0] == pytest.approx(0.5, abs=1e-15)

    def test_hand_second_step(self):
        # p1 = 0.3 + 0.1 = 0.4; p2 = (0.3 + 0.05)*0.4 - 0.75*1 = -0.61
        vals = _asc_table(0.3, -0.2, 0.5, 0.5, 2)[:, 0]
        assert vals[1] == pytest.approx(0.4, abs=1e-15)
        assert vals[2] == pytest.approx(-0.61, abs=1e-15)

    @pytest.mark.parametrize("q", [-0.5, 0.0, 0.7])
    def test_small_rho_limit_is_qhermite(self, q):
        xs = np.linspace(-1.5, 1.5, 9)
        near = _asc_table(xs, y=0.8, rho=1e-12, q=q, n_max=8)
        ref = qhermite_table(xs, q, 8)
        assert np.allclose(near, ref, atol=1e-9)

    def test_coefficient_values(self):
        assert _asc_coefficient(1, 0.5, 0.77) == pytest.approx(0.75, abs=1e-15)
        assert _asc_coefficient(2, 0.5, 4.0) == pytest.approx(0.0, abs=1e-15)
        assert _asc_coefficient(3, 0.5, 3.0) == pytest.approx(-16.25, abs=1e-12)

    # the ladder of MehlerQ.expect raises QuadratureError at (-0.8, -0.99) and (0.5, 0.99)
    @pytest.mark.parametrize("rho, q", [(0.5, 0.5), (0.5, -0.5), (0.5, -0.9), (0.8, 0.9),
                                        (0.95, 0.5), (0.3, 0.0)])
    def test_orthogonal_for_the_kernel_conditional_law(self, rho, q):
        # E[p_n(X) | y] = 0 for n = 1..8 under the kernel's law f(. | y), relative to
        # ||p_n||^2 = c_1...c_n; the expansion truncated at N >= 8 integrates p_n, n <= N,
        # as the full series does.  p_n built at 1.1 rho is the negative control
        k = mehler_kernel(rho, q)
        assert k.truncation >= 8
        norm = np.sqrt(np.cumprod([_asc_coefficient(n, rho, q) for n in range(1, 9)]))
        for c in (-0.9, -0.4, 0.0, 0.3, 0.8):
            y = c * 2.0 / math.sqrt(1.0 - q)
            got = k.expect(y, lambda x: _asc_table(x, y, rho, q, 8)[1:] / norm[:, None])
            assert np.max(np.abs(got)) <= 1e-9, (y, got)
            wrong = k.expect(y, lambda x: _asc_table(x, y, 1.1 * rho, q, 8)[1:] / norm[:, None])
            assert np.max(np.abs(wrong)) > 1e-3, (y, wrong)


class TestFavard:
    def test_lattice_m1(self):
        v = favard_scan(0.5, 4.0, 100)
        assert v == TerminatesAt(n0=2, m=1)

    def test_off_lattice_fails(self):
        assert favard_scan(0.5, 3.0, 100) == FailsAt(n0=3)

    def test_inside_unit_all_positive(self):
        assert favard_scan(0.5, 0.5, 1000) == AllPositive()

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_lattice_detection(self, rho, m):
        q = (rho * rho) ** (-1.0 / m)
        v = favard_scan(rho, q, 200)
        assert v == TerminatesAt(n0=m + 1, m=m)

    def test_off_lattice_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rho = rng.uniform(0.2, 0.9)
            q = rng.uniform(1.05, 6.0)
            m_star = -2.0 * math.log(rho) / math.log(q)
            if abs(m_star - round(m_star)) < 1e-3:
                continue
            v = favard_scan(rho, q, 500)
            assert isinstance(v, FailsAt)
            bound = math.ceil(1.0 + math.log(1.0 / rho ** 2) / math.log(q)) + 1
            assert v.n0 <= bound

    def test_random_inside_unit(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rho = rng.uniform(0.1, 0.95)
            q = rng.uniform(-0.999, 1.0)
            assert favard_scan(rho, q, 300) == AllPositive()

    @pytest.mark.parametrize("q, n_neg", [(1.01, 141), (1.001, 1388)])
    def test_undecided_above_one_raises(self, q, n_neg):
        # c_n -> -inf at q > 1: a scan that ends before the sign change is no AllPositive
        with pytest.raises(ValueError, match=f"turn negative at n = {n_neg}$"):
            favard_scan(0.5, q, 100)
        with pytest.raises(ValueError, match=f"turn negative at n = {n_neg}$"):
            favard_scan(0.5, q, n_neg - 1)
        assert favard_scan(0.5, q, n_neg) == FailsAt(n0=n_neg)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            favard_scan(0.0, 0.5, 10)
        with pytest.raises(ValueError):
            favard_scan(0.5, 0.5, 0)

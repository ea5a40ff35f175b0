import io
import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qfields import measure, qpoly, simulate
from qfields.kernel import (GaussianAR1, MehlerQ, ScaledTwoPointChain, TwoPointChain,
                            _mehler_coeffs, mehler_kernel)
from qfields.measure import RadialLaw, theta_cells, theta_to_x, theta_weight
from qfields.params import (FieldParams, NonexistentDegenerate, OpenLattice,
                            classify, params_from_rho_q)
from qfields.simulate import (SamplerConfig, SamplerError,
                              make_sampler, read_csv, sample_ensemble, write_csv)
from qfields.simulate import Ensemble, _conditional_quantile

SQRT2 = math.sqrt(2.0)


def _sampler(case: str, rho: float = 0.5, q: float = 0.0, radial=None):
    if case == "gaussian":
        c = classify(params_from_rho_q(rho, 1.0))
        cfg = SamplerConfig(rho=rho)
    elif case == "qgaussian":
        c = classify(params_from_rho_q(rho, q))
        cfg = SamplerConfig(rho=rho, q=q)
    elif case == "twopoint":
        A = rho * rho / (1.0 + rho ** 4)
        c = classify(FieldParams(rho, A, 0.0, 1.0 - 2.0 * A, 0.0))
        cfg = SamplerConfig(rho=rho)
    else:
        c = classify(FieldParams(rho, 0.5, 0.0, 0.0, 0.0))
        cfg = SamplerConfig(rho=rho, radial=radial)
    return make_sampler(c, cfg)


class TestMakeSampler:
    def test_dispatch(self):
        assert isinstance(_sampler("gaussian").kernel, GaussianAR1)
        assert isinstance(_sampler("qgaussian").kernel, MehlerQ)
        assert isinstance(_sampler("twopoint").kernel, TwoPointChain)
        radial = RadialLaw(values=(1.0,), probs=(1.0,))
        assert isinstance(_sampler("scaled", radial=radial).kernel, ScaledTwoPointChain)

    def test_rejects_open_lattice(self):
        c = OpenLattice(m=1)
        with pytest.raises(SamplerError, match="open"):
            make_sampler(c, SamplerConfig(rho=0.5))

    def test_rejects_degenerate(self):
        with pytest.raises(SamplerError):
            make_sampler(NonexistentDegenerate(), SamplerConfig(rho=0.5))

    def test_scaled_requires_radial(self):
        c = classify(FieldParams(0.5, 0.5, 0.0, 0.0, 0.0))
        with pytest.raises(SamplerError, match="radial"):
            make_sampler(c, SamplerConfig(rho=0.5))

    def test_gaussian_near_unit_rho_accepted(self):
        # the AR(1) chain is stationary for every |rho| < 1
        for rho in (0.99, -0.999):
            s = _sampler("gaussian", rho=rho)
            assert (type(s.kernel), s.kernel.rho) == (GaussianAR1, rho)

    def test_samplers_compare_by_identity(self):
        # the q-Gaussian tables hold arrays, whose == has no single truth value
        a, b = _sampler("qgaussian", q=0.5), _sampler("qgaussian", q=0.5)
        assert a == a and a != b
        assert a.conditional == a.conditional and a.conditional != b.conditional

    def test_degenerate_radial_recovers_two_point_values(self):
        radial = RadialLaw(values=(1.0,), probs=(1.0,))
        s = _sampler("scaled", radial=radial)
        e = sample_ensemble(s, 8, 500, 11)
        assert set(np.unique(e.values)) == {-1.0, 1.0}


def _pchip():
    return measure.pchip(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 3.0]))


@pytest.mark.parametrize("make", [
    lambda: Ensemble(values=np.zeros((2, 3))),
    _pchip,
    lambda: measure.CdfTable(x=np.array([0.0, 1.0, 2.0]), max_error=0.0, _quantile=_pchip())],
    ids=["Ensemble", "Pchip", "CdfTable"])
def test_array_holders_compare_and_hash_by_identity(make):
    # a field-wise == of arrays has no single truth value, and arrays do not hash
    a, b = make(), make()
    assert (a == a) is True and (a == b) is False and (a != b) is True
    assert len({a, b, a}) == 2


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        s = _sampler("gaussian", rho=0.6)
        bufs = []
        for _ in range(2):
            e = sample_ensemble(s, 10, 100, 77)
            buf = io.StringIO()
            write_csv(e, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    @pytest.mark.parametrize("case", ["gaussian", "twopoint", "qgaussian"])
    def test_worker_independence(self, case):
        s = _sampler(case)
        ref = sample_ensemble(s, 12, 120, 5)
        for _ in range(2):
            e = sample_ensemble(s, 12, 120, 5)
            assert np.array_equal(ref.values, e.values)

    def test_different_seeds_differ(self):
        s = _sampler("gaussian")
        a = sample_ensemble(s, 4, 50, 1)
        b = sample_ensemble(s, 4, 50, 2)
        assert not np.array_equal(a.values, b.values)

    def test_chains_are_distinct_streams(self):
        s = _sampler("gaussian")
        e = sample_ensemble(s, 4, 200, 42)
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(e.values[i], e.values[j])

    def test_argument_validation(self):
        s = _sampler("gaussian")
        with pytest.raises(ValueError):
            sample_ensemble(s, 0, 10, 1)
        with pytest.raises(ValueError):
            sample_ensemble(s, 1, 0, 1)
        with pytest.raises(ValueError):
            sample_ensemble(s, 1, 10, -3)


class TestStatisticalGates:
    def test_ar1_lag_two(self):
        s = _sampler("gaussian", rho=0.6)
        e = sample_ensemble(s, 200, 5000, 42)
        per_chain = (e.values[:, :-2] * e.values[:, 2:]).mean(axis=1)
        est = per_chain.mean() - 0.36
        se = per_chain.std(ddof=1) / math.sqrt(len(per_chain))
        assert abs(est) <= 4.0 * se

    def test_two_point_stay_frequency(self):
        s = _sampler("twopoint", rho=0.5)
        e = sample_ensemble(s, 100, 2000, 42)
        stays = (e.values[:, 1:] == e.values[:, :-1]).mean(axis=1)
        est = stays.mean() - 0.75
        se = stays.std(ddof=1) / math.sqrt(len(stays))
        assert abs(est) <= 4.0 * se

    def test_scaled_square_constant_within_chain(self):
        radial = RadialLaw(values=(SQRT2, 0.0), probs=(0.5, 0.5))
        s = _sampler("scaled", radial=radial)
        e = sample_ensemble(s, 40, 300, 13)
        sq = e.values ** 2
        assert np.allclose(sq, sq[:, :1])  # X_t^2 = X_{t+1}^2 along each chain
        radii = np.unique(np.round(sq[:, 0], 12))
        assert set(radii) <= {0.0, 2.0}

    def test_stationarity_in_law_halves(self):
        # first-half vs second-half marginal KS on a pooled ensemble
        s = _sampler("gaussian", rho=0.5)
        e = sample_ensemble(s, 100, 1000, 19)
        half = e.n_steps // 2
        a = np.sort(e.values[:, :half].ravel())
        b = np.sort(e.values[:, half:].ravel())
        grid = np.concatenate([a, b])
        fa = np.searchsorted(a, grid, side="right") / a.size
        fb = np.searchsorted(b, grid, side="right") / b.size
        d = np.abs(fa - fb).max()
        # conservative two-sample gate at the 99.9% one-sample quantile scale
        n_eff = a.size * b.size / (a.size + b.size)
        assert d <= 1.9495 / math.sqrt(n_eff) * 2.0

    def test_time_reversal_joint_moments(self):
        s = _sampler("qgaussian", rho=0.5, q=0.0)
        e = sample_ensemble(s, 100, 2000, 23)
        fwd = (e.values[:, :-1] * e.values[:, 1:] ** 2).mean(axis=1)
        bwd = (e.values[:, :-1] ** 2 * e.values[:, 1:]).mean(axis=1)
        diff = fwd - bwd
        est = diff.mean()
        se = diff.std(ddof=1) / math.sqrt(len(diff))
        assert abs(est) <= 4.0 * se

    def test_mehler_marginal_moments(self):
        s = _sampler("qgaussian", rho=0.7, q=0.5)
        e = sample_ensemble(s, 100, 2000, 29)
        per_chain = (e.values ** 2).mean(axis=1)
        est = per_chain.mean() - 1.0
        se = per_chain.std(ddof=1) / math.sqrt(len(per_chain))
        assert abs(est) <= 4.0 * se

    def test_mehler_negative_rho_anticorrelated(self):
        s = _sampler("qgaussian", rho=-0.5, q=0.0)
        e = sample_ensemble(s, 100, 1000, 31)
        per_chain = (e.values[:, :-1] * e.values[:, 1:]).mean(axis=1)
        est = per_chain.mean() + 0.5
        se = per_chain.std(ddof=1) / math.sqrt(len(per_chain))
        assert abs(est) <= 4.0 * se


class TestCsv:
    def test_header_and_shape(self):
        s = _sampler("gaussian")
        e = sample_ensemble(s, 1, 2, 3)
        buf = io.StringIO()
        write_csv(e, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "chain,t,x"
        assert len(lines) == 3

    def test_round_trip_bit_for_bit(self):
        s = _sampler("qgaussian")
        e = sample_ensemble(s, 5, 64, 21)
        buf = io.StringIO()
        write_csv(e, buf)
        back = read_csv(io.StringIO(buf.getvalue()))
        assert np.array_equal(back.values, e.values)

    def test_lexicographic_order(self):
        s = _sampler("gaussian")
        e = sample_ensemble(s, 3, 4, 5)
        buf = io.StringIO()
        write_csv(e, buf)
        rows = [ln.split(",")[:2] for ln in buf.getvalue().splitlines()[1:]]
        keys = [(int(c), int(t)) for c, t in rows]
        assert keys == sorted(keys)

    def test_file_round_trip(self, tmp_path):
        s = _sampler("twopoint")
        e = sample_ensemble(s, 4, 32, 8)
        path = tmp_path / "chains.csv"
        write_csv(e, path)
        back = read_csv(path)
        assert np.array_equal(back.values, e.values)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            read_csv(io.StringIO("a,b,c\n0,0,1.0\n"))

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            read_csv(io.StringIO("chain,t,x\n0,0,1.0\n0,1,2.0\n1,0,3.0\n"))

    def test_noncontiguous_rejected(self):
        with pytest.raises(ValueError, match="contiguous"):
            read_csv(io.StringIO("chain,t,x\n0,0,1.0\n2,0,3.0\n"))


class TestCsvTimeColumn:
    @pytest.mark.parametrize("body", [
        "0,1,2.0\n0,0,1.0\n1,0,3.0\n1,1,4.0\n",  # t shuffled within a chain
        "0,0,1.0\n0,7,2.0\n1,0,3.0\n1,1,4.0\n",  # gap in t
        "0,0,1.0\n1,0,3.0\n0,1,2.0\n1,1,4.0\n",  # chains interleaved
        "1,0,3.0\n1,1,4.0\n0,0,1.0\n0,1,2.0\n",  # chains out of order
    ])
    def test_out_of_order_rows_rejected(self, body):
        with pytest.raises(ValueError, match="t = 0..n-1"):
            read_csv(io.StringIO("chain,t,x\n" + body))

    def test_header_only_has_no_rows(self):
        with pytest.raises(ValueError, match="no data rows"):
            read_csv(io.StringIO("chain,t,x\n"))

    def test_ordered_rows_read(self):
        e = read_csv(io.StringIO("chain,t,x\n0,0,1.0\n0,1,2.0\n1,0,3.0\n1,1,-0\n"))
        assert e.values.tolist() == [[1.0, 2.0], [3.0, -0.0]]
        assert e.values.flags.c_contiguous and not e.values.flags.writeable


def _rowwise_csv(e) -> str:
    """Oracle: one f-string per row, the writer's original formulation."""
    lines = ["chain,t,x\n"]
    for cid, row in enumerate(e.values):
        lines.extend(f"{cid},{t},{v:.17g}\n" for t, v in enumerate(row))
    return "".join(lines)


def _written(e) -> str:
    buf = io.StringIO()
    write_csv(e, buf)
    return buf.getvalue()


class TestCsvWriterBytes:
    EDGES = [-0.0, 5e-324, 1.0, 1e300, -1e-7, 0.1, -2.5, 1.0 / 3.0]

    def test_edge_values_match_rowwise_oracle(self):
        vals = np.array([self.EDGES] * 12) * np.arange(1, 13)[:, None]
        vals[:, 0] = -0.0
        e = Ensemble(values=vals)
        text = _written(e)
        assert text == _rowwise_csv(e)
        assert "11,0,-0\n" in text and "0,1,4.9406564584124654e-324\n" in text

    def test_one_step_twelve_chains(self):
        e = Ensemble(values=np.array(self.EDGES[:4] * 3)[:, None])
        assert e.n_chains == 12 and e.n_steps == 1
        assert _written(e) == _rowwise_csv(e)

    def test_sampled_chains_match_rowwise_oracle(self):
        e = sample_ensemble(_sampler("qgaussian", q=0.5), 12, 40, 3)
        assert _written(e) == _rowwise_csv(e)

    def test_path_and_stream_sinks_agree(self, tmp_path):
        e = sample_ensemble(_sampler("gaussian"), 12, 25, 5)
        path = tmp_path / "chains.csv"
        write_csv(e, path)
        write_csv(e, str(tmp_path / "chains2.csv"))
        assert path.read_bytes() == _written(e).encode()
        assert (tmp_path / "chains2.csv").read_bytes() == path.read_bytes()

    # the writer against '%.17g' itself, at fixed seeds: whole files against the
    # row-wise oracle, and the number column value by value

    def test_random_bit_patterns_match_rowwise_oracle(self):
        # every kind of float64: NaN payloads, infinities, subnormals, both zeros
        bits = np.random.default_rng(2605).integers(0, 2 ** 64, (40, 5000), dtype=np.uint64)
        e = Ensemble(values=bits.view(np.float64))
        assert _written(e) == _rowwise_csv(e)

    def test_near_powers_of_ten(self):
        # the decimal exponent's first guess is off by one near 10**X, and the
        # rounding to 17 digits carries into the next decade just below it
        ulps = np.arange(-8, 9).astype(np.uint64)
        powers = (10.0 ** np.arange(-5, 17)).view(np.uint64)
        vals = (powers[:, None] + ulps).view(np.float64).ravel()
        vals = np.concatenate([vals, -vals, np.nextafter(10.0 ** np.arange(-5, 17), 0.0)])
        assert _numbers(vals) == ["%.17g" % v for v in vals]

    def test_ties_round_half_to_even(self):
        # 10**a + j / 2**b: short binary fractions on a decimal scale, where the
        # 17-digit rounding meets exact ties
        rng = np.random.default_rng(26)
        a, b = rng.integers(-4, 15, 20000), rng.integers(1, 64, 20000)
        vals = 10.0 ** a + rng.integers(1, 2 ** 12, 20000) / 2.0 ** b
        exponents = [int(("%.16e" % v).split("e")[1]) for v in vals.tolist()]
        ties = sum(1 for v, e in zip(vals.tolist(), exponents)
                   if (Fraction(v) * 10 ** (16 - e)).denominator == 2)
        assert ties >= 100  # the set holds ties, so half to even is tested
        assert _numbers(vals) == ["%.17g" % v for v in vals]
        assert _numbers(-vals) == ["%.17g" % v for v in -vals]

    def test_ends_of_the_fast_range(self):
        # |x| in [1e-4, 1e15) is formatted by integer arithmetic, the rest by '%.17g'
        ends = np.array([1e-4, 1e15])
        vals = np.concatenate([np.nextafter(ends, 0.0), ends, np.nextafter(ends, np.inf)])
        vals = np.concatenate([vals, -vals])
        assert _numbers(vals) == ["%.17g" % v for v in vals]

    @pytest.mark.parametrize("a,e,shift", [
        (np.nextafter(1e15, 0.0), 14, 1), (np.nextafter(1e15, 0.0), 15, 2), (2.0 ** 49, 14, 1),
        (1e-4, -4, 46), (np.nextafter(1e-4, 1.0), -4, 46), (np.nextafter(2.0 ** -13, 0.0), -4, 46)])
    def test_rounding_shift_at_both_ends(self, a, e, shift):
        # the right shift of the 128-bit product by r = -(s + k) stays in 1..63 over
        # every decimal exponent the correction visits: r = 1 and 2 at the top of the
        # range, 46 at the bottom
        exponent = math.frexp(a)[1]  # a = m * 2**(exponent - 53), 2**52 <= m < 2**53
        assert -(exponent - 53 + 16 - e) == shift
        got = simulate._rounded(np.array([a]), np.array([e]))
        assert got.tolist() == [round(Fraction(a) * 10 ** (16 - e))]

    def test_fallback_and_fast_values_mixed(self):
        fallback = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072009e-308,
                    9.9999999999999991e-05, -1e-300, 1e15, -1.7976931348623157e308, 1e300]
        fast = [1e-4, -0.1, 1.0, 123.456, -2.5, 99999999999999.98, 1.0 / 3.0, -4.0]
        vals = np.array((fallback + fast) * 25)
        np.random.default_rng(7).shuffle(vals)
        e = Ensemble(values=vals.reshape(5, 100))
        assert _written(e) == _rowwise_csv(e)

    @pytest.mark.parametrize("first,n_steps", [(8, 12), (98, 101), (998, 1001), (9998, 10001)])
    def test_ids_and_steps_cross_powers_of_ten(self, first, n_steps):
        # the chain id and the step change width within a block; 10001 steps also
        # take more than one block of rows (_WRITE_ROWS)
        rng = np.random.default_rng(first)
        values = rng.standard_normal((4, n_steps)) * 10.0 ** rng.integers(-3, 5, (4, n_steps))
        ids = range(first, first + 4)
        buf = io.StringIO()
        simulate._write_rows(buf, ids, values)
        assert buf.getvalue() == "".join(f"{cid},{t},{v:.17g}\n" for cid, row in zip(ids, values)
                                         for t, v in enumerate(row))


def _numbers(vals) -> list[str]:
    """The x column that the writer writes for vals, as one chain."""
    buf = io.StringIO()
    simulate._write_rows(buf, range(1), np.asarray(vals, dtype=np.float64)[None, :])
    return [line.rsplit(",", 1)[1] for line in buf.getvalue().splitlines()]


def _loop_quantile(tables, y, u):
    """Oracle: the per-row, per-factor loop formulation of the stencil."""
    n_y, n_u = tables.quantiles.shape
    pos = u * (n_u - 1)
    iu = np.clip(pos.astype(np.int64), 0, n_u - 2)
    fu = pos - iu
    j0 = np.clip(np.searchsorted(tables.y_nodes, y) - 2, 0, n_y - 4)
    x = np.zeros_like(y)
    wsum = np.zeros_like(y)
    yn = tables.y_nodes
    for a in range(4):
        ja = j0 + a
        w = np.ones_like(y)
        for b2 in range(4):
            if b2 == a:
                continue
            jb = j0 + b2
            w *= (y - yn[jb]) / (yn[ja] - yn[jb])
        qa = tables.quantiles[ja, iu] * (1.0 - fu) + tables.quantiles[ja, iu + 1] * fu
        x += w * qa
        wsum += w
    x /= wsum
    return np.clip(x, -tables.support_radius, tables.support_radius)


class TestConditionalQuantileStencil:
    # (0.95, 0.9) is the narrow law, (-0.8, -0.99) the bimodal one, and (0.01, 0.5)
    # has its kernel series truncated at N = 6
    @pytest.mark.parametrize("rho,q", [(0.5, 0.5), (-0.3, -0.5), (0.8, -0.9), (0.95, 0.9),
                                       (-0.8, -0.99), (0.01, 0.5)])
    def test_bit_identical_to_loop_oracle(self, rho, q):
        tables = _sampler("qgaussian", rho=rho, q=q).conditional
        s = tables.support_radius
        rng = np.random.default_rng(11)
        y = rng.uniform(-s, s, 10_000)
        u = rng.random(10_000)
        y[:6] = [-s, s, -s, s, 0.0, -0.0]
        u[:6] = [0.0, 1.0, 1.0, 0.0, 0.0, 1.0]
        y[6:6 + tables.y_nodes.size] = tables.y_nodes  # stencil boundaries
        got = _conditional_quantile(tables, y, u)
        want = _loop_quantile(tables, y, u)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        one = _conditional_quantile(tables, y[:1], u[:1])  # a single chain
        assert np.array_equal(one.view(np.int64), want[:1].view(np.int64))

    def test_denominator_table(self):
        tables = _sampler("qgaussian", q=0.5).conditional
        yn = tables.y_nodes
        assert tables.stencil_den.shape == (yn.size - 3, 4, 3)
        assert tables.stencil_den[10, 2].tolist() == [yn[12] - yn[10], yn[12] - yn[11],
                                                     yn[12] - yn[13]]


def _qhermite_oracle(x, q, n_max):
    """Oracle: the whole (n_max + 1, len(x)) long-double recurrence, then one
    rounding of the table to float64."""
    xs = np.atleast_1d(np.asarray(x, dtype=np.longdouble))
    tab = np.empty((n_max + 1, xs.size), dtype=np.longdouble)
    tab[0] = 1.0
    if n_max >= 1:
        tab[1] = xs
    br, qq = np.longdouble(0.0), np.longdouble(q)
    for n in range(1, n_max):
        br = br * qq + 1.0
        tab[n + 1] = xs * tab[n] - br * tab[n - 1]
    return tab.astype(np.float64)


def _whole_grid_masses(k, y_nodes, theta_edges):
    """Oracle: the cell masses from one kernel matrix over every node at once."""
    nodes, wts = (a.ravel() for a in theta_cells(theta_edges, simulate._CELL_NODES))
    qx = _qhermite_oracle(theta_to_x(k.law, nodes), k.q, k.truncation)
    qy = _qhermite_oracle(y_nodes, k.q, k.truncation)
    ker = (qx * _mehler_coeffs(k)[:, None]).T @ qy
    integrand = np.maximum(theta_weight(k.law, nodes)[:, None] * ker, 0.0)
    return (wts[:, None] * integrand).reshape(-1, simulate._CELL_NODES, y_nodes.size).sum(axis=1)


def _whole_block_oracle(s, ids, n_steps, master_seed):
    """Oracle: every uniform of the block drawn before the first step, one
    (chains, n_steps + k - 1) array, k the uniforms of the first draw."""
    law = s.kernel.law
    k = law.n_uniforms
    u = np.empty((len(ids), n_steps + k - 1))
    for row, cid in zip(u, ids):
        key = np.array([master_seed, cid], dtype=np.uint64)
        np.random.Generator(np.random.Philox(key=key)).random(out=row)
    vals = np.empty((len(ids), n_steps))
    vals[:, 0] = law.draw(u[:, :k].T)
    for t in range(1, n_steps):
        vals[:, t] = s.step(vals[:, t - 1], u[:, t + k - 1])
    return vals


def _table_bytes(t):
    return [a.tobytes() for a in (t.y_nodes, t.quantiles, t.stencil_y, t.stencil_den, t.cells,
                                  t.start)] + [t.support_radius]


class TestBoundedMemoryBitIdentity:
    """The tables are built a block of theta-cells at a time, the q-Hermite
    recurrence on rolling rows and the uniforms drawn a chunk of steps at a time;
    each gives the bytes of its whole-array form."""

    # (0.95, 0.9) is the narrow law, (-0.8, -0.99) the bimodal one, (0.01, 0.5) has
    # its series truncated at N = 6, and at (0.3, 0) the law is the semicircle
    @pytest.mark.parametrize("rho,q", [(0.5, 0.5), (0.95, 0.9), (-0.8, -0.99), (0.01, 0.5),
                                       (0.3, 0.0)])
    def test_blocked_tables_match_whole_grid_oracle(self, rho, q, monkeypatch):
        k = mehler_kernel(rho, q)
        got = simulate._build_conditional_tables(k)
        monkeypatch.setattr(simulate, "_cell_masses", _whole_grid_masses)
        assert _table_bytes(got) == _table_bytes(simulate._build_conditional_tables(k))

    def test_refusal_matches_whole_grid_oracle(self, monkeypatch):
        k = mehler_kernel(0.5, 0.99)
        with pytest.raises(SamplerError) as got:
            simulate._build_conditional_tables(k)
        monkeypatch.setattr(simulate, "_cell_masses", _whole_grid_masses)
        with pytest.raises(SamplerError) as want:
            simulate._build_conditional_tables(k)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("conditional tables at rho=0.5, q=0.99 have non-finite")

    @pytest.mark.parametrize("n_max", [0, 1, 2, 12, 64])
    @pytest.mark.parametrize("q", [-0.99, -0.5, 0.0, 0.5, 0.9])
    def test_rolling_qhermite_matches_whole_table_oracle(self, n_max, q):
        x = 2.0 / math.sqrt(1.0 - q) * np.linspace(-1.25, 1.25, 1001)  # past the support too
        got = qpoly.qhermite_table(x, q, n_max)
        assert got.shape == (n_max + 1, x.size) and got.dtype == np.float64
        assert got.tobytes() == _qhermite_oracle(x, q, n_max).tobytes()
        assert qpoly.qhermite_table(x[3], q, n_max)[:, 0].tobytes() == got[:, 3].tobytes()

    @pytest.mark.parametrize("case", ["qgaussian", "scaled"])
    def test_chunked_uniforms_match_whole_block_oracle(self, case):
        # the scaled law's first draw takes two uniforms, the q-Gaussian one
        s = _sampler(case, q=0.5, radial=RadialLaw(values=(SQRT2, 0.0), probs=(0.5, 0.5)))
        chunk = simulate._STEP_CHUNK
        for n_steps in (1, 2, chunk, chunk + 1):
            got = simulate._sample_block(s, range(3, 9), n_steps, 42)
            want = _whole_block_oracle(s, range(3, 9), n_steps, 42)
            assert got.tobytes() == want.tobytes()


def _traced_peak_mb(fn) -> float:
    """The peak of the memory traced while fn runs (NumPy traces its buffers), MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """Traced peaks of warm runs, so they do not depend on the runner.  The tables
    are 2.1 MB and a 100 x 5000 block of chains 4 MB; whole-grid temporaries took
    the table build to 13.6 MB and whole-block uniforms the block to 8.0 MB."""

    @pytest.mark.parametrize("rho,q", [(0.5, 0.5), (0.95, 0.9)])
    def test_table_build_peak(self, rho, q):
        _sampler("qgaussian", rho=rho, q=q)  # Gauss-Legendre nodes
        assert _traced_peak_mb(lambda: _sampler("qgaussian", rho=rho, q=q)) < 8.0

    def test_block_of_chains_peak(self):
        s = _sampler("qgaussian", q=0.5)
        simulate._sample_block(s, range(100), 2, 42)  # the marginal table of the first draw
        assert _traced_peak_mb(lambda: simulate._sample_block(s, range(100), 5000, 42)) < 5.0

    def test_csv_writer_peak(self):
        # one block of at most _WRITE_ROWS rows of one chain at a time: about 0.5 MB
        block = simulate._sample_block(_sampler("qgaussian", q=0.5), range(100), 5000, 42)
        with open(os.devnull, "w") as sink:
            simulate._write_rows(sink, range(100), block)
            assert _traced_peak_mb(lambda: simulate._write_rows(sink, range(100), block)) < 1.0


class TestSamplerRefusals:
    def test_q_near_one_refused_by_name(self):
        with pytest.raises(SamplerError, match=r"rho=0\.5, q=0\.99.*N=64.*tail_estimate"):
            _sampler("qgaussian", rho=0.5, q=0.99)


class TestNoNumericWarnings:
    def test_first_draw_near_q_one_is_quiet(self, monkeypatch):
        import warnings

        from qfields import measure
        monkeypatch.setattr(measure, "_TABLE_CACHE", {})  # build the CDF table here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = _sampler("qgaussian", rho=0.5, q=0.98)
            e = sample_ensemble(s, 2, 10, 42)
        assert np.all(np.isfinite(e.values))


# the (rho, q) grid of the benchmark's kernel_scan workload
SCAN_RHOS = (-0.8, -0.3, 0.3, 0.5, 0.8, 0.95)
SCAN_QS = (-0.9, -0.5, 0.0, 0.5, 0.9, 0.99)


class TestKernelScanOutcomes:
    def test_outcome_table(self, capsys):
        # make_sampler refuses the q = 0.99 column by name; kernel-check exits 2 at
        # four of its points, where the node ladder does not converge
        from qfields.cli import run
        got, want = {}, {}
        for rho in SCAN_RHOS:
            for q in SCAN_QS:
                try:
                    make_sampler(classify(params_from_rho_q(rho, q)),
                                 SamplerConfig(rho=rho, q=q))
                    outcome = "ok"
                except SamplerError:
                    outcome = "refused"
                rc = run(["kernel-check", "--rho", repr(rho), "--q", repr(q), "--json"])
                got[rho, q] = (outcome, rc)
                want[rho, q] = (("refused", 0 if rho in (-0.3, 0.3) else 2) if q == 0.99
                                else ("ok", 0))
        capsys.readouterr()
        assert got == want

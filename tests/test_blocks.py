import math

import numpy as np
import pytest

from qclass import blocks as blk
from qclass import machines, mixed
from qclass.blocks import (
    BlockLabel, BlockOperator, IntegrityError, SpectrumParams, asymptotic_block_distribution,
    block_weights, coupled_jz, jz_expectation, trace_norm,
)
from qclass.oracle import average_state_diff_mixed, average_state_diff_pure
from qclass.su2 import HalfInteger, _cg_doubled


class TestSpectrumParams:
    def test_validation(self):
        SpectrumParams(3, 0.5)
        with pytest.raises(ValueError):
            SpectrumParams(3, 0.0)   # the normalization c_j is singular at r = 0
        with pytest.raises(ValueError):
            SpectrumParams(3, 1.2)
        with pytest.raises(ValueError):
            SpectrumParams(-1, 0.5)
        for bad in (True, 2.5):
            with pytest.raises(ValueError, match="^qubit count must be an integer"):
                SpectrumParams(bad, 0.5)


class TestBlockWeights:
    def test_pure_source_concentrates(self):
        ws = block_weights(SpectrumParams(2, 1.0))
        by_j = {w.j.twice_value: w for w in ws}
        assert by_j[2].p == pytest.approx(1.0, abs=1e-15)
        assert by_j[0].p == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(by_j[2].a, [0.0, 0.0, 1.0], atol=1e-15)

    def test_half_purity_single_qubit(self):
        w = block_weights(SpectrumParams(1, 0.5))[0]
        # weights equal the one-qubit eigenvalues (1 -+ r)/2
        np.testing.assert_allclose(w.a, [0.25, 0.75], atol=1e-15)
        assert w.c == pytest.approx(1.0, abs=1e-15)
        assert w.p == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 20])
    @pytest.mark.parametrize("r", [1e-12, 1e-6, 0.1, 0.5, 0.9, 1.0])
    def test_normalization(self, n, r):
        ws = block_weights(SpectrumParams(n, r))
        assert sum(w.p for w in ws) == pytest.approx(1.0, abs=1e-13)
        for w in ws:
            assert w.a.sum() == pytest.approx(1.0, abs=1e-13)
            assert (w.a >= 0).all()

    @pytest.mark.parametrize("n", [2000, 10_000])
    @pytest.mark.parametrize("r", [1e-6, 0.5, 0.999])
    def test_normalization_large_n(self, n, r):
        # the multiplicities nu_j exceed the float range here
        ws = block_weights(SpectrumParams(n, r))
        assert sum(w.p for w in ws) == pytest.approx(1.0, abs=1e-10)


def spectrum_at(n, r):
    """(2j, a, c, p, <Jz>) of every side at one purity, from the scalar per-r formulas
    the many-purity kernel replaced: the rows of ``spin_spectrum`` must equal them."""
    log_q = -math.inf if r == 1.0 else math.log1p(-r) + math.log1p(r) - math.log(4.0)
    out = []
    for tj in range(n % 2, n + 1, 2):
        if r == 1.0:
            a, log_c = np.zeros(tj + 1), 0.0
            a[-1] = 1.0
        else:
            L = math.log1p(-r) - math.log1p(r)
            tail = -math.expm1((tj + 1) * L)
            a = np.exp(L * np.arange(tj, -1, -1)) * (-math.expm1(L) / tail)
            log_c = (tj + 1) * (math.log1p(r) - math.log(2.0)) + math.log(tail / r)
        k = (n - tj) // 2
        log_nu = (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                  + math.log((tj + 1) / (n - k + 1)))
        p = math.exp(log_nu + log_c + (k * log_q if k else 0.0))
        out.append((tj, a, math.exp(log_c), p, float((np.arange(-tj, tj + 1, 2) / 2.0) @ a)))
    return out


class TestSpinSpectrum:
    FIG1 = [float(r) for r in np.linspace(0.1, 1.0, 46)]  # the default sweep grid

    @pytest.mark.parametrize("ns,rs", [(range(1, 61), FIG1 + [1e-12, 0.5, 1.0]), ([2000], [0.5])],
                             ids=["n60-fig1", "n2000"])
    def test_rows_match_one_purity(self, ns, rs):
        # every row of the many-purity kernel is the one-purity spectrum bit for bit:
        # a, c, p and <Jz>, through block_spectra, the lane, block_weights and jz_expectation
        for n in ns:
            want = [spectrum_at(n, r) for r in rs]
            lane = mixed._lane_spectrum(n, rs)
            for k, (tj, a, log_c, p) in enumerate(blk.block_spectra(n, rs)):
                jz = blk.mean_m(tj, a)
                for i, (r, sides) in enumerate(zip(rs, want)):
                    ref = sides[k]
                    assert (tj, a[i].tobytes(), math.exp(log_c[i]), p[i], jz[i]) \
                        == (ref[0], ref[1].tobytes(), *ref[2:])
                    assert (lane.p[i, k], lane.alpha[i, k]) \
                        == (ref[3], r * ref[4] / (max(tj, 1) / 2.0))
            for r, sides in list(zip(rs, want))[::7]:
                got = [(w.j.twice_value, w.a.tobytes(), w.c, w.p)
                       for w in block_weights(SpectrumParams(n, r))]
                assert got == [(tj, a.tobytes(), c, p) for tj, a, c, p, _ in sides]
                assert [jz_expectation(HalfInteger(tj), r) for tj, *_ in sides] \
                    == [jz for *_, jz in sides]


class TestJzExpectation:
    def test_pure(self):
        for tj in (1, 2, 7):
            assert jz_expectation(HalfInteger(tj), 1.0) == pytest.approx(tj / 2, abs=1e-15)

    def test_hand_sum(self):
        # j = 1/2, r = 1/2: (1/2)(3/4) - (1/2)(1/4)
        assert jz_expectation("1/2", 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_large_j_shift(self):
        # <Jz> = j - (1-r)/(2r) up to exponentially small terms
        assert jz_expectation(10, 0.8) == pytest.approx(10 - 0.2 / 1.6, abs=1e-12)


def coupled_jz_cg_sum(ta, tc, which, tm):
    """Reference: Jz of one side summed over Clebsch-Gordan coefficients."""
    tjs = blk.coupled_sector_index(BlockLabel(HalfInteger(ta), HalfInteger(tc)), tm)
    mat = np.zeros((len(tjs), len(tjs)))
    for a, tj in enumerate(tjs):
        for b, tjp in enumerate(tjs):
            for tma in range(max(-ta, tm - tc), min(ta, tm + tc) + 1, 2):
                w = 0.5 * (tma if which == "A" else tm - tma)
                mat[a, b] += w * _cg_doubled(ta, tma, tc, tm - tma, tj, tm) \
                    * _cg_doubled(ta, tma, tc, tm - tma, tjp, tm)
    return mat


class TestCoupledJz:
    def test_closed_form_matches_cg_sum(self):
        for ta in range(9):
            for tc in range(9):
                label = BlockLabel(HalfInteger(ta), HalfInteger(tc))
                for which in "AC":
                    for tm in blk.sector_range(label):
                        np.testing.assert_allclose(blk.coupled_jz_sector(label, which, tm),
                                                   coupled_jz_cg_sum(ta, tc, which, tm),
                                                   rtol=0, atol=1e-13)

    def test_pair_of_half_spins(self):
        op = coupled_jz(BlockLabel.of("1/2", "1/2"), "A")
        assert op.sectors[0][1, 0] == pytest.approx(0.5, abs=1e-14)
        assert op.sectors[2][0, 0] == pytest.approx(0.5, abs=1e-14)
        assert op.sectors[-2][0, 0] == pytest.approx(-0.5, abs=1e-14)
        assert op.trace() == pytest.approx(0.0, abs=1e-14)

    def test_sector_structure(self):
        label = BlockLabel.of(2, 1)
        op = coupled_jz(label, "C")
        for tm, mat in op.iter_sectors():
            assert mat.shape == (len(op.index[tm]),) * 2
            assert op.index[tm] == blk.coupled_sector_index(label, tm)
        assert op.trace() == pytest.approx(0.0, abs=1e-13)

    def test_a_plus_c_is_total(self):
        # Jz_A + Jz_C acts as m on every coupled state
        label = BlockLabel.of("3/2", 1)
        jz_a, jz_c = coupled_jz(label, "A"), coupled_jz(label, "C")
        for tm, mat in jz_a.iter_sectors():
            np.testing.assert_allclose(mat + jz_c.sectors[tm],
                                       (tm / 2) * np.eye(len(jz_a.index[tm])), atol=1e-13)

    def test_wigner_eckart_tridiagonal(self):
        # Jz_A - Jz_C couples only adjacent momenta with elements
        # j sqrt(d^2 - j^2) / sqrt(4 j^2 - 1) at m = 0
        n = 5
        label = BlockLabel.of(HalfInteger(n), HalfInteger(n))
        jz_a, jz_c = coupled_jz(label, "A"), coupled_jz(label, "C")
        mat = jz_a.sectors[0] - jz_c.sectors[0]
        d = n + 1
        for a, tj in enumerate(jz_a.index[0]):
            for b, tjp in enumerate(jz_a.index[0]):
                if abs(tj - tjp) == 2:
                    j = max(tj, tjp) // 2
                    want = j * math.sqrt(d * d - j * j) / math.sqrt(4 * j * j - 1)
                    assert abs(mat[a, b]) == pytest.approx(want, abs=1e-12)
                else:
                    assert mat[a, b] == pytest.approx(0.0, abs=1e-12)


class TestAverageStateDiff:
    def test_trace_vanishes(self):
        assert average_state_diff_pure(1).trace() == pytest.approx(0.0, abs=1e-14)
        label = BlockLabel.of(1, 0)
        op = average_state_diff_mixed(label, SpectrumParams(2, 0.6))
        assert op.trace() == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_trace_norm_matches_error(self, n):
        want = 2.0 - 4.0 * machines.programmable_error_pure(n)
        assert trace_norm(average_state_diff_pure(n)) == pytest.approx(want, abs=1e-12)

    def test_n1_value(self):
        assert trace_norm(average_state_diff_pure(1)) \
            == pytest.approx(math.sqrt(3) / 3, abs=1e-14)

    @pytest.mark.parametrize("tj", [1, 2, 4, 6])
    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9, 1.0])
    def test_matched_block_identity(self, tj, r):
        # equal side momenta: the difference is an exactly scaled pure difference
        label = BlockLabel(HalfInteger(tj), HalfInteger(tj))
        dm = average_state_diff_mixed(label, SpectrumParams(tj + 2, r))
        dp = average_state_diff_pure(tj)
        fac = blk.side_fractions(tj, r)[0]
        for tm in dm.sectors:
            np.testing.assert_allclose(dm.sectors[tm], fac * dp.sectors[tm], atol=1e-12)

    def test_pure_limit(self):
        label = BlockLabel.of(1, 1)
        dm = average_state_diff_mixed(label, SpectrumParams(2, 1.0))
        dp = average_state_diff_pure(2)
        for tm in dm.sectors:
            np.testing.assert_allclose(dm.sectors[tm], dp.sectors[tm], atol=1e-14)

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            average_state_diff_mixed(BlockLabel.of("1/2", 1), SpectrumParams(2, 0.5))
        with pytest.raises(ValueError):
            average_state_diff_pure(0)
        # a numpy integer count is a count
        wide, narrow = average_state_diff_pure(np.int64(2)), average_state_diff_pure(2)
        assert wide.label == narrow.label
        assert all(np.array_equal(wide.sectors[tm], X) for tm, X in narrow.sectors.items())


class TestTraceNorm:
    def test_basic(self):
        label = BlockLabel.of(0, 0)
        op = BlockOperator(label=label, basis="test", sectors={0: np.diag([1.0, -1.0])},
                           index={0: ((0, 0), (1, 1))})
        assert trace_norm(op) == pytest.approx(2.0)
        zero = BlockOperator(label=label, basis="test", sectors={0: np.zeros((2, 2))},
                             index={0: ((0, 0), (1, 1))})
        assert trace_norm(zero) == 0.0

    def test_bounds_trace(self):
        rng = np.random.default_rng(3)
        label = BlockLabel.of(0, 0)
        for _ in range(20):
            m = rng.standard_normal((4, 4))
            m = m + m.T
            op = BlockOperator(label=label, basis="test", sectors={0: m},
                               index={0: tuple(range(4))})
            assert trace_norm(op) >= abs(op.trace()) - 1e-12
        psd = rng.standard_normal((3, 3))
        psd = psd @ psd.T
        op = BlockOperator(label=label, basis="test", sectors={0: psd},
                           index={0: tuple(range(3))})
        assert trace_norm(op) == pytest.approx(op.trace(), abs=1e-12)

    def test_non_hermitian_rejected(self):
        label = BlockLabel.of(0, 0)
        with pytest.raises(IntegrityError):
            BlockOperator(label=label, basis="test",
                          sectors={0: np.array([[0.0, 1.0], [0.0, 0.0]])},
                          index={0: (0, 1)})


class TestAsymptoticDistribution:
    def test_peak_location(self):
        xs = np.linspace(1e-3, 1 - 1e-3, 4001)
        vals = [asymptotic_block_distribution(200, 0.7, float(x)) for x in xs]
        assert xs[int(np.argmax(vals))] == pytest.approx(0.7, abs=0.02)

    def test_total_mass(self):
        xs = np.linspace(1e-3, 1 - 1e-3, 4001)
        vals = np.array([asymptotic_block_distribution(200, 0.7, float(x)) for x in xs])
        riemann = float(((vals[1:] + vals[:-1]) / 2 * np.diff(xs)).sum())
        assert riemann == pytest.approx(1.0, abs=0.05)

    def test_matches_exact_peak(self):
        n, r = 200, 0.7
        ws = block_weights(SpectrumParams(n, r))
        best = max(ws, key=lambda w: w.p)
        assert 2 * best.j.twice_value / 2 / n == pytest.approx(r, abs=0.02)

    def test_endpoints_rejected(self):
        for x, r in [(0.0, 0.5), (1.0, 0.5), (0.5, 1.0)]:
            with pytest.raises(ValueError):
                asymptotic_block_distribution(10, r, x)


def test_block_operator_json_dump():
    op = coupled_jz(BlockLabel.of("1/2", "1/2"), "A")
    d = op.to_json_dict()
    assert d["label"] == {"jA": "1/2", "jC": "1/2"}
    tms = [s["twice_m"] for s in d["sectors"]]
    assert tms == sorted(tms)
    sec0 = next(s for s in d["sectors"] if s["twice_m"] == 0)
    assert sec0["matrix"][0][1] == pytest.approx(0.5, abs=1e-14)

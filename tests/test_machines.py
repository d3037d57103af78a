import math

import numpy as np
import pytest

from qclass import blocks as blk
from qclass.machines import (
    MachineReport, SeedVector, baseline_error, ed_error_continuous,
    ed_error_n1_optimal, ed_shrink_factor, gamma_up_pure, lm_error, lm_seed,
    make_report, memory_bound_bits, programmable_error_pure, programmable_error_unbalanced,
    reversed_lm_error, verify_seed,
)
from qclass.su2 import HalfInteger

S2, S3 = math.sqrt(2.0), math.sqrt(3.0)


def programmable_error_asymptotic(n: int) -> float:
    """Leading order of the large-n optimal error: 1/6 + 1/(3n).

    The next term is +sqrt2 |zeta(-1/2)| n^(-3/2) (from the square-root edge of
    the sum in ``programmable_error_pure``), a relative correction to the
    excess risk of about 0.88/sqrt(n): 2.6% at n = 10^3.
    """
    return 1.0 / 6.0 + 1.0 / (3.0 * n)


def lm_bias_from_seed(n: int) -> float:
    """2 <phi|Gamma|phi> with phi the optimal seed, using the m = 0 sector only:
    the seed-overlap reference for ``lm_error``.

    At m = 0, Jz_C = -Jz_A and Jz_A has a zero diagonal, so the overlap needs
    only the off-diagonal band of Jz_A: no (n+1) x (n+1) matrix is formed.
    """
    _, off = blk.jz_a_bands(n, n, 0)
    d = n + 1
    v = np.sqrt(2.0 * np.arange(n + 1) + 1.0)
    # v (Jz_A - Jz_C) v = 2 v Jz_A v = 4 sum_j off_j v_{j-1} v_j
    return 8.0 * float(off @ (v[:-1] * v[1:])) / (d * d * (d + 1))


class TestBaseline:
    def test_values(self):
        assert baseline_error(1.0) == pytest.approx(1 / 6, abs=1e-15)
        assert baseline_error(0.5) == pytest.approx(1 / 3, abs=1e-15)
        assert baseline_error(1e-9) == pytest.approx(0.5, abs=1e-9)

    def test_monte_carlo_haar_average(self):
        # 1/2 (1 - r |s0 - s1| / 2) averaged over independent uniform pairs
        rng = np.random.default_rng(20)
        m = 10 ** 6
        s0 = rng.standard_normal((m, 3))
        s0 /= np.linalg.norm(s0, axis=1, keepdims=True)
        s1 = rng.standard_normal((m, 3))
        s1 /= np.linalg.norm(s1, axis=1, keepdims=True)
        for r in (0.5, 1.0):
            est = float(np.mean(0.5 * (1 - r * np.linalg.norm(s0 - s1, axis=1) / 2)))
            sigma = (r / 2) * math.sqrt(2 / 9 / m)
            assert est == pytest.approx(baseline_error(r), abs=4 * sigma)


class TestProgrammablePure:
    def test_values(self):
        assert programmable_error_pure(0) == 0.5
        assert programmable_error_pure(1) == pytest.approx((6 - S3) / 12, abs=1e-15)
        assert programmable_error_pure(2) == pytest.approx(
            0.5 - (math.sqrt(8) + 2 * math.sqrt(5)) / 36, abs=1e-15)

    def test_monotone_and_bounded(self):
        vals = [programmable_error_pure(n) for n in range(0, 80)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(v > 1 / 6 for v in vals)

    def test_asymptotic_form(self):
        assert programmable_error_asymptotic(100) == pytest.approx(0.17, abs=1e-12)
        assert programmable_error_asymptotic(10 ** 9) == pytest.approx(1 / 6, abs=1e-9)
        # n |exact - asymptotic| decreases toward zero
        resid = [n * abs(programmable_error_pure(n) - programmable_error_asymptotic(n))
                 for n in (100, 1000, 10000)]
        assert resid[0] > resid[1] > resid[2]
        assert resid[2] < 0.005


class TestUnbalanced:
    def test_reduces_to_balanced(self):
        for n in range(0, 11):
            assert programmable_error_unbalanced(n, n) == pytest.approx(
                programmable_error_pure(n), abs=1e-12)

    def test_one_zero(self):
        # frozen from the explicit two-qubit computation: the averaged states
        # are P_sym/3 and I/4, whose difference has trace norm 1/2
        assert programmable_error_unbalanced(1, 0) == pytest.approx(0.375, abs=1e-12)
        assert 0.25 < programmable_error_unbalanced(1, 0) < 0.5

    def test_swap_symmetric(self):
        assert programmable_error_unbalanced(5, 2) == programmable_error_unbalanced(2, 5)

    def test_asymptotic_trend(self):
        for nA, nC in [(200, 150), (400, 300), (800, 600)]:
            resid = abs(programmable_error_unbalanced(nA, nC)
                        - 1 / 6 - (1 / 6) * (1 / nA + 1 / nC))
            assert resid < 2.0 / min(nA, nC) ** 1.5


class TestSeed:
    def test_coefficients(self):
        s = lm_seed(1)
        np.testing.assert_allclose(s.coefficients, [1.0, S3], atol=1e-15)

    def test_norm(self):
        for n in (1, 4, 9):
            assert float((lm_seed(n).coefficients ** 2).sum()) \
                == pytest.approx((n + 1) ** 2, abs=1e-10)

    def test_verify(self):
        for n in range(1, 11):
            assert verify_seed(lm_seed(n))
        bad = SeedVector(n=2, coefficients=2 * lm_seed(2).coefficients)
        assert not verify_seed(bad)


class TestGammaUp:
    def test_n1_element(self):
        g = gamma_up_pure(1)
        assert g.sectors[0][1, 0] == pytest.approx(1 / 12, abs=1e-14)

    def test_traceless(self):
        for n in (1, 2, 4):
            assert gamma_up_pure(n).trace() == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_trace_norm(self, n):
        assert blk.trace_norm(gamma_up_pure(n)) == pytest.approx(
            n / (3 * (n + 1)), abs=1e-12)


class TestLearningMachine:
    def test_attains_floor(self):
        for n in range(1, 21):
            assert lm_error(n) == pytest.approx(programmable_error_pure(n), abs=1e-12)

    def test_n1_bias(self):
        assert 2 - 4 * lm_error(1) == pytest.approx(1 / S3, abs=1e-14)
        assert lm_error(1) == pytest.approx(0.5 - 1 / (4 * S3), abs=1e-14)

    def test_n2_value(self):
        assert lm_error(2) == pytest.approx(0.2972065811181731, abs=1e-13)

    def test_both_paths_agree(self):
        # projection norms against the seed overlap with the conditioned operator
        for n in (1, 5, 12, 20, 10 ** 5):
            assert lm_error(n) == pytest.approx(0.5 * (1.0 - lm_bias_from_seed(n) / 2.0),
                                                abs=1e-12)

    def test_bias_bands_match_dense_sectors(self):
        # the old route: both dense m = 0 sectors of the (n, n) label
        for n in (1, 2, 5, 12):
            label = blk.BlockLabel(HalfInteger(n), HalfInteger(n))
            diff = blk.coupled_jz_sector(label, "A", 0) - blk.coupled_jz_sector(label, "C", 0)
            v = np.sqrt(2.0 * np.arange(n + 1) + 1.0)
            dense = 2.0 * float(v @ diff @ v) / ((n + 1) ** 2 * (n + 2))
            assert lm_bias_from_seed(n) == pytest.approx(dense, abs=1e-14)

    def test_large_n(self):
        # a dense (n+1)^2 sector at n = 10^5 would take 75 GiB
        assert lm_error(10 ** 5) == pytest.approx(programmable_error_pure(10 ** 5), abs=1e-12)


class TestEstimateAndDiscriminate:
    def test_continuous_values(self):
        assert ed_error_continuous(1) == pytest.approx(7 / 18, abs=1e-15)
        assert ed_shrink_factor(2) == pytest.approx(0.5, abs=1e-15)
        # error approaches 1/6 + 2/(3n)
        for n in (100, 1000):
            assert ed_error_continuous(n) == pytest.approx(1 / 6 + 2 / (3 * n),
                                                           abs=3 / n ** 2)

    def test_n1_finite(self):
        assert ed_error_n1_optimal() == pytest.approx(0.5 - S2 / 12, abs=1e-15)
        assert 2 - 4 * ed_error_n1_optimal() == pytest.approx(S2 / 3, abs=1e-14)
        assert ed_error_n1_optimal() - 1 / 6 == pytest.approx((4 - S2) / 12, abs=1e-14)

    def test_n1_risk_ratio(self):
        ratio = (ed_error_n1_optimal() - 1 / 6) / (lm_error(1) - 1 / 6)
        assert ratio == pytest.approx((4 - S2) / (4 - S3), abs=1e-12)
        assert ratio == pytest.approx(1.15, abs=0.015)  # about 15 percent worse

    def test_finite_beats_continuous_at_n1(self):
        assert ed_error_n1_optimal() < ed_error_continuous(1)


class TestReversedMachine:
    def test_values(self):
        assert reversed_lm_error(1) == pytest.approx(11 / 24, abs=1e-15)
        assert reversed_lm_error(10 ** 9) == pytest.approx(5 / 12, abs=1e-8)

    def test_consistent_with_gamma_norm(self):
        for n in (1, 2, 4, 6):
            want = 0.5 * (1 - blk.trace_norm(gamma_up_pure(n)) / 2)
            assert reversed_lm_error(n) == pytest.approx(want, abs=1e-12)


class TestOrdering:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 50])
    def test_machine_ordering(self, n):
        assert lm_error(n) <= ed_error_continuous(n) < reversed_lm_error(n)

    @pytest.mark.parametrize("n", [200, 1000])
    def test_machine_ordering_large(self, n):
        # learning equals the joint floor, so compare through the closed form
        assert programmable_error_pure(n) <= ed_error_continuous(n) < reversed_lm_error(n)


class TestMemoryBound:
    def test_values(self):
        assert memory_bound_bits(1) == pytest.approx(math.log2(12), abs=1e-12)
        assert memory_bound_bits(10) == pytest.approx(math.log2(462), abs=1e-12)

    def test_logarithmic_growth(self):
        ratios = [memory_bound_bits(n) / math.log2(n) for n in (10 ** 3, 10 ** 5, 10 ** 7)]
        assert abs(ratios[-1] - 2.0) < 0.2
        assert abs(ratios[-1] - 2.0) < abs(ratios[0] - 2.0)


class TestQubitCounts:
    def test_bool_and_fractional_counts_refused(self):
        # every machine reads one count check: numpy integers pass, bools and fractions do not
        for machine, bad in ((lm_error, True), (memory_bound_bits, 2.5),
                             (ed_error_continuous, 2.5), (programmable_error_pure, 1.0)):
            with pytest.raises(ValueError, match="^qubit count must be an integer, got "):
                machine(bad)
        with pytest.raises(ValueError, match="^qubit count must be an integer, got 1.5$"):
            programmable_error_unbalanced(2, 1.5)
        with pytest.raises(ValueError, match="^n must be positive, got 0$"):
            lm_error(0)
        assert lm_error(np.int64(3)) == lm_error(3)
        wide, narrow = gamma_up_pure(np.int64(2)), gamma_up_pure(2)
        assert wide.label == narrow.label
        assert all(np.array_equal(wide.sectors[tm], X) for tm, X in narrow.sectors.items())


class TestMachineReport:
    def test_excess_consistency(self):
        rep = make_report("lm", 3, lm_error(3))
        assert rep.excess_risk == pytest.approx(
            rep.error_probability - baseline_error(rep.r), abs=1e-15)

    def test_json_dict(self):
        rep = make_report("opt", 2, programmable_error_unbalanced(3, 1), nA=3, nC=1)
        d = rep.to_json_dict()
        assert d["nA"] == 3 and d["nC"] == 1 and d["method"] == "closed_form"

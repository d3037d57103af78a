import math

import numpy as np
import pytest

from qclass.blocks import BlockLabel
from qclass.su2 import (
    HalfInteger, as_half, clebsch_gordan, dim, multiplicity,
    recoupling_overlap, wigner_6j,
)


class TestHalfInteger:
    def test_parse_and_value(self):
        assert as_half(2).twice_value == 4
        assert as_half("3/2").twice_value == 3
        assert as_half("-1/2").twice_value == -1
        assert as_half(HalfInteger(5)).twice_value == 5
        # numpy integers pass as check_count lets them, stored as int
        for x in (np.int64(1), np.int32(1), np.uint8(1)):
            assert type(as_half(x).twice_value) is int and as_half(x) == as_half(1)
        assert multiplicity(4, np.int64(1)) == multiplicity(4, 1)
        assert clebsch_gordan(np.int64(1), 0, "1/2", "1/2", "3/2", "1/2") \
            == clebsch_gordan(1, 0, "1/2", "1/2", "3/2", "1/2")
        assert BlockLabel.of(np.int64(1), 0) == BlockLabel.of(1, 0)
        assert HalfInteger(3).value == 1.5
        assert str(HalfInteger(3)) == "3/2"
        assert str(HalfInteger(4)) == "2"

    def test_rejects_floats(self):
        with pytest.raises(ValueError):
            as_half(0.5)
        for bad in (True, 1.0):
            with pytest.raises(ValueError, match="^twice_value must be int"):
                HalfInteger(bad)
        for bad in ("1.5", "1/2/3", "x/2", "", "3/4"):
            with pytest.raises(ValueError, match=f"^{bad!r} is not a quantum number: "
                                                 "write an integer or k/2$"):
                as_half(bad)

    def test_arithmetic(self):
        assert (HalfInteger(3) + HalfInteger(1)).twice_value == 4
        assert (-HalfInteger(3)).twice_value == -3
        assert HalfInteger(1) < HalfInteger(2)


class TestDim:
    @pytest.mark.parametrize("m,d", [(0, 1), (1, 2), (5, 6)])
    def test_values(self, m, d):
        assert dim(m) == d

    def test_negative(self):
        with pytest.raises(ValueError):
            dim(-1)
        for bad in (True, 2.5):
            with pytest.raises(ValueError, match="^qubit count must be an integer"):
                dim(bad)
        assert dim(np.int64(2)) == 3


class TestClebschGordan:
    def test_spin1_spin_half_signed_values(self):
        # coupling a spin 1 (m = 0) with an up half-spin
        assert clebsch_gordan(1, 0, "1/2", "1/2", "3/2", "1/2") == pytest.approx(
            math.sqrt(2 / 3), abs=1e-15)
        assert clebsch_gordan(1, 0, "1/2", "1/2", "1/2", "1/2") == pytest.approx(
            -math.sqrt(1 / 3), abs=1e-15)

    def test_trivial_coupling(self):
        assert clebsch_gordan(0, 0, 0, 0, 0, 0) == 1.0

    def test_squared_weight(self):
        # |<j+1/2, m+1/2 | j,m; 1/2,1/2>|^2 = (j+m+1)/(2j+1)
        val = clebsch_gordan(1, 0, "1/2", "1/2", "3/2", "1/2")
        assert val * val == pytest.approx(2 / 3, abs=1e-14)
        for tj in range(1, 9):
            for tm in range(-tj, tj + 1, 2):
                c = clebsch_gordan(HalfInteger(tj), HalfInteger(tm), "1/2", "1/2",
                                   HalfInteger(tj + 1), HalfInteger(tm + 1))
                assert c * c == pytest.approx((tj + tm + 2) / (2 * (tj + 1)), abs=1e-14)

    def test_selection_rules_return_zero(self):
        assert clebsch_gordan(1, 0, 1, 0, 1, 1) == 0.0       # M != m1+m2
        assert clebsch_gordan(1, 1, 1, 1, 3, 2) == 0.0       # triangle violated
        assert clebsch_gordan("1/2", "1/2", "1/2", "1/2", 0, 1) == 0.0

    def test_malformed_raises(self):
        with pytest.raises(ValueError):
            clebsch_gordan(1, "3/2", 1, 0, 2, 0)   # |m| > j
        with pytest.raises(ValueError):
            clebsch_gordan("1/2", 0, 0, 0, "1/2", 0)  # parity mismatch

    def test_orthonormality(self):
        rng = np.random.default_rng(11)
        for _ in range(120):
            tj1, tj2 = int(rng.integers(0, 10)), int(rng.integers(0, 10))
            tm1 = -tj1 + 2 * int(rng.integers(0, tj1 + 1))
            tm2 = -tj2 + 2 * int(rng.integers(0, tj2 + 1))
            total = sum(
                clebsch_gordan(HalfInteger(tj1), HalfInteger(tm1), HalfInteger(tj2),
                               HalfInteger(tm2), HalfInteger(tJ),
                               HalfInteger(tm1 + tm2)) ** 2
                for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_against_sympy(self):
        wigner = pytest.importorskip("sympy.physics.wigner")
        from sympy import S
        rng = np.random.default_rng(2)
        for _ in range(60):
            tj1, tj2 = int(rng.integers(0, 8)), int(rng.integers(0, 8))
            tJ = int(rng.integers(abs(tj1 - tj2), tj1 + tj2 + 1))
            tJ -= (tJ - tj1 - tj2) % 2
            tm1 = -tj1 + 2 * int(rng.integers(0, tj1 + 1))
            tm2 = -tj2 + 2 * int(rng.integers(0, tj2 + 1))
            if abs(tm1 + tm2) > tJ:
                continue
            ref = float(wigner.clebsch_gordan(S(tj1) / 2, S(tj2) / 2, S(tJ) / 2,
                                              S(tm1) / 2, S(tm2) / 2, S(tm1 + tm2) / 2))
            mine = clebsch_gordan(HalfInteger(tj1), HalfInteger(tm1), HalfInteger(tj2),
                                  HalfInteger(tm2), HalfInteger(tJ), HalfInteger(tm1 + tm2))
            assert mine == pytest.approx(ref, abs=2e-15)


def coupled_pair_vector(tj1, tj2, tJ, tM):
    """|(j1 j2) J M> of two spins in their product basis, built from CG."""
    d1, d2 = tj1 + 1, tj2 + 1
    v = np.zeros(d1 * d2)
    for i1, tm1 in enumerate(range(-tj1, tj1 + 1, 2)):
        tm2 = tM - tm1
        if abs(tm2) <= tj2:
            i2 = (tm2 + tj2) // 2
            v[i1 * d2 + i2] = clebsch_gordan(
                HalfInteger(tj1), HalfInteger(tm1), HalfInteger(tj2), HalfInteger(tm2),
                HalfInteger(tJ), HalfInteger(tM))
    return v


def three_spin_overlap(tj_pair, tj23, tJ, tM):
    """<(s s) j12, s; J M | s,(s s) j23; J M> for three half-spins, explicitly."""
    # (12)3 coupling
    left = np.zeros(8)
    for t12m in range(-tj_pair, tj_pair + 1, 2):
        tm3 = tM - t12m
        if abs(tm3) > 1:
            continue
        c = clebsch_gordan(HalfInteger(tj_pair), HalfInteger(t12m), "1/2",
                           HalfInteger(tm3), HalfInteger(tJ), HalfInteger(tM))
        if not c:
            continue
        pair = coupled_pair_vector(1, 1, tj_pair, t12m)
        left += c * np.kron(pair, np.eye(2)[(tm3 + 1) // 2])
    # 1(23) coupling
    right = np.zeros(8)
    for t23m in range(-tj23, tj23 + 1, 2):
        tm1 = tM - t23m
        if abs(tm1) > 1:
            continue
        c = clebsch_gordan("1/2", HalfInteger(tm1), HalfInteger(tj23),
                           HalfInteger(t23m), HalfInteger(tJ), HalfInteger(tM))
        if not c:
            continue
        pair = coupled_pair_vector(1, 1, tj23, t23m)
        right += c * np.kron(np.eye(2)[(tm1 + 1) // 2], pair)
    return float(left @ right)


class TestWigner6j:
    def test_all_zero(self):
        assert wigner_6j(0, 0, 0, 0, 0, 0) == 1.0

    @pytest.mark.parametrize("tj23,value", [(0, 0.5), (2, 1 / 6)])
    def test_three_half_spins(self, tj23, value):
        # frozen from the explicit three-spin recoupling below
        assert wigner_6j("1/2", "1/2", 1, "1/2", "1/2", HalfInteger(tj23)) \
            == pytest.approx(value, abs=1e-15)

    @pytest.mark.parametrize("tj12,tj23", [(0, 0), (0, 2), (2, 0), (2, 2)])
    def test_explicit_recoupling_oracle(self, tj12, tj23):
        # <(j1 j2) j12, j3; J | j1, (j2 j3) j23; J>
        #   = (-1)^(j1+j2+j3+J) sqrt((2 j12 + 1)(2 j23 + 1)) {j1 j2 j12; j3 J j23}
        tJ = 1
        overlap = three_spin_overlap(tj12, tj23, tJ, 1)
        phase = (-1) ** ((1 + 1 + 1 + tJ) // 2)
        pred = phase * math.sqrt((tj12 + 1) * (tj23 + 1)) * wigner_6j(
            "1/2", "1/2", HalfInteger(tj12), "1/2", HalfInteger(tJ), HalfInteger(tj23))
        assert overlap == pytest.approx(pred, abs=1e-14)

    def test_triangle_violation_returns_zero(self):
        assert wigner_6j(1, 1, 3, 1, 1, 1) == 0.0

    def test_orthogonality(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            tj1, tj2, tj3, tJ = (int(rng.integers(0, 7)) for _ in range(4))
            t23s = list(range(abs(tj2 - tj3), tj2 + tj3 + 1, 2))
            for t23 in t23s:
                for t23p in t23s:
                    s = sum(
                        (t12 + 1) * (t23 + 1)
                        * wigner_6j(*[HalfInteger(x) for x in (tj1, tj2, t12, tj3, tJ, t23)])
                        * wigner_6j(*[HalfInteger(x) for x in (tj1, tj2, t12, tj3, tJ, t23p)])
                        for t12 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
                    )
                    if t23 != t23p:
                        assert abs(s) < 1e-12
                    else:
                        assert s == pytest.approx(1.0, abs=1e-12) or abs(s) < 1e-12

    def test_against_sympy(self):
        wigner = pytest.importorskip("sympy.physics.wigner")
        from sympy import S
        rng = np.random.default_rng(8)
        for _ in range(40):
            args = [int(rng.integers(0, 6)) for _ in range(6)]
            try:
                ref = float(wigner.wigner_6j(*[S(a) / 2 for a in args]))
            except ValueError:
                ref = 0.0
            assert wigner_6j(*[HalfInteger(a) for a in args]) == pytest.approx(ref, abs=2e-15)


def acb_overlap(n, tj, tJ, tM):
    """Explicit overlap between the two bases used for n + n + 1 qubits.

    <A(CB): J M | (AC) j, B: J M> with A, C spin n/2 and the CB pair coupled
    to its maximal momentum, built from raw coupling coefficients.
    """
    dn = n + 1
    # |(AC) j, B: J M>: couple A and C to j, then with B to J
    left = np.zeros(dn * dn * 2)
    for tjm in range(-tj, tj + 1, 2):
        tmB = tM - tjm
        if abs(tmB) > 1:
            continue
        c = clebsch_gordan(HalfInteger(tj), HalfInteger(tjm), "1/2", HalfInteger(tmB),
                           HalfInteger(tJ), HalfInteger(tM))
        if not c:
            continue
        pair = coupled_pair_vector(n, n, tj, tjm)
        left += c * np.kron(pair, np.eye(2)[(tmB + 1) // 2])
    # |A, (CB) max: J M>: couple C and B to (n+1)/2, then A with (CB) to J
    tcb = n + 1
    right = np.zeros(dn * dn * 2)
    for tam in range(-n, n + 1, 2):
        tcbm = tM - tam
        if abs(tcbm) > tcb:
            continue
        c = clebsch_gordan(HalfInteger(n), HalfInteger(tam), HalfInteger(tcb),
                           HalfInteger(tcbm), HalfInteger(tJ), HalfInteger(tM))
        if not c:
            continue
        pair_cb = coupled_pair_vector(n, 1, tcb, tcbm)  # (C, B) product order
        block = np.einsum("a,cb->acb", np.eye(dn)[(tam + n) // 2],
                          pair_cb.reshape(dn, 2)).ravel()
        right += c * block
    return float(right @ left)


class TestRecouplingOverlap:
    @pytest.mark.parametrize("n,j,sign,value", [
        (1, 1, +1, 1.0),
        (1, 1, -1, 0.5),
        (2, 1, +1, math.sqrt(5 / 6)),
    ])
    def test_values(self, n, j, sign, value):
        assert recoupling_overlap(n, j, sign) == pytest.approx(value, abs=1e-15)

    def test_explicit_three_body_oracle(self):
        # the closed form is the raw change-of-basis overlap, sign included,
        # and is independent of the total magnetic number
        for n in (1, 2, 3):
            for j in range(0, n + 1):
                for sign in (+1, -1):
                    if sign < 0 and j == 0:
                        continue
                    want = recoupling_overlap(n, j, sign)
                    for tM in (1, -1, 2 * j + sign):
                        if abs(tM) > 2 * j + sign:
                            continue
                        assert acb_overlap(n, 2 * j, 2 * j + sign, tM) \
                            == pytest.approx(want, abs=1e-13)

    def test_from_6j(self):
        # overlap magnitude from the recoupling identity with the 6j symbol
        for n in (1, 2, 3, 4):
            for j in range(0, n + 1):
                for sign in (+1, -1):
                    if sign < 0 and j == 0:
                        continue
                    tJ = 2 * j + sign
                    pred = math.sqrt((2 * j + 1) * (n + 2)) * wigner_6j(
                        HalfInteger(n), HalfInteger(n), HalfInteger(2 * j),
                        "1/2", HalfInteger(tJ), HalfInteger(n + 1))
                    assert abs(pred) == pytest.approx(
                        recoupling_overlap(n, j, sign), abs=1e-13)

    def test_unitarity_pairing(self):
        # states of one total momentum: (n, j, +) pairs with (n, j+1, -)
        for n in range(1, 11):
            assert recoupling_overlap(n, n, +1) == pytest.approx(1.0, abs=1e-15)
            for j in range(0, n):
                s = recoupling_overlap(n, j, +1) ** 2 \
                    + recoupling_overlap(n, j + 1, -1) ** 2
                assert s == pytest.approx(1.0, abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            recoupling_overlap(2, 0, -1)     # J = -1/2
        with pytest.raises(ValueError):
            recoupling_overlap(2, 3, +1)     # j > n
        with pytest.raises(ValueError):
            recoupling_overlap(2, "1/2", +1)  # non-integer coupled momentum
        with pytest.raises(ValueError):
            recoupling_overlap(2, 1, 2)


class TestMultiplicity:
    @pytest.mark.parametrize("n,j,nu", [(2, 1, 1), (2, 0, 1), (4, 1, 3)])
    def test_values(self, n, j, nu):
        assert multiplicity(n, j) == nu

    def test_dimension_sum(self):
        for n in range(1, 21):
            total = sum(multiplicity(n, HalfInteger(tj)) * (tj + 1)
                        for tj in range(n % 2, n + 1, 2))
            assert total == 2 ** n

    def test_parity_mismatch(self):
        with pytest.raises(ValueError):
            multiplicity(4, "1/2")
        with pytest.raises(ValueError):
            multiplicity(3, 1)


"""SU(2) coupling toolkit: Clebsch-Gordan coefficients, Wigner 6j symbols,
recoupling overlaps, symmetric-subspace dimensions and multiplicities.

Angular momenta and magnetic numbers are half-integers and are stored as
doubled integers (``HalfInteger``), so no floating-point quantum numbers
appear anywhere in the API.  Coefficients are evaluated in exact integer /
rational arithmetic and rounded to a double only at the very end (one
division plus one square root), which makes them correct to a couple of ulps
for any argument size this package uses.

Phase convention is Condon-Shortley throughout.  Selection-rule violations
return exactly 0.0; malformed quantum numbers raise ``ValueError``.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union


@dataclass(frozen=True, order=True)
class HalfInteger:
    """An exact half-integer, stored as twice its value."""

    twice_value: int

    def __post_init__(self):
        if isinstance(self.twice_value, bool) or not isinstance(self.twice_value, int):
            raise ValueError(f"twice_value must be int, got {type(self.twice_value).__name__}")

    @property
    def value(self) -> float:
        return self.twice_value / 2

    def __add__(self, other: "HalfInteger") -> "HalfInteger":
        return HalfInteger(self.twice_value + as_half(other).twice_value)

    def __sub__(self, other: "HalfInteger") -> "HalfInteger":
        return HalfInteger(self.twice_value - as_half(other).twice_value)

    def __neg__(self) -> "HalfInteger":
        return HalfInteger(-self.twice_value)

    def __str__(self) -> str:
        t = self.twice_value
        return str(t // 2) if t % 2 == 0 else f"{t}/2"

    def __repr__(self) -> str:
        return f"HalfInteger({self.twice_value})"


HalfIntLike = Union[HalfInteger, int, str]


def as_half(x: HalfIntLike) -> HalfInteger:
    """Coerce an int, a string like ``"3/2"`` or a HalfInteger. Floats are rejected."""
    if isinstance(x, HalfInteger):
        return x
    if isinstance(x, bool):
        raise ValueError("bool is not a quantum number")
    if isinstance(x, int):
        return HalfInteger(2 * x)
    if isinstance(x, str):
        num, *den = x.strip().split("/")
        try:
            if not den:
                return HalfInteger(2 * int(num))
            if len(den) == 1 and int(den[0]) == 2:
                return HalfInteger(int(num))
        except ValueError:
            pass
        raise ValueError(f"{x!r} is not a quantum number: write an integer or k/2")
    raise ValueError(
        f"quantum numbers must be HalfInteger, int or 'k/2' strings, got {type(x).__name__}"
    )


def _check_jm(tj: int, tm: int, name: str = "j") -> None:
    if tj < 0:
        raise ValueError(f"{name} must be non-negative, got {tj}/2")
    if abs(tm) > tj:
        raise ValueError(f"|m| <= {name} violated: m={tm}/2, {name}={tj}/2")
    if (tj - tm) % 2 != 0:
        raise ValueError(f"m and {name} must differ by an integer: m={tm}/2, {name}={tj}/2")


def triangle_ok(tj1: int, tj2: int, tj3: int) -> bool:
    """Triangle inequality plus integer perimeter, on doubled arguments."""
    return (
        abs(tj1 - tj2) <= tj3 <= tj1 + tj2
        and (tj1 + tj2 + tj3) % 2 == 0
    )


def check_count(n: int, least: int = 1, message: str = "n must be positive, got {}") -> int:
    """``n`` if it is an integral qubit count of at least ``least``, else ``ValueError``.

    Bools and non-integral numbers are refused; numpy integers pass.  A count
    below ``least`` raises ``message``, formatted with ``n``.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"qubit count must be an integer, got {n!r}")
    if n < least:
        raise ValueError(message.format(n))
    return n


def dim(m: int) -> int:
    """Dimension of the fully symmetric subspace of ``m`` qubits: m + 1."""
    return check_count(m, 0, "qubit count must be non-negative, got {}") + 1


def multiplicity(n: int, j: HalfIntLike) -> int:
    """Number of spin-j irreducible blocks in the n-qubit product space.

    binom(n, n/2 - j) * (2j+1) / (n/2 + j + 1); requires 2j = n (mod 2).
    """
    check_count(n, 0, "qubit count must be non-negative, got {}")
    tj = as_half(j).twice_value
    if tj < 0 or tj > n or (n - tj) % 2 != 0:
        raise ValueError(f"j={tj}/2 invalid for n={n}: need 0 <= j <= n/2 with matching parity")
    num = math.comb(n, (n - tj) // 2) * (tj + 1)
    den = (n + tj) // 2 + 1
    assert num % den == 0
    return num // den


@lru_cache(maxsize=None)
def _fact(k: int) -> int:
    return math.factorial(k)


@lru_cache(maxsize=200_000)
def _cg_doubled(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> float:
    # Selection rules -> exact zero.
    if tM != tm1 + tm2 or not triangle_ok(tj1, tj2, tJ):
        return 0.0
    # Integer sum over k of the van der Waerden binomial form:
    #   N = sum_k (-1)^k C(A,k) C(J-M, B-k) C(J+M, C-k)
    # with A = j1+j2-J, B = j1-m1, C = j2+m2.
    A = (tj1 + tj2 - tJ) // 2
    B = (tj1 - tm1) // 2
    C = (tj2 + tm2) // 2
    JmM = (tJ - tM) // 2
    JpM = (tJ + tM) // 2
    k_lo = max(0, B - JmM, C - JpM)
    k_hi = min(A, B, C)
    if k_lo > k_hi:
        return 0.0
    N = 0
    for k in range(k_lo, k_hi + 1):
        term = math.comb(A, k) * math.comb(JmM, B - k) * math.comb(JpM, C - k)
        N += -term if k % 2 else term
    if N == 0:
        return 0.0
    # CG^2 = N^2 * (2J+1) * Delta^2 * (j1-m1)!(j1+m1)!(j2-m2)!(j2+m2)! / (A!^2 (J-M)! (J+M)!)
    num = (
        N * N * (tJ + 1)
        * _fact(A) * _fact((tj1 - tj2 + tJ) // 2) * _fact((-tj1 + tj2 + tJ) // 2)
        * _fact(B) * _fact((tj1 + tm1) // 2)
        * _fact((tj2 - tm2) // 2) * _fact(C)
    )
    den = (
        _fact((tj1 + tj2 + tJ) // 2 + 1)
        * _fact(A) ** 2 * _fact(JmM) * _fact(JpM)
    )
    mag = math.sqrt(float(Fraction(num, den)))
    return -mag if N < 0 else mag


def clebsch_gordan(
    j1: HalfIntLike, m1: HalfIntLike, j2: HalfIntLike, m2: HalfIntLike,
    J: HalfIntLike, M: HalfIntLike,
) -> float:
    """Condon-Shortley coefficient <j1 m1; j2 m2 | J M>."""
    tj1, tm1 = as_half(j1).twice_value, as_half(m1).twice_value
    tj2, tm2 = as_half(j2).twice_value, as_half(m2).twice_value
    tJ, tM = as_half(J).twice_value, as_half(M).twice_value
    _check_jm(tj1, tm1, "j1")
    _check_jm(tj2, tm2, "j2")
    if tJ < 0:
        raise ValueError(f"J must be non-negative, got {tJ}/2")
    if abs(tM) > tJ or (tJ - tM) % 2 != 0:
        return 0.0  # no such coupled state: selection rule, not an error
    return _cg_doubled(tj1, tm1, tj2, tm2, tJ, tM)


def _delta_sq(ta: int, tb: int, tc: int) -> Fraction:
    return Fraction(
        _fact((ta + tb - tc) // 2) * _fact((ta - tb + tc) // 2) * _fact((-ta + tb + tc) // 2),
        _fact((ta + tb + tc) // 2 + 1),
    )


@lru_cache(maxsize=100_000)
def _w6j_doubled(ta: int, tb: int, tc: int, td: int, te: int, tf: int) -> float:
    triads = ((ta, tb, tc), (ta, te, tf), (td, tb, tf), (td, te, tc))
    for t in triads:
        if not triangle_ok(*t):
            return 0.0
    tri = [sum(t) // 2 for t in triads]
    pair = [
        (ta + tb + td + te) // 2,
        (tb + tc + te + tf) // 2,
        (ta + tc + td + tf) // 2,
    ]
    S = Fraction(0)
    for t in range(max(tri), min(pair) + 1):
        den = _fact(t + 1)
        num = 1
        for x in tri:
            num *= _fact(t - x)
        for x in pair:
            num *= _fact(x - t)
        term = Fraction(den, num)
        S += -term if t % 2 else term
    if S == 0:
        return 0.0
    D = _delta_sq(ta, tb, tc) * _delta_sq(ta, te, tf) * _delta_sq(td, tb, tf) * _delta_sq(td, te, tc)
    mag = math.sqrt(float(S * S * D))
    return -mag if S < 0 else mag


def wigner_6j(
    j1: HalfIntLike, j2: HalfIntLike, j12: HalfIntLike,
    j3: HalfIntLike, J: HalfIntLike, j23: HalfIntLike,
) -> float:
    """Wigner 6j symbol {j1 j2 j12; j3 J j23} (Racah formula, exact arithmetic).

    Returns 0.0 when any of the four triads violates a triangle inequality.
    """
    args = [as_half(x).twice_value for x in (j1, j2, j12, j3, J, j23)]
    for t, name in zip(args, ("j1", "j2", "j12", "j3", "J", "j23")):
        if t < 0:
            raise ValueError(f"{name} must be non-negative, got {t}/2")
    return _w6j_doubled(*args)


def recoupling_overlap(n: int, j: HalfIntLike, sign: int) -> float:
    """Overlap between the two three-body coupled bases used for n + n + 1 qubits.

    Couple two spin-n/2 systems A, C and one qubit B to total J = j +/- 1/2,
    once as (AC)B with intermediate j and once as A(CB) with the CB pair in its
    maximal-spin subspace.  The magnitude of the basis overlap is

        sqrt((n + 3/2 +/- (j + 1/2)) / (2 (n + 1))),

    independent of the total magnetic number.  ``sign`` is +1 or -1 and picks
    J = j + 1/2 or J = j - 1/2.  The value is returned with the positive phase
    convention for the A(CB) basis; unitarity pairs (n, j, +) with (n, j+1, -).
    """
    check_count(n, 1, "need at least one training qubit per side, got n={}")
    tj = as_half(j).twice_value
    if tj % 2 != 0 or not 0 <= tj // 2 <= n:
        raise ValueError(f"intermediate momentum j={tj}/2 must be an integer in [0, {n}]")
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    jj = tj // 2
    tJ = tj + sign  # doubled total momentum
    if tJ < 1:  # J = j - 1/2 needs j >= 1
        raise ValueError(f"J = j - 1/2 out of range for j={jj}")
    num = 2 * n + 3 + sign * (tj + 1)
    return math.sqrt(num / (4 * (n + 1)))

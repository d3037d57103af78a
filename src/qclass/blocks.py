"""Block algebra for permutation-symmetric qubit ensembles.

A source emitting n identical qubits of Bloch length r produces a state that
is block diagonal over total-angular-momentum subspaces.  This module holds
the spectral data of those blocks (weights a_m, normalization c_j, block
probabilities p_j), operators stored per invariant sector, Jz of one
training side in the coupled basis, and the large-n limit of the block
distribution, all from closed forms without Clebsch-Gordan or 6j sums.
The dense route (coupling isometries, averaged states and their
differences) lives in ``oracle``.

Conventions: every irrep basis is ordered by ascending magnetic number, the
qubit basis is (down, up), and multiplicity spaces are dropped everywhere --
they enter only through the probabilities p_j.  Operators are immutable
after construction (sector arrays are marked read-only).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

import numpy as np

from .su2 import HalfInteger, HalfIntLike, as_half, check_count

HERMITICITY_TOL = 1e-10

BASIS_AC_COUPLED = "ac-coupled"      # sector index = doubled coupled momentum j


class IntegrityError(RuntimeError):
    """A numerical object violated one of its structural invariants."""


def check_purity(r: float) -> float:
    """``r`` if it is a Bloch length in (0, 1], else ``ValueError``."""
    if not 0.0 < r <= 1.0:
        raise ValueError(f"purity must lie in (0, 1], got {r}")
    return r


@dataclass(frozen=True)
class SpectrumParams:
    """Source configuration: n qubits per training side, Bloch length r."""

    n: int
    r: float

    def __post_init__(self):
        check_count(self.n, 0, "n must be non-negative, got {}")
        check_purity(self.r)


@dataclass(frozen=True)
class BlockLabel:
    """Pair of total angular momenta (one per training side) naming a block."""

    jA: HalfInteger
    jC: HalfInteger

    def __post_init__(self):
        for j in (self.jA, self.jC):
            if j.twice_value < 0:
                raise ValueError(f"block momenta must be non-negative, got {j}")

    @staticmethod
    def of(jA: HalfIntLike, jC: HalfIntLike) -> "BlockLabel":
        return BlockLabel(as_half(jA), as_half(jC))


@dataclass
class BlockWeights:
    """Spectral data of one block: magnetic weights, normalization, probability."""

    j: HalfInteger
    a: np.ndarray          # weights a_m for m = -j..j (ascending), sum 1
    c: float
    p: float


def spin_spectrum(tj: int, rs: Sequence[float]) -> tuple[np.ndarray, list[float]]:
    """Weights a_m (one row per purity of ``rs``, ascending m) and log c_j of a spin-j block.

    With x = (1-r)/(1+r) the weights are geometric, a_m = x^(j-m) (1-x) / (1-x^(2j+1)),
    and c_j = ((1+r)/2)^(2j+1) (1 - x^(2j+1)) / r; both are evaluated through
    log1p/expm1 so that neither cancels at small r nor underflows at large j.
    The rows come from one ``np.exp`` of the outer product of the log x with
    (2j, ..., 0), each scaled by its r's normalization; an r = 1 row is
    (0, ..., 0, 1), with log c_j = 0.
    """
    logs = [0.0 if r == 1.0 else math.log1p(-r) - math.log1p(r) for r in rs]  # log x < 0
    a = np.exp(np.multiply.outer(logs, np.arange(tj, -1, -1)))
    norm, log_c = [], []
    for r, L in zip(rs, logs):
        if r == 1.0:
            norm.append(0.0)
            log_c.append(0.0)
            continue
        tail = -math.expm1((tj + 1) * L)     # 1 - x^(2j+1)
        norm.append(-math.expm1(L) / tail)
        log_c.append((tj + 1) * (math.log1p(r) - math.log(2.0)) + math.log(tail / r))
    a *= np.array(norm)[:, None]
    a[[r == 1.0 for r in rs], -1] = 1.0
    return a, log_c


def block_spectra(n: int, rs: Sequence[float]) -> list[tuple[int, np.ndarray, list, list]]:
    """(2j, a, log c_j, p_j) of every side j of n qubits, ascending, at every purity of ``rs``.

    ``a`` is ``spin_spectrum``'s (R, 2j + 1) weights and p_j^n = nu_j^n c_j
    ((1-r^2)/4)^(n/2-j) is formed in log space, one list entry per r, so any
    n is admissible.
    """
    log_q = [-math.inf if r == 1.0 else math.log1p(-r) + math.log1p(r) - math.log(4.0) for r in rs]
    out = []
    for tj in range(n % 2, n + 1, 2):
        a, log_c = spin_spectrum(tj, rs)
        k = (n - tj) // 2
        log_nu = (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                  + math.log((tj + 1) / (n - k + 1)))
        p = [math.exp(log_nu + lc + (k * lq if k else 0.0))  # 0 * -inf at r = 1
             for lc, lq in zip(log_c, log_q)]
        out.append((tj, a, log_c, p))
    return out


def block_weights(params: SpectrumParams) -> list[BlockWeights]:
    """Weights a_m^j, normalizations c_j and probabilities p_j^n for all j (``block_spectra``).

    a_m^j = ((1-r)/2)^(j-m) ((1+r)/2)^(j+m) / c_j,
    c_j   = (((1+r)/2)^(2j+1) - ((1-r)/2)^(2j+1)) / r,
    p_j^n = nu_j^n c_j ((1-r^2)/4)^(n/2-j).
    """
    out = []
    for tj, a, (log_c,), (p,) in block_spectra(params.n, [params.r]):
        a.flags.writeable = False
        out.append(BlockWeights(j=HalfInteger(tj), a=a[0], c=math.exp(log_c), p=p))
    return out


def jz_expectation(j: HalfIntLike, r: float) -> float:
    """Mean magnetic number sum_m m a_m^j of a spin-j block at purity r."""
    tj = as_half(j).twice_value
    if tj < 0:
        raise ValueError(f"j must be non-negative, got {tj}/2")
    return mean_m(tj, spin_spectrum(tj, [check_purity(r)])[0])[0]


def mean_m(tj: int, a: np.ndarray) -> list[float]:
    """<Jz>_j = sum_m m a_m of each row of spin-j weights ``a``, ascending m: one dot per row."""
    ms = np.arange(-tj, tj + 1, 2) / 2.0
    return [float(ms @ row) for row in a]


def side_fractions(tj: int, r: float) -> tuple[float, float]:
    """(alpha_j, kappa_j) = (m / j, m / (j (j+1))) of one side, m = r <Jz>_j; both 0 at j = 0.

    alpha_j splits a block between its two couplings and kappa_j weighs the
    side in the conditioned operator; ``mixed._lane_spectrum`` forms both alike.
    """
    if tj == 0:
        return 0.0, 0.0
    m, j = r * jz_expectation(HalfInteger(tj), r), tj / 2.0
    return m / j, m / (j * (j + 1.0))


@dataclass
class BlockOperator:
    """A Hermitian operator stored per total-magnetic-number sector.

    ``sectors`` maps a doubled total magnetic number to a Hermitian matrix;
    ``index`` gives the basis labels of each sector (doubled coupled momenta
    for two-body operators on the training pair, or (2mA, 2mB, 2mC) product
    labels for three-body difference operators).
    """

    label: BlockLabel
    basis: str
    sectors: dict[int, np.ndarray]
    index: dict[int, tuple]

    def __post_init__(self):
        for tm, mat in self.sectors.items():
            if mat.shape != (len(self.index[tm]),) * 2:
                raise IntegrityError(f"sector {tm}/2 shape {mat.shape} does not match its index")
            if np.abs(mat - mat.conj().T).max() > HERMITICITY_TOL:
                raise IntegrityError(f"sector {tm}/2 is not Hermitian within {HERMITICITY_TOL}")
            mat.flags.writeable = False

    def trace(self) -> float:
        return float(sum(np.trace(m).real for m in self.sectors.values()))

    def iter_sectors(self) -> Iterator[tuple[int, np.ndarray]]:
        return iter(sorted(self.sectors.items()))

    def to_json_dict(self) -> dict:
        return {
            "label": {"jA": str(self.label.jA), "jC": str(self.label.jC)},
            "basis": self.basis,
            "sectors": [
                {
                    "twice_m": tm,
                    "index": [list(x) if isinstance(x, tuple) else x for x in self.index[tm]],
                    "matrix": np.asarray(mat).real.tolist(),
                }
                for tm, mat in self.iter_sectors()
            ],
        }


def trace_norm(op: BlockOperator) -> float:
    """Sum of absolute eigenvalues over all sectors."""
    total = 0.0
    for tm, mat in op.sectors.items():
        if np.abs(mat - mat.conj().T).max() > HERMITICITY_TOL:
            raise IntegrityError(f"sector {tm}/2 is not Hermitian within {HERMITICITY_TOL}")
        sym = (mat + mat.conj().T) / 2.0
        total += float(np.abs(np.linalg.eigvalsh(sym)).sum())
    return total


# ---------------------------------------------------------------------------
# Coupled-basis machinery on the training pair (A, C)


def coupled_sector_index(label: BlockLabel, tm: int) -> tuple[int, ...]:
    """Doubled coupled momenta j present in the total-m sector of jA x jC."""
    ta, tc = label.jA.twice_value, label.jC.twice_value
    lo = max(abs(ta - tc), abs(tm))
    return tuple(range(lo, ta + tc + 1, 2))


def sector_range(label: BlockLabel) -> range:
    ta, tc = label.jA.twice_value, label.jC.twice_value
    return range(-(ta + tc), ta + tc + 1, 2)


def coupled_jz_sector(label: BlockLabel, which: Literal["A", "C"], tm: int) -> np.ndarray:
    """Matrix of Jz on one training side, in the coupled |j, m> basis of one sector.

    Jz_A is tridiagonal in j (Wigner-Eckart); Jz_C = m 1 - Jz_A.
    """
    if which not in ("A", "C"):
        raise ValueError(f"which must be 'A' or 'C', got {which!r}")
    ta, tc = label.jA.twice_value, label.jC.twice_value
    diag, off = jz_a_bands(ta, tc, tm)
    lo = max(abs(tm) - abs(ta - tc), 0) // 2  # the padding rows, j < |m|
    mat = tridiagonal(diag[lo:], off[lo:])
    return tm / 2.0 * np.eye(len(mat)) - mat if which == "C" else mat


def jz_a_bands(ta: int, tc: int, tm) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of Jz_A in the coupled sectors tm of (ta/2) x (tc/2).

    <j, m| Jz_A |j, m> = m [j(j+1) + jA(jA+1) - jC(jC+1)] / (2 j(j+1)) and
    <j-1, m| Jz_A |j, m> = sqrt((j^2-m^2)(j^2-(jA-jC)^2)((jA+jC+1)^2-j^2)) / (2j sqrt(4j^2-1)).
    ``tm`` is one doubled magnetic number or an array of them, one column
    each.  Row i is 2j = |2jA - 2jC| + 2i in every sector; the rows with
    j < |m|, outside the sector, are zero (its front padding).
    """
    m = np.asarray(tm) / 2.0
    js = np.arange(abs(ta - tc), ta + tc + 1, 2).reshape((-1,) + (1,) * m.ndim) / 2.0
    ja, jc = ta / 2.0, tc / 2.0
    inside = js >= np.abs(m)
    jj = js * (js + 1.0)
    diag = np.divide(m * (jj + ja * (ja + 1.0) - jc * (jc + 1.0)), 2.0 * jj,
                     out=np.zeros(inside.shape), where=inside & (jj > 0))
    hi = js[1:]
    radicand = (hi ** 2 - m * m) * (hi ** 2 - (ja - jc) ** 2) * ((ja + jc + 1.0) ** 2 - hi ** 2)
    off = np.sqrt(np.where(inside[:-1], radicand, 0.0)) / (2.0 * hi * np.sqrt(4.0 * hi ** 2 - 1.0))
    return diag, off


def tridiagonal(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Symmetric matrices (..., D, D) from position-major bands, (D, ...) and (D - 1, ...)."""
    D = len(diag)
    A, ar = np.zeros(diag.shape[1:] + (D, D)), np.arange(D)
    A[..., ar, ar] = np.moveaxis(diag, 0, -1)
    A[..., ar[:-1], ar[1:]] = A[..., ar[1:], ar[:-1]] = np.moveaxis(off, 0, -1)
    return A


def coupled_jz(label: BlockLabel, which: Literal["A", "C"]) -> BlockOperator:
    """Jz of one training side as a block operator in the coupled basis."""
    sectors, index = {}, {}
    for tm in sector_range(label):
        sectors[tm] = coupled_jz_sector(label, which, tm)
        index[tm] = coupled_sector_index(label, tm)
    return BlockOperator(label=label, basis=BASIS_AC_COUPLED, sectors=sectors, index=index)


# ---------------------------------------------------------------------------
# Large-n continuum limit of the block distribution


def asymptotic_block_distribution(n: int, r: float, x: float) -> float:
    """Continuum density p_n(x) of the scaled block momentum x = 2j/n.

    p_n(x) = sqrt(n / (2 pi)) (1 - x^2)^(-1/2) x (1+r) / (r (1+x))
             exp(-n H((1+x)/2 || (1+r)/2))

    with H the binary relative entropy (natural log).  Valid for x, r in (0, 1).
    """
    if not 0.0 < x < 1.0 or not 0.0 < r < 1.0:
        raise ValueError(f"x and r must lie strictly inside (0, 1), got x={x}, r={r}")
    check_count(n)
    s, t = (1.0 + x) / 2.0, (1.0 + r) / 2.0
    H = s * math.log(s / t) + (1.0 - s) * math.log((1.0 - s) / (1.0 - t))
    pref = math.sqrt(n / (2.0 * math.pi)) / math.sqrt(1.0 - x * x) * (x * (1.0 + r)) / (r * (1.0 + x))
    return pref * math.exp(-n * H)

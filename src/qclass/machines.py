"""Closed-form error probabilities for every classification machine.

All machines consume a training set of n + n qubits (n labelled 0 on side A,
n labelled 1 on side C) and classify one data qubit B:

* ``opt``          -- optimal joint (programmable) measurement on all 2n+1
                      qubits; the absolute error floor.
* ``lm``           -- learning machine: covariant measurement on the training
                      set followed by a Stern-Gerlach on the data qubit along
                      the measured direction.  Attains the floor for every n.
* ``ed_continuous``-- estimate both training states with the covariant
                      continuous measurement, then discriminate.
* ``ed_n1``        -- best known finite-outcome estimate-and-discriminate
                      machine at n = 1.
* ``reversed``     -- measure the data qubit first, then the training set.

Excess risk is always error probability minus ``baseline_error(r)``, the
average error of discriminating the two source states when they are known.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import blocks
from .blocks import BlockLabel, BlockOperator
from .su2 import HalfInteger, check_count


def baseline_error(r: float = 1.0) -> float:
    """Average two-known-states discrimination error at purity r: 1/2 - r/3."""
    return 0.5 - blocks.check_purity(r) / 3.0


@dataclass(frozen=True)
class MachineReport:
    """Error probability and excess risk of one machine at one configuration."""

    machine: str
    n: int
    r: float
    error_probability: float
    excess_risk: float
    method: str
    nA: Optional[int] = None
    nC: Optional[int] = None
    solver_gap: Optional[float] = None

    def to_json_dict(self) -> dict:
        out = {
            "machine": self.machine,
            "n": self.n,
            "r": self.r,
            "error_probability": self.error_probability,
            "excess_risk": self.excess_risk,
            "method": self.method,
        }
        if self.nA is not None:
            out["nA"] = self.nA
        if self.nC is not None:
            out["nC"] = self.nC
        if self.solver_gap is not None:
            out["solver_gap"] = self.solver_gap
        return out


def make_report(machine: str, n: int, error: float, r: float = 1.0,
                method: str = "closed_form", nA: Optional[int] = None,
                nC: Optional[int] = None, solver_gap: Optional[float] = None) -> MachineReport:
    return MachineReport(
        machine=machine, n=n, r=r, error_probability=error,
        excess_risk=error - baseline_error(r), method=method,
        nA=nA, nC=nC, solver_gap=solver_gap,
    )


# ---------------------------------------------------------------------------
# Optimal joint measurement (pure states)


def programmable_error_pure(n: int) -> float:
    """Minimum error of the joint measurement on n + n + 1 pure qubits.

    1/2 - (1 / (d_n^2 d_{n+1})) sum_{k=0}^{n} k sqrt(d_n^2 - k^2),  d_m = m + 1.
    """
    d = check_count(n, 0, "n must be non-negative, got {}") + 1
    acc = sum(k * math.sqrt(d * d - k * k) for k in range(1, n + 1))
    return 0.5 - acc / (d * d * (d + 1))


def programmable_error_unbalanced(nA: int, nC: int) -> float:
    """Optimal joint-measurement error for nA + nC + 1 pure qubits.

    Closed form in the averaged-state dimensions D0 = (nA+2)(nC+1) and
    D1 = (nA+1)(nC+2); symmetric under swapping the two sides.
    """
    for count in (nA, nC):
        check_count(count, 0, f"qubit counts must be non-negative, got {nA}, {nC}")
    if nA < nC:
        nA, nC = nC, nA
    D0 = (nA + 2) * (nC + 1)
    D1 = (nA + 1) * (nC + 2)
    acc = 0.0
    for k in range(nC + 1):
        root = 1.0 - 4.0 * D0 * D1 / (D0 + D1) ** 2 \
            * ((nA - nC + k + 1) * (k + 1)) / ((nA + 1) * (nC + 1))
        acc += (nA - nC + 2 * k + 2) * math.sqrt(max(root, 0.0))
    return 0.25 * (1.0 + D0 / D1 - (D0 + D1) / (D0 * D1) * acc)


# ---------------------------------------------------------------------------
# Learning machine


@dataclass(frozen=True)
class SeedVector:
    """Coefficients over j = 0..n of the rank-one, zero-magnetic-number seed."""

    n: int
    coefficients: np.ndarray

    def __post_init__(self):
        if len(self.coefficients) != self.n + 1:
            raise ValueError(f"need {self.n + 1} coefficients, got {len(self.coefficients)}")
        self.coefficients.flags.writeable = False


def lm_seed(n: int) -> SeedVector:
    """The optimal seed: coefficient sqrt(2j+1) on each |j, 0> of the training pair."""
    check_count(n)
    return SeedVector(n=n, coefficients=np.sqrt(2.0 * np.arange(n + 1) + 1.0))


def verify_seed(seed: SeedVector) -> bool:
    """Check the completeness condition sum_m <j,m|Omega_m|j,m> = 2j+1 for every j.

    Rank one at m = 0, it reads coefficient_j^2 = 2j+1, to 1e-10.  A solved
    ``sdp.Seed`` checks itself (``constraint_residual``, ``min_eigenvalue``).
    """
    want = 2.0 * np.arange(seed.n + 1) + 1.0
    return bool(np.abs(seed.coefficients ** 2 - want).max() <= 1e-10)


def gamma_up_pure(n: int) -> BlockOperator:
    """Training-pair operator whose seed overlap sets the learning-machine bias.

    (Jz_A - Jz_C) / (d_n^2 d_{n+1}) in the coupled basis, all magnetic sectors.
    """
    n = int(check_count(n))
    label = BlockLabel(HalfInteger(n), HalfInteger(n))
    jzA = blocks.coupled_jz(label, "A")
    jzC = blocks.coupled_jz(label, "C")
    d = n + 1
    s = 1.0 / (d * d * (d + 1))
    sectors = {tm: 0.0 + s * A + (-s) * jzC.sectors[tm] for tm, A in jzA.sectors.items()}
    return BlockOperator(label=label, basis=jzA.basis, sectors=sectors, index=jzA.index)


def lm_error(n: int) -> float:
    """Learning-machine error probability at the optimal seed.

    From the squared norms of the projected seed-plus-data states: the
    projection of the seed (tensored with an up data qubit) onto the subspace
    symmetric over the data qubit and side C has coefficients
    sqrt(j) (sqrt(d_n + j) - sqrt(d_n - j)) / sqrt(2 d_n) on total momentum
    j - 1/2, j = 1..n+1.  The seed overlap with ``gamma_up_pure`` is the
    cross-check in the tests, and the block SDP at r = 1 in ``qclass verify``.
    """
    check_count(n)
    d = n + 1
    acc = 0.0
    for j in range(1, n + 2):
        c = math.sqrt(j) * (math.sqrt(d + j) - math.sqrt(d - j)) / math.sqrt(2.0 * d)
        acc += c * c
    return acc / (d * (d + 1))


# ---------------------------------------------------------------------------
# Estimate-and-discriminate machines


def ed_shrink_factor(n: int) -> float:
    """Bloch shrink of the data state conditioned on an optimal estimate: n/(n+2)."""
    check_count(n)
    return n / (n + 2.0)


def ed_error_continuous(n: int) -> float:
    """Estimate-and-discriminate error with continuous covariant estimation.

    Bias 4n / (3 (n + 2)); error (1 - bias/2) / 2.
    """
    check_count(n)
    bias = 4.0 * n / (3.0 * (n + 2))
    return 0.5 * (1.0 - bias / 2.0)


def ed_error_n1_optimal() -> float:
    """Best finite-outcome estimate-and-discriminate error at n = 1.

    Explicit four-term evaluation: estimates along +/-z on side A and +/-x on
    side C, each with probability 1/2, conditional Bloch vectors shrunk by 1/3.
    """
    eta = ed_shrink_factor(1)
    dirs_a = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])]
    dirs_c = [np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0])]
    bias = sum(
        0.5 * 0.5 * float(np.linalg.norm(eta * sa - eta * sc))
        for sa in dirs_a for sc in dirs_c
    )
    return 0.5 * (1.0 - bias / 2.0)


# ---------------------------------------------------------------------------
# Reversed-order machine and classical memory


def reversed_lm_error(n: int) -> float:
    """Error when the data qubit is measured before the training set.

    (1/2) (1 - (1/6) n / (n+1)).
    """
    check_count(n)
    return 0.5 * (1.0 - n / (6.0 * (n + 1)))


def memory_bound_bits(n: int) -> float:
    """Classical memory that suffices for the learning machine: log2(2 (n+1) (2n+1))."""
    check_count(n)
    return math.log2(2 * (n + 1) * (2 * n + 1))

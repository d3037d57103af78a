"""Mixed-source and unbalanced-training-set analysis.

For a source of purity r the training sides A and C scatter over angular
momentum blocks (jA, jC).  This module assembles the conditioned training-set
operator of every block, computes the absolute error floor from the block
trace norms, optimizes the learning-machine seed block by block with the
semidefinite solver, and drives the (n, r) sweep grid.

Block trace norms take one route: each total-momentum sector of a block
difference holds at most two rank-one projectors, whose principal cosine
has a closed form, so no dense eigendecomposition is needed at any n.  The
dense per-sector eigendecomposition of ``blocks.average_state_diff_mixed``
remains the cross-check in the tests and in ``qclass verify``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import blocks as blk
from . import machines, sdp
from .blocks import BlockLabel, BlockOperator, SpectrumParams
from .su2 import HalfInteger, triangle_ok


def gamma_up_mixed(label: BlockLabel, params: SpectrumParams) -> BlockOperator:
    """Conditioned training-set operator of one block, coupled basis.

    [kA Jz_A - kC Jz_C] / (2 d_{2jA} d_{2jC}) with kS = r <Jz>_{jS} / (jS (jS+1));
    a side with jS = 0 contributes nothing.
    """
    ta, tc = label.jA.twice_value, label.jC.twice_value
    r = params.r
    scale = 2.0 * (ta + 1) * (tc + 1)

    def kappa(tj: int) -> float:
        if tj == 0:
            return 0.0
        j = tj / 2.0
        return r * blk.jz_expectation(HalfInteger(tj), r) / (j * (j + 1.0))

    jzA = blk.coupled_jz(label, "A")
    jzC = blk.coupled_jz(label, "C")
    return blk.combine([jzA, jzC], [kappa(ta) / scale, -kappa(tc) / scale])


# ---------------------------------------------------------------------------
# Block trace norms


def block_trace_norm(label: BlockLabel, params: SpectrumParams) -> float:
    """Trace norm of sigma0 - sigma1 on one block.

    In each total-J sector the difference is a Jz_A-aligned projector minus a
    Jz_C-aligned one plus a multiple of the identity; at most two dimensions,
    with the principal cosine given by ``_recoupling_cos2``.
    """
    ta, tc = label.jA.twice_value, label.jC.twice_value
    return _trace_norm_from_alphas(ta, tc, blk._alpha(ta, params.r), blk._alpha(tc, params.r))


def block_labels(n: int) -> list[BlockLabel]:
    """All block labels of an n + n training set, outer momentum first, ascending."""
    return [
        BlockLabel(HalfInteger(ta), HalfInteger(tc))
        for ta in range(n % 2, n + 1, 2)
        for tc in range(n % 2, n + 1, 2)
    ]


def block_probabilities(n: int, r: float) -> dict[tuple[int, int], float]:
    """p_xi = p_jA p_jC over all block labels, keyed by doubled momenta."""
    weights = {w.j.twice_value: w.p for w in blk.block_weights(SpectrumParams(n, r))}
    return {
        (ta, tc): weights[ta] * weights[tc]
        for ta in sorted(weights) for tc in sorted(weights)
    }


def mixed_programmable_risk(n: int, r: float,
                            weight_cutoff: float = 1e-15) -> machines.MachineReport:
    """Absolute error floor at (n, r) from the weighted block trace norms.

    error = 1/2 - (1/4) sum_xi p_xi || sigma0_xi - sigma1_xi ||_1.
    Blocks with p_xi below ``weight_cutoff`` are skipped (each can shift the
    bias by at most 2 p_xi); the label pair (jA, jC) and its mirror share one
    trace norm.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    params = SpectrumParams(n, r)
    probs = block_probabilities(n, r)
    bias = 0.0
    for (ta, tc), p in probs.items():
        if ta > tc or p <= weight_cutoff:
            continue
        label = BlockLabel(HalfInteger(ta), HalfInteger(tc))
        norm = block_trace_norm(label, params)
        if ta == tc:
            bias += p * norm
        else:
            p_mirror = probs[(tc, ta)]
            bias += (p + p_mirror) * norm
    error = 0.5 - bias / 4.0
    return machines.make_report("opt", n, error, r=r, method="closed_form")


# ---------------------------------------------------------------------------
# Learning-machine risk through the block semidefinite problem


def build_lm_problem(n: int, r: float) -> sdp.BlockSdpProblem:
    """Seed-optimization problem: every block label, every magnetic sector."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    params = SpectrumParams(n, r)
    probs = block_probabilities(n, r)
    out = []
    for label in block_labels(n):
        xi = (label.jA.twice_value, label.jC.twice_value)
        gamma = gamma_up_mixed(label, params)
        for tm, cost in gamma.iter_sectors():
            out.append(sdp.SdpBlock(
                xi=xi, tm=tm, cost=np.asarray(cost), weight=probs[xi],
                channels=gamma.index[tm],
            ))
    return sdp.BlockSdpProblem(out)


def solve_lm(n: int, r: float, tol: float = sdp.DEFAULT_TOL,
             x0: Optional[dict] = None,
             max_iter: int = sdp.DEFAULT_MAX_ITER) -> tuple[machines.MachineReport, sdp.Seed]:
    """Optimal learning-machine risk at (n, r); returns (report, solved seed)."""
    problem = build_lm_problem(n, r)
    seed = sdp.solve(problem, tol=tol, max_iter=max_iter, x0=x0)
    error = 0.5 * (1.0 - seed.objective / 2.0)
    report = machines.make_report("lm", n, error, r=r, method="sdp", solver_gap=seed.gap)
    return report, seed


def mixed_lm_risk(n: int, r: float, tol: float = sdp.DEFAULT_TOL,
                  max_iter: int = sdp.DEFAULT_MAX_ITER) -> machines.MachineReport:
    """Optimal learning-machine risk at (n, r) through the block solver."""
    report, _ = solve_lm(n, r, tol=tol, max_iter=max_iter)
    return report


# ---------------------------------------------------------------------------
# Unbalanced training sets, asymptotic regime


@dataclass(frozen=True)
class UnbalancedCheck:
    """Asymptotic scale factor of the block difference plus a finite-n probe."""

    factor: float              # r (1 - (1-r)/(n r^2))
    exact_norm: float          # trace norm of the probed block difference
    scaled_pure_norm: float    # factor times the matched pure-block norm
    ratio: float               # exact / pure norm (compare with factor)
    label: tuple[int, int]     # probed (2 jA, 2 jC)
    expansion_valid: bool      # False when n r^2 <= 1


def unbalanced_block_diff_asymptotic(n: int, r: float, delta: float = 0.0) -> UnbalancedCheck:
    """Scale factor r (1 - (1-r)/(n r^2)) and its finite-n numerical probe.

    The probe places nA/C = n +/- delta sqrt(n) qubits per side, picks the
    block nearest (r nA / 2, r nC / 2), and compares its exact difference
    trace norm against the scaled pure-block norm at matched total momentum.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 < r <= 1.0:
        raise ValueError(f"purity must lie in (0, 1], got {r}")
    factor = r * (1.0 - (1.0 - r) / (n * r * r))
    valid = n * r * r > 1.0

    shift = int(round(delta * math.sqrt(n)))
    nA, nC = n + shift, n - shift
    if nC < 1:
        raise ValueError(f"delta={delta} empties side C at n={n}")

    def near_block(side_n: int) -> int:
        want = r * side_n  # doubled momentum 2 j = r nA
        t = int(round(want))
        if (t - side_n) % 2 != 0:
            t += 1 if t + 1 <= side_n else -1
        return min(max(t, side_n % 2), side_n)

    ta, tc = near_block(nA), near_block(nC)
    exact = _trace_norm_from_alphas(ta, tc, blk._alpha(ta, r), blk._alpha(tc, r))
    tbar = round((ta + tc) / 2)  # matched pure block: total momentum ~ r n / 2 per side
    pure = _trace_norm_from_alphas(tbar, tbar, 1.0, 1.0)
    return UnbalancedCheck(
        factor=factor, exact_norm=exact, scaled_pure_norm=factor * pure,
        ratio=exact / pure if pure else math.nan, label=(ta, tc),
        expansion_valid=valid,
    )


def _trace_norm_from_alphas(ta: int, tc: int, aA: float, aC: float) -> float:
    """Spectral block trace norm directly from the two coupling fractions."""
    a = aA / ((ta + 2) * (tc + 1))
    b = aC / ((ta + 1) * (tc + 2))
    c = (aC - aA) / (2.0 * (ta + 1) * (tc + 1))
    total = 0.0
    tJs = set()
    for tab in (ta + 1, abs(ta - 1)):
        if ta == 0 and tab != 1:
            continue
        for tJ in range(abs(tab - tc), tab + tc + 1, 2):
            tJs.add(tJ)
    for tJ in sorted(tJs):
        u_ok = triangle_ok(ta + 1, tc, tJ)
        u2_ok = ta >= 1 and triangle_ok(ta - 1, tc, tJ)
        v_ok = triangle_ok(ta, tc + 1, tJ)
        mult = tJ + 1
        if int(u_ok) + int(u2_ok) == 1:
            total += mult * abs(a * int(u_ok) - b * int(v_ok) + c)
        else:
            t2 = _recoupling_cos2(ta, tc, tJ)
            disc = math.sqrt((a - b) ** 2 + 4.0 * a * b * (1.0 - t2))
            total += mult * (abs(c + 0.5 * ((a - b) + disc)) + abs(c + 0.5 * ((a - b) - disc)))
    return total


def _recoupling_cos2(ta: int, tc: int, tJ: int) -> float:
    """Squared principal cosine (2jA+2)(2jC+2) {jA 1/2 jA+1/2; jC J jC+1/2}^2, closed form."""
    return (tJ + tc - ta + 1) * (tJ + ta - tc + 1) / (4.0 * (ta + 1) * (tc + 1))


# ---------------------------------------------------------------------------
# Sweep driver


@dataclass(frozen=True)
class SweepConfig:
    """Grid description for the risk sweep."""

    n_values: tuple[int, ...] = (1, 2, 3, 4, 5)
    r_min: float = 0.1
    r_max: float = 1.0
    steps: int = 46
    tol: float = sdp.DEFAULT_TOL
    max_iter: int = sdp.DEFAULT_MAX_ITER

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0.0 < self.r_min <= self.r_max <= 1.0:
            raise ValueError("need 0 < r_min <= r_max <= 1")
        if any(n < 1 for n in self.n_values):
            raise ValueError("n values must be positive")

    def r_grid(self) -> np.ndarray:
        if self.steps == 1:
            return np.array([self.r_min])
        return np.linspace(self.r_min, self.r_max, self.steps)


@dataclass(frozen=True)
class SweepRow:
    n: int
    r: float
    R_lm: float
    R_opt: float
    rel_gap: float
    solver_gap: float
    error: Optional[str] = None


@dataclass
class SweepTable:
    rows: list[SweepRow]
    config: SweepConfig

    CSV_HEADER = "n,r,R_lm,R_opt,rel_gap,solver_gap"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for row in self.rows:
            lines.append(",".join(
                [str(row.n)] + [f"{v:.17g}" for v in
                                (row.r, row.R_lm, row.R_opt, row.rel_gap, row.solver_gap)]
            ))
        return "\n".join(lines) + "\n"

    def failures(self) -> list[SweepRow]:
        return [row for row in self.rows if row.error is not None]


def _sweep_lane(args) -> list[SweepRow]:
    """All rows of one n: sequential in r, warm-starting each solve."""
    n, config = args
    rows = []
    x0 = None
    for r in config.r_grid():
        r = float(r)
        opt = mixed_programmable_risk(n, r)
        try:
            lm, seed = solve_lm(n, r, tol=config.tol, x0=x0, max_iter=config.max_iter)
            x0 = seed.blocks
            rows.append(SweepRow(
                n=n, r=r, R_lm=lm.excess_risk, R_opt=opt.excess_risk,
                rel_gap=(lm.excess_risk - opt.excess_risk) / opt.excess_risk
                if opt.excess_risk else 0.0,
                solver_gap=seed.gap,
            ))
        except sdp.SolverError as exc:
            x0 = exc.seed.blocks
            rows.append(SweepRow(
                n=n, r=r, R_lm=math.nan, R_opt=opt.excess_risk,
                rel_gap=math.nan, solver_gap=exc.seed.gap, error=str(exc),
            ))
    return rows


def run_sweep(config: SweepConfig, threads: int = 1) -> SweepTable:
    """Risk table over the (n, r) grid; deterministic for a given config.

    Lanes (fixed n) are independent and may run in parallel; rows within a
    lane share solver warm starts, so results do not depend on ``threads``.
    """
    lanes = [(n, config) for n in config.n_values]
    if threads > 1 and len(lanes) > 1:
        import multiprocessing as mp
        with mp.get_context("fork").Pool(min(threads, len(lanes))) as pool:
            per_lane = pool.map(_sweep_lane, lanes)
    else:
        per_lane = [_sweep_lane(l) for l in lanes]
    rows = [row for lane in per_lane for row in lane]
    return SweepTable(rows=rows, config=config)

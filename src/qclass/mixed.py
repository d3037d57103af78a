"""Mixed-source and unbalanced-training-set analysis.

For a source of purity r the training sides A and C scatter over angular
momentum blocks (jA, jC).  This module assembles the conditioned training-set
operator of every block, computes the absolute error floor from the block
trace norms, optimizes the learning-machine seed block by block with the
semidefinite solver, and drives the (n, r) sweep grid.

Block trace norms take one route: each total-momentum sector of a block
difference holds at most two rank-one projectors, whose principal cosine
has a closed form, so no dense eigendecomposition is needed at any n; the
sum over total momenta is one numpy expression.  The dense per-sector
eigendecomposition of ``oracle.average_state_diff_mixed`` remains the
cross-check in the tests and in ``qclass verify``.

The seed problem never couples two block labels, so each label is its own
solver problem, and two symmetries cut their number: a label and its mirror
(jC, jA) share one build and one solve, and a label with jA = jC or jA = 0
costs a non-negative multiple of one r-independent matrix, solved once and
scaled.  The remaining labels of every purity in a sweep lane go to the
solver's batch entry together; ``solve_lm`` is the one-purity case.  Solving
the whole problem jointly is the cross-check in the tests.  Every solve
starts from the solver's analytic starting point, with no warm start, and
the solver's results do not depend on what shares a batch, so each sweep
row depends only on its own (n, r).
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import blocks as blk
from . import machines, sdp
from .blocks import BlockLabel, BlockOperator, SpectrumParams
from .su2 import HalfInteger


def gamma_up_mixed(label: BlockLabel, params: SpectrumParams) -> BlockOperator:
    """Conditioned training-set operator of one block, coupled basis.

    [kA Jz_A - kC Jz_C] / (2 d_{2jA} d_{2jC}) with kS = r <Jz>_{jS} / (jS (jS+1));
    a side with jS = 0 contributes nothing.
    """
    ta, tc = label.jA.twice_value, label.jC.twice_value
    return _gamma(label, _kappa(ta, params.r), _kappa(tc, params.r))


def _kappa(tj: int, r: float) -> float:
    """kS = r <Jz>_{jS} / (jS (jS+1)) of one side; 0 for jS = 0."""
    if tj == 0:
        return 0.0
    j = tj / 2.0
    return r * blk.jz_expectation(HalfInteger(tj), r) / (j * (j + 1.0))


def _gamma(label: BlockLabel, kA: float, kC: float) -> BlockOperator:
    """[kA Jz_A - kC Jz_C] / (2 d_{2jA} d_{2jC}) for given side coefficients.

    Summed sector by sector from the cached Jz sectors, in the order and
    arithmetic of ``blocks.combine``.
    """
    scale = 2.0 * (label.jA.twice_value + 1) * (label.jC.twice_value + 1)
    a, c = kA / scale, -kC / scale
    sectors, index = {}, {}
    for tm in blk.sector_range(label):
        jz_a = blk.coupled_jz_sector(label, "A", tm)
        sectors[tm] = np.zeros(jz_a.shape) + a * jz_a + c * blk.coupled_jz_sector(label, "C", tm)
        index[tm] = blk.coupled_sector_index(label, tm)
    return BlockOperator(label=label, basis=blk.BASIS_AC_COUPLED, sectors=sectors, index=index)


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
    trace norm.  A side whose weight times the largest weight is already at
    the cutoff is dropped before any product is formed, and each remaining
    side's coupling fraction is computed once.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    weights = {w.j.twice_value: w.p for w in blk.block_weights(SpectrumParams(n, r))}
    top = max(weights.values())
    sides = [tj for tj in sorted(weights) if weights[tj] * top > weight_cutoff]
    alpha = {tj: blk._alpha(tj, r) for tj in sides}
    bias = 0.0
    for i, ta in enumerate(sides):
        for tc in sides[i:]:
            p = weights[ta] * weights[tc]
            if p <= weight_cutoff:
                continue
            norm = _trace_norm_from_alphas(ta, tc, alpha[ta], alpha[tc])
            bias += p * norm if ta == tc else (p + weights[tc] * weights[ta]) * norm
    error = 0.5 - bias / 4.0
    return machines.make_report("opt", n, error, r=r, method="closed_form")


# ---------------------------------------------------------------------------
# Learning-machine risk through the block semidefinite problem


def build_lm_problem(n: int, r: float) -> sdp.BlockSdpProblem:
    """Seed-optimization problem: every block label, every magnetic sector.

    Only labels with jA <= jC are built.  The mirror (jC, jA) has the same
    weight, and its sector m shares the cost array and channels of sector -m.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    params = SpectrumParams(n, r)
    probs = block_probabilities(n, r)
    built, out = {}, []
    for label in block_labels(n):
        ta, tc = label.jA.twice_value, label.jC.twice_value
        if ta <= tc:
            built[ta, tc] = _label_blocks((ta, tc), gamma_up_mixed(label, params), probs[ta, tc])
            out += built[ta, tc]
        else:  # labels ascend in jA, so the mirror is built already
            out += [sdp.SdpBlock((ta, tc), -b.tm, b.cost, b.weight, b.channels)
                    for b in reversed(built[tc, ta])]
    return sdp.BlockSdpProblem(out)


def _label_blocks(xi: tuple[int, int], gamma: BlockOperator, weight: float) -> list[sdp.SdpBlock]:
    return [sdp.SdpBlock(xi=xi, tm=tm, cost=np.asarray(cost), weight=weight,
                         channels=gamma.index[tm])
            for tm, cost in gamma.iter_sectors()]


def solve_lm(n: int, r: float, tol: float = sdp.DEFAULT_TOL,
             max_iter: int = sdp.DEFAULT_MAX_ITER) -> tuple[machines.MachineReport, sdp.Seed]:
    """Optimal learning-machine risk at (n, r); returns (report, solved seed).

    The one-purity case of ``_lm_seeds``; above ``tol``, ``SolverError``
    carries the assembled seed.
    """
    (seed,) = _lm_seeds(n, [r], tol, max_iter)
    return _lm_report(n, r, seed, tol), seed


def _lm_report(n: int, r: float, seed: sdp.Seed, tol: float) -> machines.MachineReport:
    if not seed.gap <= tol:
        raise sdp.SolverError(
            f"gap {seed.gap:.3e} above tolerance {tol:.3e} after "
            f"{seed.iterations} iterations", seed)
    error = 0.5 * (1.0 - seed.objective / 2.0)
    return machines.make_report("lm", n, error, r=r, method="sdp", solver_gap=seed.gap)


def _lm_seeds(n: int, rs: list[float], tol: float, max_iter: int) -> list[sdp.Seed]:
    """Assembled seeds of ``build_lm_problem(n, r)`` for every r, in one batch.

    No constraint couples two block labels, so each label is its own
    problem.  Only labels with jA <= jC are solved: the mirror (jC, jA) has
    the same cost with m negated, so its sectors are X[(tc, ta), -tm] =
    X[(ta, tc), tm].  Labels with jA = jC or jA = 0 have cost s(r) C_unit
    with s = p_xi kappa >= 0; their unit problem is solved once per
    tolerance (``_unit_label_seeds``) and scaled.  The other labels of every
    r go to the solver together.  Each label gets tol / (number of labels),
    so the assembled certified gap, the sum of the labels' scaled gaps,
    stays within ``tol``.
    """
    sdp.check_tol(tol)
    problems = [build_lm_problem(n, r) for r in rs]
    by_label = []
    for problem in problems:
        labels: dict[tuple[int, int], list[sdp.SdpBlock]] = {}
        for b in problem.blocks:
            labels.setdefault(b.xi, []).append(b)
        by_label.append(labels)
    label_tol = tol / len(by_label[0])
    solved = [xi for xi in by_label[0] if xi[0] <= xi[1]]
    unit = [xi for xi in solved if xi[0] == xi[1] or xi[0] == 0]
    unit_seeds = dict(zip(unit, _unit_label_seeds(unit, label_tol, max_iter)))
    varying = [sdp.BlockSdpProblem(labels[xi]) for labels in by_label
               for xi in solved if xi not in unit_seeds]
    varying_seeds = iter(sdp.solve_many(varying, label_tol, max_iter))
    seeds = []
    for r, problem, labels in zip(rs, problems, by_label):
        parts = [(xi, unit_seeds[xi], labels[xi][0].weight * _kappa(xi[1], r))
                 if xi in unit_seeds else (xi, next(varying_seeds), 1.0) for xi in solved]
        seeds.append(_assemble_seed(problem, parts))
    return seeds


_unit_seeds: dict[tuple, sdp.Seed] = {}


def _unit_label_seeds(labels: list[tuple[int, int]], tol: float,
                      max_iter: int) -> list[sdp.Seed]:
    """Solves of labels at unit cost (Jz_A - Jz_C) / (2 d_{2jA} d_{2jC}), cached.

    For jA = jC, and for jA = 0 where Jz_A vanishes, this is the label's cost
    divided by p_xi kappa_C, which is the only place r enters.  The labels
    not cached yet go to the solver together.  The best point is kept if the
    gap does not close; the caller judges its gap.  Cached sectors are
    read-only, as every seed assembled from them shares them.
    """
    todo = [xi for xi in labels if (xi, tol, max_iter) not in _unit_seeds]
    problems = [sdp.BlockSdpProblem(_label_blocks(
        xi, _gamma(BlockLabel(HalfInteger(xi[0]), HalfInteger(xi[1])), 1.0, 1.0), 1.0))
        for xi in todo]
    for xi, seed in zip(todo, sdp.solve_many(problems, tol, max_iter)):
        for X in seed.blocks.values():
            X.flags.writeable = False
        _unit_seeds[xi, tol, max_iter] = seed
    return [_unit_seeds[xi, tol, max_iter] for xi in labels]


def _assemble_seed(problem: sdp.BlockSdpProblem, parts: list) -> sdp.Seed:
    """The whole problem's seed from (label, label seed, cost scale) triples, mirrors filled in.

    Objective, bound, gap and multipliers of a label scale with its cost;
    a label with a mirror counts twice.  The objective trace sums the
    labels' scaled traces, each held at its last value once it ends.
    """
    blocks, multipliers, traces = {}, {}, []
    objective = bound = gap = 0.0
    iterations = 0
    for (ta, tc), seed, scale in parts:
        mirrors = [(ta, tc)] if ta == tc else [(ta, tc), (tc, ta)]
        weight = len(mirrors) * scale
        objective += weight * seed.objective
        bound += weight * seed.bound
        gap += weight * seed.gap
        iterations += seed.iterations
        traces.append([weight * v for v in seed.objective_trace])
        for (_, tm), X in seed.blocks.items():
            for k, xi in enumerate(mirrors):
                blocks[xi, -tm if k else tm] = X
        for (_, tj), y in seed.multipliers.items():
            for xi in mirrors:
                multipliers[xi, tj] = scale * y
    steps = max(len(t) for t in traces)
    trace = [sum(t[min(k, len(t) - 1)] for t in traces) for k in range(steps)]
    return sdp.Seed(
        blocks={b.key: blocks[b.key] for b in problem.blocks}, objective=objective,
        bound=bound, gap=gap, iterations=iterations,
        multipliers={c: multipliers[c] for c in sorted(multipliers)},
        objective_trace=trace, problem=problem,
    )


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
    """Spectral block trace norm directly from the two coupling fractions.

    Summed over the total momenta J of (jA +- 1/2) x jC at once: where one of
    jA +- 1/2 couples to J the sector holds one projector, where both do it
    holds two, at the principal cosine of ``_recoupling_cos2``.
    """
    a = aA / ((ta + 2) * (tc + 1))
    b = aC / ((ta + 1) * (tc + 2))
    c = (aC - aA) / (2.0 * (ta + 1) * (tc + 1))
    tJ = np.arange(min(abs(ta + 1 - tc), abs(ta - 1 - tc)), ta + tc + 2, 2)
    u_ok = tJ >= abs(ta + 1 - tc)
    u2_ok = (ta >= 1) & (tJ >= abs(ta - 1 - tc)) & (tJ <= ta + tc - 1)
    v_ok = tJ >= abs(ta - tc - 1)
    mult = tJ + 1
    single = mult * np.abs(a * u_ok - b * v_ok + c)
    t2 = _recoupling_cos2(ta, tc, tJ)
    disc = np.sqrt(np.maximum((a - b) ** 2 + 4.0 * a * b * (1.0 - t2), 0.0))
    double = mult * (np.abs(c + 0.5 * ((a - b) + disc)) + np.abs(c + 0.5 * ((a - b) - disc)))
    return float(np.where(u_ok & u2_ok, double, single).sum())


def _recoupling_cos2(ta: int, tc: int, tJ: int | np.ndarray) -> float | np.ndarray:
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
        if not self.n_values:
            raise ValueError("the sweep needs at least one n value")
        if any(n < 1 for n in self.n_values):
            raise ValueError("n values must be positive")
        sdp.check_tol(self.tol)

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
    """All rows of one n, in r order, solved as one batch.

    Each row depends only on its own (n, r): the solver gives every problem
    the result it would give it alone.
    """
    n, config = args
    rs = [float(r) for r in config.r_grid()]
    rows = []
    for r, seed in zip(rs, _lm_seeds(n, rs, config.tol, config.max_iter)):
        opt = mixed_programmable_risk(n, r)
        try:
            lm = _lm_report(n, r, seed, config.tol)
            rows.append(SweepRow(
                n=n, r=r, R_lm=lm.excess_risk, R_opt=opt.excess_risk,
                rel_gap=(lm.excess_risk - opt.excess_risk) / opt.excess_risk
                if opt.excess_risk else 0.0,
                solver_gap=seed.gap,
            ))
        except sdp.SolverError as exc:
            rows.append(SweepRow(
                n=n, r=r, R_lm=math.nan, R_opt=opt.excess_risk,
                rel_gap=math.nan, solver_gap=seed.gap, error=str(exc),
            ))
    return rows


def run_sweep(config: SweepConfig, threads: int = 1) -> SweepTable:
    """Risk table over the (n, r) grid; deterministic for a given config.

    Lanes (fixed n) are independent and may run in parallel, at most one
    worker per core; every row depends only on its own (n, r), so results
    do not depend on ``threads``.
    """
    lanes = [(n, config) for n in config.n_values]
    workers = min(threads, len(lanes), os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing as mp
        with mp.get_context("fork").Pool(workers) as pool:
            per_lane = pool.map(_sweep_lane, lanes)
    else:
        per_lane = [_sweep_lane(l) for l in lanes]
    rows = [row for lane in per_lane for row in lane]
    return SweepTable(rows=rows, config=config)

"""Mixed-source and unbalanced-training-set analysis.

For a source of purity r the training sides A and C scatter over angular
momentum blocks (jA, jC).  This module assembles the conditioned training-set
operator of every block, computes the absolute error floor from the block
trace norms, optimizes the learning-machine seed block by block with the
semidefinite solver, and drives the (n, r) sweep grid.

A sweep lane (one n, all its purities) reads its block spectrum once, from
one ``blocks.block_weights`` call per r; its floor is one pass over every
kept label at every r.  Block trace norms take one route: each
total-momentum sector of a block difference holds at most two rank-one
projectors, whose principal cosine has a closed form, so no dense
eigendecomposition is needed at any n.  The dense per-sector
eigendecomposition of ``oracle.average_state_diff_mixed`` remains the
cross-check in the tests and in ``qclass verify``.

The seed problem never couples two block labels, so each label is its own
solver problem; a label and its mirror (jC, jA) share one solve, and a label
with jA = jC or jA = 0 costs a non-negative multiple of one r-independent
matrix, solved once per call and scaled for every purity of that call.  A
cost is a Jz_A + c (m 1 - Jz_A) with Jz_A tridiagonal, so ``_label_bands``
computes a label's Jz_A bands once over its (j, m) grid and gives its
bands for every (weight, kA, kC) asked of it in the same pass; r enters
through p_xi, kappa_A and kappa_C alone.  Every problem is an
``sdp.Bands``; no dense cost is formed for the solver.

Every dual slack S_m(y) is an unreduced tridiagonal, so every optimal X_m
has rank at most one.  Labels are closed in chunks (``_label_chunks``): one
``sdp.rank_one`` pass per jA gives every problem its rank-one point on one
full sector, most certified by the LDL' pivots of S_m(y) in every sector;
the others run the barrier on a growing active set of sectors.  A label's
result is its totals and how it closed, and a chunk is freed once they are
read.  A sweep lane sums each row from them (``_lm_row``); ``lm_risk`` is
the one-purity case, and only ``solve_lm`` assembles blocks, on a layout
read from the block labels.  The whole problem's bands, built label by
label with mirrors included (``build_lm_problem``), and their joint
barrier solve are the cross-check in the tests.  Each sweep row depends
only on its own (n, r), and no solver state outlives a call.
"""
from __future__ import annotations

import math
import os
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import blocks as blk
from . import machines, sdp
from .blocks import BlockLabel, BlockOperator, SpectrumParams
from .su2 import HalfInteger

WEIGHT_CUTOFF = 1e-15  # the floor leaves out every block of weight p_xi at or below it
_CHUNK_ENTRIES = 1 << 21  # band entries of the label problems closed at once


def gamma_up_mixed(label: BlockLabel, params: SpectrumParams) -> BlockOperator:
    """Conditioned training-set operator of one block, coupled basis.

    [kA Jz_A - kC Jz_C] / (2 d_{2jA} d_{2jC}) with kS = r <Jz>_{jS} / (jS (jS+1));
    a side with jS = 0 contributes nothing.
    """
    ta, tc = label.jA.twice_value, label.jC.twice_value
    return _gamma(label, _kappa(ta, params.r), _kappa(tc, params.r))


def _kappa(tj: int, r: float) -> float:
    """kS = r <Jz>_{jS} / (jS (jS+1)) of one side, as ``_lane_spectrum`` forms it."""
    j = tj / 2
    return 0.0 if tj == 0 else r * blk.jz_expectation(HalfInteger(tj), r) / (j * (j + 1.0))


def _gamma(label: BlockLabel, kA: float, kC: float) -> BlockOperator:
    """[kA Jz_A - kC Jz_C] / (2 d_{2jA} d_{2jC}) for given side coefficients: weight 1/2 bands."""
    (bands,) = _label_bands(label.jA.twice_value, label.jC.twice_value, [(0.5, kA, kC)])
    dense = blk.tridiagonal(bands.diag, bands.off)
    index = {tm: tjs for (_, tm), tjs in bands.layout().items()}
    sectors = {tm: dense[k, -len(t):, -len(t):].copy() for k, (tm, t) in enumerate(index.items())}
    return BlockOperator(label=label, basis=blk.BASIS_AC_COUPLED, sectors=sectors, index=index)


# ---------------------------------------------------------------------------
# Block trace norms


class _Spectrum(NamedTuple):
    """A lane's block spectrum: row i at purity rs[i], column 2j // 2 for the side j."""

    n: int
    rs: list[float]
    p: np.ndarray        # p_j
    alpha: np.ndarray    # r <Jz>_j / j, 0 at j = 0
    kappa: np.ndarray    # r <Jz>_j / (j (j+1)), 0 at j = 0


def _lane_spectrum(n: int, rs: list[float]) -> _Spectrum:
    """p_j, alpha_j and kappa_j of every side at every r, from one ``block_weights`` call per r."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    rows = np.array([[(w.p, r * blk.mean_m(w.j.twice_value, w.a))
                      for w in blk.block_weights(SpectrumParams(n, r))] for r in rs])
    j = np.maximum(np.arange(n % 2, n + 1, 2), 1) / 2.0  # r <Jz> is 0 at j = 0
    return _Spectrum(n, rs, rows[..., 0], rows[..., 1] / j, rows[..., 1] / (j * (j + 1.0)))


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
    p, sides = _lane_spectrum(n, [r]).p[0].tolist(), range(n % 2, n + 1, 2)
    return {(ta, tc): p[ta // 2] * p[tc // 2] for ta in sides for tc in sides}


def mixed_programmable_risk(n: int, r: float) -> machines.MachineReport:
    """Absolute error floor at (n, r) from the weighted block trace norms: ``_floors`` at one r."""
    return _floors(_lane_spectrum(n, [r]))[0]


def _floors(spectrum: _Spectrum) -> list[machines.MachineReport]:
    """Error floor 1/2 - (1/4) sum_xi p_xi ||sigma0_xi - sigma1_xi||_1 at every r of a lane.

    Blocks with p_xi <= ``WEIGHT_CUTOFF`` are skipped (each can shift the
    bias by at most 2 p_xi); a label and its mirror share one trace norm.
    Each row's bias is summed in label order, a skipped label adding an exact 0.
    """
    ka, kc = np.triu_indices(spectrum.n // 2 + 1)
    p = spectrum.p[:, ka] * spectrum.p[:, kc]
    rows, cols = np.nonzero(p > WEIGHT_CUTOFF)
    a, c, kept, odd = ka[cols], kc[cols], p[rows, cols], spectrum.n % 2
    norms = _trace_norms(2 * a + odd, 2 * c + odd, spectrum.alpha[rows, a], spectrum.alpha[rows, c])
    terms = np.zeros_like(p)
    terms[rows, cols] = np.where(a == c, kept, kept + kept) * norms
    bias = np.cumsum(terms, axis=1)[:, -1].tolist()
    return [machines.make_report("opt", spectrum.n, 0.5 - b / 4.0, r=r, method="closed_form")
            for r, b in zip(spectrum.rs, bias)]


# ---------------------------------------------------------------------------
# Learning-machine risk through the block semidefinite problem


def _label_bands(ta: int, tc: int, coeffs: list[tuple[float, float, float]]) -> list[sdp.Bands]:
    """Bands of 2 w [kA Jz_A - kC Jz_C] / (2 d_{2jA} d_{2jC}) on label (ta, tc), per (w, kA, kC).

    The label's Jz_A bands are computed once, one column per sector, m
    ascending, front-padded with zero rows; row i is the channel
    2j = |2jA - 2jC| + 2i in every sector.  Each cost is summed as
    0 + a Jz_A + c Jz_C is, every (w, kA, kC) in one array.
    """
    tms = np.arange(-(ta + tc), ta + tc + 1, 2)
    tjs = range(abs(ta - tc), ta + tc + 1, 2)
    jz, off = blk.jz_a_bands(ta, tc, tms)
    inside = np.array(tjs)[:, None] >= np.abs(tms)
    jz_c = np.where(inside, tms / 2.0 - jz, 0.0)
    keys, channels = [((ta, tc), tm) for tm in tms.tolist()], [((ta, tc), tj) for tj in tjs]
    slot = np.where(inside, np.arange(len(tjs))[:, None], len(tjs))
    weight, kA, kC = np.array(coeffs, float).T[:, :, None]
    scale = 2.0 * (ta + 1) * (tc + 1)
    a, c, w2 = kA / scale, -kC / scale, 2.0 * weight
    diag = w2 * (0.0 + a * jz[:, None] + c * jz_c[:, None])
    off = w2 * (0.0 + a * off[:, None] + c * (-off[:, None]))
    return [sdp.Bands(keys, channels, slot, diag[:, k], off[:, k]) for k in range(len(coeffs))]


def build_lm_problem(n: int, r: float) -> sdp.Bands:
    """Seed-optimization problem: every block label, every magnetic sector.

    Every label, mirrors included, is built by ``_label_bands`` on its own,
    so the cross-check does not reuse the label layer's mirror fold.  Labels
    and channels come in sorted order; every sector is front-padded to n + 1 rows.
    """
    spectrum = _lane_spectrum(n, [r])
    p, kappa = spectrum.p[0].tolist(), spectrum.kappa[0].tolist()
    labels = [(label.jA.twice_value, label.jC.twice_value) for label in block_labels(n)]
    D, count = n + 1, sum(ta + tc + 1 for ta, tc in labels)
    keys, channels = [], []
    diag, off, slot = np.zeros((D, count)), np.zeros((D - 1, count)), np.full((D, count), -1)
    first = 0
    for ta, tc in labels:
        (bands,) = _label_bands(ta, tc, [(p[ta // 2] * p[tc // 2], kappa[ta // 2], kappa[tc // 2])])
        (rows, width), nch = bands.slot.shape, len(bands.channels)
        at = np.s_[D - rows:, first:first + width]  # the rows of off end one earlier
        diag[at], off[at] = bands.diag, bands.off
        slot[at] = np.where(bands.slot < nch, bands.slot + len(channels), -1)
        keys += bands.keys
        channels += bands.channels
        first += width
    slot[slot < 0] = len(channels)
    return sdp.Bands(keys, channels, slot, diag, off)


def solve_lm(n: int, r: float,
             tol: float = sdp.DEFAULT_TOL) -> tuple[machines.MachineReport, sdp.Seed]:
    """Optimal learning-machine risk at (n, r); returns (report, solved seed).

    The one-purity case of ``_label_chunks``, its label seeds assembled on
    the block labels' layout; above ``tol``, ``SolverError`` carries that seed.
    """
    parts, seeds = [], []
    for chunk in _label_chunks(_lane_spectrum(n, [r]), tol):  # one problem per label
        parts += chunk.parts[0]
        seeds += [(xi, chunk.seed(k), scale) for k, (xi, _, scale) in enumerate(chunk.parts[0])]
    report, totals, error = _lm_row(n, r, parts, tol)
    seed = _assemble_seed(n, seeds, totals)
    if error is not None:
        raise sdp.SolverError(error, seed)
    return report, seed


def lm_risk(n: int, r: float, tol: float = sdp.DEFAULT_TOL) -> machines.MachineReport:
    """The report of ``solve_lm`` from the label totals alone, as a sweep row takes it.

    No blocks are assembled, so ``SolverError`` carries no seed.
    """
    (parts,) = _lm_parts(_lane_spectrum(n, [r]), tol)
    report, _, error = _lm_row(n, r, parts, tol)
    if error is not None:
        raise sdp.SolverError(error, None)
    return report


def _lm_row(n: int, r: float, parts: list,
            tol: float) -> tuple[machines.MachineReport, dict, Optional[str]]:
    """Report, totals and gap error of one row from its (label, closure, cost scale) parts.

    A mirrored label counts twice; the error is None where the summed gap meets ``tol``.
    """
    objective = bound = gap = 0.0
    iterations = 0
    for (ta, tc), closure, scale in parts:
        weight = (1 if ta == tc else 2) * scale
        objective += weight * closure.objective
        bound += weight * closure.bound
        gap += weight * closure.gap
        iterations += closure.iterations
    report = machines.make_report("lm", n, 0.5 * (1.0 - objective / 2.0), r=r, method="sdp",
                                  solver_gap=gap)
    error = None if gap <= tol else (
        f"gap {gap:.3e} above tolerance {tol:.3e} after {iterations} Newton steps summed "
        f"over {len(parts)} solved labels, at most {sdp.MAX_ITER} each")
    return report, dict(objective=objective, bound=bound, gap=gap, iterations=iterations), error


def _lm_parts(spectrum: _Spectrum, tol: float) -> list[list[tuple]]:
    """(label, closure, cost scale) of every solved label at every r of ``spectrum``."""
    rows = [[] for _ in spectrum.rs]
    for chunk in _label_chunks(spectrum, tol):
        for out, parts in zip(rows, chunk.parts):
            out += parts
        del chunk  # before the next chunk is built
    return rows


def _label_chunks(spectrum: _Spectrum, tol: float):
    """Every solved label at every r of ``spectrum``, closed chunk by chunk in label order.

    Only labels with jA <= jC are solved: the mirror (jC, jA) has the same
    cost with m negated.  A label with jA = jC or jA = 0 costs p_xi kappa_C
    times its unit cost (kA = kC = 1, weight 1), one problem for all of
    ``rs``, at weight 0 if that scale is 0 at every r; any other label gives
    one problem per r.  A chunk takes the labels of one jA after another
    until their band entries would pass ``_CHUNK_ENTRIES``.  Each label gets
    tol / (number of labels), so the summed certified gap stays within
    ``tol``; a unit label's closed form is judged at its largest scale,
    which bounds every row's.
    """
    sdp.check_tol(tol)
    n, p, kappa = spectrum.n, spectrum.p.tolist(), spectrum.kappa.tolist()
    share, todo, size = tol / (n // 2 + 1) ** 2, [], 0
    for ta in range(n % 2, n + 1, 2):
        labels = []
        for tc in range(ta, n + 1, 2):
            row = [(w[ta // 2] * w[tc // 2], k[ta // 2], k[tc // 2]) for w, k in zip(p, kappa)]
            unit = ta in (0, tc)  # (problem, cost scale) of each r
            at = [(0, w * kC) if unit else (i, 1.0) for i, (w, _, kC) in enumerate(row)]
            coeffs = [(float(max(s for _, s in at) > 0.0), 1.0, 1.0)] if unit else row
            labels.append(((ta, tc), coeffs, at))
        entries = (ta + 1) * sum(len(c) * (sum(xi) + 1) for xi, c, _ in labels)  # 2 jA + 1 rows
        if todo and size + entries > _CHUNK_ENTRIES:
            yield _Chunk(todo, share)
            todo, size = [], 0
        todo, size = todo + [labels], size + entries
    yield _Chunk(todo, share)


# how: "closed_form", "zero_cost" or "barrier"; rounds: active-set rounds; iterations: Newton steps
_Closure = namedtuple("_Closure", "how rounds iterations objective bound gap")


class _Chunk:
    """Label problems closed together; ``parts`` holds each row's (label, closure, cost scale).

    Each jA's problems get their closed forms from one ``sdp.rank_one`` pass,
    accepted where every pivot of S_m(y) is positive and the gap, times the
    problem's reach, is within ``share``; a problem of scale 0 closes at 0.
    Only the others keep their bands: each runs the barrier on its active
    set, the closed form's sector plus the violated ones, and the sectors
    its multipliers violate join, one ``solve_many`` call per round, until
    none is.  A barrier seed holds only the sectors it solved, the others
    being 0; so extended, the restricted primal is feasible for the whole
    label, and a y feasible in every sector bounds its optimum, so the gap
    keeps its meaning.  A round that misses ``share`` ends its problem, its
    violated sectors lifted by their Gershgorin deficits so that the bound
    still holds.
    """

    def __init__(self, groups: list, share: float):
        labels = [label for group in groups for label in group]
        self.specs = [(xi, c) for xi, coeffs, _ in labels for c in coeffs]
        reach = [far for _, coeffs, at in labels  # the largest factor a problem is scaled by
                 for far in [max(s for _, s in at) or 1.0] * len(coeffs)]
        self.closures, self.barrier, problems, active, spent = [], {}, {}, {}, {}
        for group in groups:  # the labels of one jA share a shape
            bands = [p for xi, coeffs, _ in group for p in _label_bands(*xi, coeffs)]
            for p, (best, _, _, objective, bound, violated) in zip(bands, sdp.rank_one(bands)):
                k = len(self.closures)
                if p.scale == 0.0:
                    self.closures.append(_Closure("zero_cost", 0, 0, 0.0, 0.0, 0.0))
                elif (bound - objective) * reach[k] <= share and not violated.any():
                    self.closures.append(_Closure("closed_form", 0, 0, objective, bound,
                                                  bound - objective))
                else:
                    self.closures.append(None)
                    problems[k], active[k], spent[k] = p, violated.copy(), (0, 0)
                    active[k][best] = True
        while active:
            order = sorted(active)
            parts = sdp.solve_many([_restrict(problems[k], active[k]) for k in order], share)
            for k, part in zip(order, parts):
                p, on, (rounds, steps) = problems[k], active.pop(k), spent[k]
                spent[k] = done = rounds + 1, steps + part.iterations
                y = np.array([part.multipliers[c] for c in p.channels])
                violated = ~(sdp.slack_pivots(p, y) > 0.0).all(axis=0) & ~on
                if violated.any() and part.gap <= share:
                    active[k] = on | violated
                    continue
                bound = part.bound
                if violated.any():
                    y = y + sdp.gershgorin_lift(np.append(y, 1.0), p.slot, p.diag, p.off,
                                                violated)[:-1]
                    bound = float(np.array([tj + 1.0 for _, tj in p.channels]) @ y)
                self.closures[k] = _Closure("barrier", *done, part.objective, bound,
                                            bound - part.objective)
                self.barrier[k] = sdp.Seed(part.blocks, *self.closures[k][3:], done[1],
                                           dict(zip(p.channels, y)), sectors=part.sectors)
        self.parts, first = [[] for _ in labels[0][2]], 0
        for xi, coeffs, at in labels:
            for out, (i, scale) in zip(self.parts, at):
                out.append((xi, self.closures[first + i], scale))
            first += len(coeffs)

    def seed(self, k: int) -> sdp.Seed:
        """Problem ``k``'s seed, holding only the sectors it solved, for ``solve_lm``."""
        if self.closures[k].how == "barrier":
            return self.barrier[k]
        xi, coeffs = self.specs[k]
        (p,) = _label_bands(*xi, [coeffs])
        return sdp._zero_seed(p) if self.closures[k].how == "zero_cost" else sdp.rank_one_seed(p)[0]


def _restrict(p: sdp.Bands, on: np.ndarray) -> sdp.Bands:
    """The label problem ``p`` on the sectors ``on`` alone."""
    return sdp.Bands([key for key, keep in zip(p.keys, on) if keep], p.channels,
                     p.slot[:, on], p.diag[:, on], p.off[:, on])


def _assemble_seed(n: int, parts: list, totals: dict) -> sdp.Seed:
    """The seed of n from (label, label seed, cost scale) triples, mirrors filled in.

    It is laid out on every sector of every block label, in the order of
    ``build_lm_problem``; a sector no label seed holds is 0.
    """
    blocks, multipliers = {}, {}
    for (ta, tc), seed, scale in parts:
        mirrors = [(ta, tc)] if ta == tc else [(ta, tc), (tc, ta)]
        for (_, tm), X in seed.blocks.items():
            for k, xi in enumerate(mirrors):
                blocks[xi, -tm if k else tm] = X
        for (_, tj), y in seed.multipliers.items():
            for xi in mirrors:
                multipliers[xi, tj] = scale * y
    sectors = {((lb.jA.twice_value, lb.jC.twice_value), tm): blk.coupled_sector_index(lb, tm)
               for lb in block_labels(n) for tm in blk.sector_range(lb)}
    return sdp.Seed(blocks=blocks, multipliers={c: multipliers[c] for c in sorted(multipliers)},
                    sectors=sectors, **totals)


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
    if min(nA, nC) < 1:  # nA + nC = 2n, so at most one side is empty
        raise ValueError(f"delta={delta} empties side {'A' if nA < 1 else 'C'} at n={n}")

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
    """Spectral block trace norm of one label from its two coupling fractions."""
    return _trace_norms(*(np.array([v]) for v in (ta, tc, aA, aC)))[0].item()


def _trace_norms(ta: np.ndarray, tc: np.ndarray, aA: np.ndarray, aC: np.ndarray) -> np.ndarray:
    """Spectral block trace norms of labels (ta, tc) at coupling fractions (aA, aC), elementwise.

    Summed over the total momenta J of (jA +- 1/2) x jC: one projector where
    one of jA +- 1/2 couples to J, two where both do (``_recoupling_cos2``).
    Labels of one J-grid length are summed together, each at its length, and
    those under 8 terms, which numpy sums in order, zero-padded in one group;
    (a - b)^2 is Python's float power, which numpy's square can miss by 1 ulp.
    """
    lo = np.minimum(np.abs(ta + 1 - tc), np.abs(ta - 1 - tc))
    size = (ta + tc + 3 - lo) // 2
    group = np.where(size < 8, 0, size)
    out = np.empty(len(ta))
    for key in set(group.tolist()):
        at = np.flatnonzero(group == key)
        tA, tC, xA, xC = (v[at, None] for v in (ta, tc, aA, aC))
        a = xA / ((tA + 2) * (tC + 1))
        b = xC / ((tA + 1) * (tC + 2))
        c = (xC - xA) / (2.0 * (tA + 1) * (tC + 1))
        tJ = lo[at, None] + 2 * np.arange(key or size[at].max())
        u_ok = tJ >= np.abs(tA + 1 - tC)
        u2_ok = (tJ >= np.abs(tA - 1 - tC)) & (tJ <= tA + tC - 1)  # none at jA = 0
        v_ok = tJ >= np.abs(tA - tC - 1)
        mult = (tJ + 1) * (tJ <= tA + tC + 1)  # 0 past the label's last J
        single = mult * np.abs(a * u_ok - b * v_ok + c)
        t2 = _recoupling_cos2(tA, tC, tJ)
        square = np.array([[d ** 2] for d in (a - b)[:, 0].tolist()])
        disc = np.sqrt(np.maximum(square + 4.0 * a * b * (1.0 - t2), 0.0))
        double = mult * (np.abs(c + 0.5 * ((a - b) + disc)) + np.abs(c + 0.5 * ((a - b) - disc)))
        out[at] = np.where(u_ok & u2_ok, double, single).sum(axis=1)
    return out


def _recoupling_cos2(ta: int, tc: int, tJ: int | np.ndarray) -> float | np.ndarray:
    """Squared principal cosine (2jA+2)(2jC+2) {jA 1/2 jA+1/2; jC J jC+1/2}^2, closed form."""
    return (tJ + tc - ta + 1) * (tJ + ta - tc + 1) / (4.0 * (ta + 1) * (tc + 1))


# ---------------------------------------------------------------------------
# Sweep driver


@dataclass(frozen=True)
class SweepConfig:
    """Grid description for the risk sweep; a solve stops at ``sdp.MAX_ITER`` Newton steps."""

    n_values: tuple[int, ...] = (1, 2, 3, 4, 5)
    r_min: float = 0.1
    r_max: float = 1.0
    steps: int = 46
    tol: float = sdp.DEFAULT_TOL

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0.0 < self.r_min <= self.r_max <= 1.0:
            raise ValueError("need 0 < r_min <= r_max <= 1")
        if self.steps > 1 and self.r_min == self.r_max:
            raise ValueError("r_min == r_max admits one step only")
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
    """All rows of one n, in r order, from one solver call.

    Each row depends only on its own (n, r): the solver gives every problem
    the result it would give it alone, and a row sums what ``solve_lm`` sums.
    """
    n, config = args
    spectrum = _lane_spectrum(n, [float(r) for r in config.r_grid()])
    rows = []
    for r, floor, parts in zip(spectrum.rs, _floors(spectrum), _lm_parts(spectrum, config.tol)):
        opt = floor.excess_risk
        report, totals, error = _lm_row(n, r, parts, config.tol)
        if error is None:
            lm = report.excess_risk
            rel_gap = (lm - opt) / opt if opt else 0.0
        else:
            lm = rel_gap = math.nan
        rows.append(SweepRow(n=n, r=r, R_lm=lm, R_opt=opt, rel_gap=rel_gap,
                             solver_gap=totals["gap"], error=error))
    return rows


def run_sweep(config: SweepConfig, threads: int = 1) -> SweepTable:
    """Risk table over the (n, r) grid; deterministic for a given config.

    Lanes (fixed n) are independent and may run in parallel, at most one
    worker per core this process may run on; every row depends only on its own (n, r), so results
    do not depend on ``threads``.
    """
    lanes = [(n, config) for n in config.n_values]
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, len(lanes), cores or 1)
    if workers > 1:
        import multiprocessing as mp
        with mp.get_context("fork").Pool(workers) as pool:
            per_lane = pool.map(_sweep_lane, lanes)
    else:
        per_lane = [_sweep_lane(l) for l in lanes]
    rows = [row for lane in per_lane for row in lane]
    return SweepTable(rows=rows)

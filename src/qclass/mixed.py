"""Mixed-source and unbalanced-training-set analysis.

For a source of purity r the training sides A and C scatter over angular
momentum blocks (jA, jC).  This module assembles the conditioned training-set
operator of every block, computes the absolute error floor from the block
trace norms, optimizes the learning-machine seed block by block with the
semidefinite solver, and drives the (n, r) sweep grid.

A sweep lane (one n, all its purities) reads its block spectrum once, from
one ``blocks.spin_spectrum`` pass per side over every r; its floor is one
pass over every kept label at every r.  Block trace norms take one route: each
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

Labels are listed and their bands built in chunks of whole jA groups
(``_label_chunks``), and ``sdp.close`` closes each chunk, most labels by a
certified rank-one closed form.  A sweep lane sums each row from the
closures (``_lm_parts``, ``_lm_row``), a chunk's points dropped before the
next chunk is built; ``lm_risk`` is the one-purity case, and only
``solve_lm`` assembles blocks, from the points, on a layout read from the
block labels.  The whole problem's bands, built label by label with
mirrors included (``build_lm_problem``), and their joint barrier solve are
the cross-check in the tests.  Each sweep row depends only on its own
(n, r), and no solver state outlives a call.
"""
from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import blocks as blk
from . import machines, sdp
from .blocks import BlockLabel, BlockOperator, SpectrumParams
from .su2 import HalfInteger, check_count

WEIGHT_CUTOFF = 1e-15  # the floor leaves out every block of weight p_xi at or below it
_CHUNK_ENTRIES = 1 << 21  # band entries of the label problems closed at once


def gamma_up_mixed(label: BlockLabel, params: SpectrumParams) -> BlockOperator:
    """Conditioned training-set operator of one block, coupled basis.

    [kA Jz_A - kC Jz_C] / (2 d_{2jA} d_{2jC}) with kS = r <Jz>_{jS} / (jS (jS+1));
    a side with jS = 0 contributes nothing.
    """
    kA, kC = (blk.side_fractions(t.twice_value, params.r)[1] for t in (label.jA, label.jC))
    return _gamma(label, kA, kC)


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
    """p_j, alpha_j and kappa_j of every side at every r, from one ``blocks.block_spectra`` call.

    Each side fills its column of p_j and of r <Jz>_j, one ``mean_m`` dot per row.
    """
    check_count(n)
    for r in rs:
        blk.check_purity(r)
    p, m = np.empty((2, len(rs), n // 2 + 1))
    for tj, a, _, p_j in blk.block_spectra(n, rs):
        p[:, tj // 2], m[:, tj // 2] = p_j, blk.mean_m(tj, a)
    m *= np.array(rs)[:, None]
    j = np.maximum(np.arange(n % 2, n + 1, 2), 1) / 2.0  # r <Jz> is 0 at j = 0
    return _Spectrum(n, rs, p, m / j, m / (j * (j + 1.0)))


def block_trace_norm(label: BlockLabel, params: SpectrumParams) -> float:
    """Trace norm of sigma0 - sigma1 on one block.

    In each total-J sector the difference is a Jz_A-aligned projector minus a
    Jz_C-aligned one plus a multiple of the identity; at most two dimensions,
    with the principal cosine given by ``_recoupling_cos2``.
    """
    ta, tc = label.jA.twice_value, label.jC.twice_value
    (aA, _), (aC, _) = blk.side_fractions(ta, params.r), blk.side_fractions(tc, params.r)
    return _label_trace_norm(ta, tc, aA, aC)


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
    return machines.make_report("opt", n, _floors(_lane_spectrum(n, [r]))[0], r=r,
                                method="closed_form")


def _floors(spectrum: _Spectrum) -> list[float]:
    """Error floor 1/2 - (1/4) sum_xi p_xi ||sigma0_xi - sigma1_xi||_1 at every r of a lane.

    Blocks with p_xi <= ``WEIGHT_CUTOFF`` are skipped (each can shift the
    bias by at most 2 p_xi); a label and its mirror share one trace norm.
    Each row's bias is summed in label order, a skipped label adding an exact 0.
    """
    side = np.arange(spectrum.n // 2 + 1)
    ka, kc = np.nonzero(side[:, None] <= side)  # the labels jA <= jC, row by row
    p = spectrum.p[:, ka] * spectrum.p[:, kc]
    rows, cols = np.nonzero(p > WEIGHT_CUTOFF)
    a, c, kept, odd = ka[cols], kc[cols], p[rows, cols], spectrum.n % 2
    norms = _trace_norms(2 * a + odd, 2 * c + odd, spectrum.alpha[rows, a], spectrum.alpha[rows, c])
    terms = np.zeros_like(p)
    terms[rows, cols] = np.where(a == c, kept, kept + kept) * norms
    return [0.5 - b / 4.0 for b in np.cumsum(terms, axis=1)[:, -1].tolist()]


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

    The one-purity case of ``_label_chunks``, its labels' certified points
    assembled on the block labels' layout; above ``tol``, ``SolverError``
    carries that seed.
    """
    parts, seeds = [], []
    for labels, closures, points in _label_chunks(_lane_spectrum(n, [r]), tol):
        for (xi, _, ((_, scale),)), closure, point in zip(labels, closures, points):  # one per label
            parts.append((xi, closure, scale))
            seeds.append((xi, point, scale))
    probability, totals, error = _lm_row(parts, tol)
    seed = _assemble_seed(n, seeds, totals)
    if error is not None:
        raise sdp.SolverError(error, seed)
    return _lm_report(n, r, probability, totals), seed


def lm_risk(n: int, r: float, tol: float = sdp.DEFAULT_TOL) -> machines.MachineReport:
    """The report of ``solve_lm`` from the label totals alone, as a sweep row takes it.

    No blocks are assembled, so ``SolverError`` carries no seed.
    """
    (parts,) = _lm_parts(_lane_spectrum(n, [r]), tol)
    probability, totals, error = _lm_row(parts, tol)
    if error is not None:
        raise sdp.SolverError(error, None)
    return _lm_report(n, r, probability, totals)


def _lm_report(n: int, r: float, probability: float, totals: dict) -> machines.MachineReport:
    """The learning-machine report of one row from its error probability and totals."""
    return machines.make_report("lm", n, probability, r=r, method="sdp", solver_gap=totals["gap"])


def _lm_row(parts: list, tol: float) -> tuple[float, dict, Optional[str]]:
    """Error probability, totals and gap error of one row from its (label, closure, cost scale) parts.

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
    error = None if gap <= tol else (
        f"gap {gap:.3e} above tolerance {tol:.3e} after {iterations} Newton steps summed "
        f"over {len(parts)} solved labels, at most {sdp.MAX_ITER} each")
    totals = dict(objective=objective, bound=bound, gap=gap, iterations=iterations)
    return 0.5 * (1.0 - objective / 2.0), totals, error


def _lm_parts(spectrum: _Spectrum, tol: float) -> list[list[tuple]]:
    """(label, ``sdp.Closure``, cost scale) of every solved label at every r of ``spectrum``."""
    rows = [[] for _ in spectrum.rs]
    for labels, closures, points in _label_chunks(spectrum, tol):
        del points  # before the next chunk is built
        first = 0
        for xi, coeffs, at in labels:
            for out, (i, scale) in zip(rows, at):
                out.append((xi, closures[first + i], scale))
            first += len(coeffs)
    return rows


def _label_chunks(spectrum: _Spectrum, tol: float):
    """Every solved label at every r of ``spectrum``, closed chunk by chunk in label order.

    Only labels with jA <= jC are solved: the mirror (jC, jA) has the same
    cost with m negated.  A label with jA = jC or jA = 0 costs p_xi kappa_C
    times its unit cost (kA = kC = 1, weight 1), one problem for all of
    ``rs``, at weight 0 if that scale is 0 at every r; any other label gives
    one problem per r.  A chunk takes the labels of one jA after another
    until their band entries would pass ``_CHUNK_ENTRIES``, and yields its
    labels (label, problem coefficients, (problem, cost scale) of each r)
    with the ``sdp.close`` closures and points of their problems.  Each
    problem gets tol / (number of labels), so the summed certified gap stays
    within ``tol``; it is judged at the largest scale its label takes, which
    bounds every row's.
    """
    sdp.check_tol(tol)
    n, p, kappa = spectrum.n, spectrum.p, spectrum.kappa
    share, todo, size = tol / (n // 2 + 1) ** 2, [], 0
    for ta in range(n % 2, n + 1, 2):
        labels = []
        for tc in range(ta, n + 1, 2):
            w = p[:, ta // 2] * p[:, tc // 2]
            if ta in (0, tc):  # (problem, cost scale) of each r
                at = [(0, s) for s in (w * kappa[:, tc // 2]).tolist()]
                coeffs = [(float(max(s for _, s in at) > 0.0), 1.0, 1.0)]
            else:
                at = [(i, 1.0) for i in range(len(w))]
                coeffs = np.stack([w, kappa[:, ta // 2], kappa[:, tc // 2]], axis=1)
            labels.append(((ta, tc), coeffs, at))
        entries = (ta + 1) * sum(len(c) * (sum(xi) + 1) for xi, c, _ in labels)  # 2 jA + 1 rows
        if todo and size + entries > _CHUNK_ENTRIES:
            yield _close(todo, share)
            todo, size = [], 0
        todo, size = todo + [labels], size + entries
    yield _close(todo, share)


def _close(groups: list, share: float) -> tuple[list, list, list]:
    """The labels of ``groups``, one list per jA, and the closures and points of their problems."""
    labels, reach = [label for group in groups for label in group], []
    for _, coeffs, at in labels:  # the largest factor a problem is scaled by
        reach += [max(s for _, s in at) or 1.0] * len(coeffs)
    bands = ([p for xi, coeffs, _ in group for p in _label_bands(*xi, coeffs)] for group in groups)
    return (labels, *sdp.close(bands, share, reach))


def _assemble_seed(n: int, parts: list, totals: dict) -> sdp.Seed:
    """The seed of n from (label, ``sdp.close`` point, cost scale) triples, mirrors filled in.

    It is laid out on every sector of every block label, in the order of
    ``build_lm_problem``.  A closed form holds v v' on its one sector, a
    barrier point the sectors it solved, and a zero cost the identity in
    every sector at multipliers 0; a sector no point holds is 0.
    """
    sectors = {((lb.jA.twice_value, lb.jC.twice_value), tm): blk.coupled_sector_index(lb, tm)
               for lb in block_labels(n) for tm in blk.sector_range(lb)}
    blocks, multipliers = {}, {}
    for (ta, tc), point, scale in parts:
        mirrors = [(ta, tc)] if ta == tc else [(ta, tc), (tc, ta)]
        tms, tjs = range(-(ta + tc), ta + tc + 1, 2), range(abs(ta - tc), ta + tc + 1, 2)
        if point is None:
            held = {((ta, tc), tm): np.eye(len(sectors[(ta, tc), tm])) for tm in tms}
            y = np.zeros(len(tjs))
        elif len(point) == 3:
            key, v, y = point
            held = {key: np.outer(v, v)}
        else:
            held, y = point
        for (_, tm), X in held.items():
            for k, xi in enumerate(mirrors):
                blocks[xi, -tm if k else tm] = X
        for tj, yj in zip(tjs, y):
            for xi in mirrors:
                multipliers[xi, tj] = scale * yj
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
    check_count(n)
    factor = blk.check_purity(r) * (1.0 - (1.0 - r) / (n * r * r))
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
    (aA, _), (aC, _) = blk.side_fractions(ta, r), blk.side_fractions(tc, r)
    exact = _label_trace_norm(ta, tc, aA, aC)
    tbar = round((ta + tc) / 2)  # matched pure block: total momentum ~ r n / 2 per side
    pure = _label_trace_norm(tbar, tbar, 1.0, 1.0)
    return UnbalancedCheck(
        factor=factor, exact_norm=exact, scaled_pure_norm=factor * pure,
        ratio=exact / pure if pure else math.nan, label=(ta, tc),
        expansion_valid=valid,
    )


def _label_trace_norm(ta: int, tc: int, aA: float, aC: float) -> float:
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


def _check_positive(value, name: str) -> None:
    """Refuse a ``value`` that is not an integer >= 1; bools are refused, numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class SweepConfig:
    """Grid description for the risk sweep; a solve stops at ``sdp.MAX_ITER`` Newton steps."""

    n_values: tuple[int, ...] = (1, 2, 3, 4, 5)
    r_min: float = 0.1
    r_max: float = 1.0
    steps: int = 46
    tol: float = sdp.DEFAULT_TOL

    def __post_init__(self):
        _check_positive(self.steps, "steps")
        if not 0.0 < self.r_min <= self.r_max <= 1.0:
            raise ValueError("need 0 < r_min <= r_max <= 1")
        if self.steps > 1 and self.r_min == self.r_max:
            raise ValueError("r_min == r_max admits one step only")
        if not self.n_values:
            raise ValueError("the sweep needs at least one n value")
        for n in self.n_values:
            check_count(n, 1, "n values must be positive")
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
        baseline = machines.baseline_error(r)
        opt = floor - baseline
        lm, totals, error = _lm_row(parts, config.tol)
        if error is None:
            lm -= baseline
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
    _check_positive(threads, "threads")
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

"""Interior-point solver for per-sector seed optimization.

The problem: maximize a weighted linear functional

    Delta = 2 sum_b w_b tr(C_b X_b)

over positive semidefinite matrices X_b, one per (block label, magnetic
sector), subject to one linear constraint per (block label, coupled momentum
j): the diagonal entries belonging to channel j, summed across the sectors of
that block, must equal 2j + 1.  Its dual has one multiplier y_c per channel:

    minimize sum_c (2j_c + 1) y_c  subject to  S_b(y) = diag(y[channels_b]) - 2 w_b C_b >= 0.

Every cost C_b is tridiagonal (the seed costs are combinations of Jz_A, which
is tridiagonal in j, and m 1), so the engine keeps two bands per sector.  It
is a damped-Newton log-barrier method on the dual (Vandenberghe and Boyd,
"Semidefinite Programming", SIAM Rev. 1996): from a strictly feasible start,
every multiplier 1 above the cost's Gershgorin bound (or above 0), it
minimizes t b'y - sum_b log det S_b(y) for t growing geometrically,
backtracking each step until every S_b stays positive definite.  The forward
LDL' pivots of S_b decide feasibility and give log det S_b; the entries of
S_b^-1 that the gradient and Hessian need follow from the same pivots in
ratio form (Meurant, SIAM J. Matrix Anal. Appl. 13, 1992): with l_i the
multipliers of the factorization,

    (S^-1)_ii = 1/d_i + l_i^2 (S^-1)_{i+1,i+1},   (S^-1)_ij = -l_i (S^-1)_{i+1,j}  (j > i),

sums of positive terms and products of ratios, which neither cancel nor
overflow at any dimension.  Each centered point carries its own certificate:
y is strictly dual feasible, so b'y bounds the optimum from above, and the
primal point X_b = S_b^-1 / t, made exactly feasible by a diagonal
congruence, attains an objective below it; the difference is the reported
gap.  ``Seed.iterations`` counts Newton steps.

``solve_many`` runs one Newton loop over many independent problems of any
shape and of positive scale (``close`` closes a zero cost), each with its
own t, step length, centering test, certificate and count of Newton steps,
at most ``MAX_ITER``; ``solve`` is its one-problem case.  Backtracking
evaluates three step lengths (s, s/2, s/4) per round and takes the first
that decreases enough, which is the point one-at-a-time backtracking
reaches.  A problem's result does not depend on what else shares its loop:
padding its sectors adds pivots of exactly 1 and zero inverse entries in a
dummy channel, its sums run in a fixed order, and LAPACK solves its Newton
system at its own channel count; no eigensolver runs in the loop.
Seed costs make every S_b(y) an unreduced tridiagonal, whose eigenvalues
are simple, so an optimal X_b has rank at most one (Alizadeh, Haeberly and
Overton, Math. Program. 77, 1997).  ``rank_one`` takes, for many problems
in one pass, the rank-one point of one full sector, whose dual
y_j = (C v)_j / v_j attains b'y = v'Cv, lifted by ``_LIFT`` times the
problem's scale, and certifies it by the LDL' pivots of S_b(y), O(D) per
sector; ``slack_pivots`` certifies any dual.  ``close`` is the certificate
policy: closed forms first, then the barrier on growing active sets of
sectors, each problem ending in a ``Closure`` and its certified point.
A problem is a ``Bands``, the one problem form: the keys, channels and two
bands per sector that the engine reads.  ``mixed`` builds one per block
label from its Jz_A bands; the engine is blind to the block symmetries
that ``mixed`` uses.  Dense sector costs become ``Bands``, with every
input check, through ``oracle.dense_seed_problem``, and bands become dense
matrices through ``blocks.tridiagonal``; only the cross-checks use either.
A ``Seed`` keeps its best certified point, with no trajectory, and its
problem's layout alone (``Bands.layout``: each sector's key and the 2j of
its rows); a sector missing from a seed is 0.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

DEFAULT_TOL = 1e-8
MAX_ITER = 500  # Newton steps per problem, read at each solve

_MU = 20.0                  # growth of the barrier parameter t per centering
_CENTERED = 1e-3            # centering ends once half the squared Newton decrement is below this
_ALPHA, _BETA = 0.25, 0.5   # backtracking: sufficient-decrease fraction, step shrink
_MAX_HALVINGS = 60          # backtracking trials before a Newton step counts as stalled
_TRIALS = 3                 # step lengths tried at once, a divisor of _MAX_HALVINGS
_FRACTIONS = (_BETA ** np.arange(_TRIALS))[:, None, None]
_CHUNK_ENTRIES = 1 << 20    # packed inverse entries held at once; bounds a batch's memory
_PAD_ENTRIES = 1 << 14      # padding one problem may add to a batch; more costs more than a loop
_LIFT = 1e-12               # lift of a closed-form dual, in units of its problem's scale


class InfeasibleError(ValueError):
    """The constraint system of a block problem cannot be satisfied."""


class SolverError(RuntimeError):
    """The duality gap did not close within the Newton-step cap; carries the best point.

    The point is None where the caller assembles none (``mixed.lm_risk``).
    """

    def __init__(self, message: str, seed: "Seed | None"):
        super().__init__(message)
        self.seed = seed


def check_tol(tol: float) -> None:
    """Reject a gap tolerance that no certificate can meet or that means nothing."""
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")


@dataclass(eq=False)
class Bands:
    """A seed problem: per sector (column), the bands of its cost 2 w_b C_b.

    Sectors are front-padded with zero rows to the largest; ``slot`` gives
    each row's index into the sorted (xi, 2j) ``channels``, and
    ``len(channels)`` on padding rows.  Channel (xi, 2j) has target 2j + 1.
    """

    keys: list                 # (xi, 2m) of each sector
    channels: list
    slot: np.ndarray           # (D, sectors)
    diag: np.ndarray           # (D, sectors)
    off: np.ndarray            # (D - 1, sectors)

    def __post_init__(self):  # the engine works in units of the largest absolute entry, or nan
        self.scale = float(np.maximum(np.abs(self.diag).max(), np.abs(self.off).max(initial=0.0)))

    def sector_slots(self, k: int) -> np.ndarray:
        """Channel indices of the rows of sector ``k``, its padding cut off."""
        column = self.slot[:, k]
        return column[column < len(self.channels)]

    def layout(self) -> dict:
        """Every sector key, in order, mapped to the doubled momenta 2j of its rows."""
        tjs = np.array([tj for _, tj in self.channels], int)
        return {key: tuple(tjs[self.sector_slots(k)].tolist()) for k, key in enumerate(self.keys)}


@dataclass
class Seed:
    """A feasible (near-optimal) collection of sector matrices on the layout ``sectors``.

    The layout maps every sector key (xi, 2m) of the problem, in its order,
    to the doubled momenta 2j of the sector's rows, channels (xi, 2j).  A
    sector missing from ``blocks`` is the zero matrix.
    """

    blocks: dict[tuple, np.ndarray]
    objective: float
    bound: float
    gap: float
    iterations: int
    multipliers: dict[tuple, float]
    sectors: dict[tuple, tuple] = field(default_factory=dict, repr=False)

    def constraint_residual(self) -> float:
        """Largest deviation of a channel's diagonal sum, taken in sector order, from its target."""
        channels = dict.fromkeys((xi, tj) for (xi, _), tjs in self.sectors.items() for tj in tjs)
        index = {c: i for i, c in enumerate(channels)}
        held = [key for key in self.sectors if key in self.blocks]
        slots = [index[key[0], tj] for key in held for tj in self.sectors[key]]
        diag = np.concatenate([np.diagonal(self.blocks[key]).real for key in held])
        sums = np.bincount(slots, weights=diag, minlength=len(index))
        return float(np.abs(sums - [tj + 1 for _, tj in index]).max())

    def min_eigenvalue(self) -> float:
        """Least eigenvalue over the sectors; 0 counts where a sector is missing."""
        least = [float(np.linalg.eigvalsh((X + X.conj().T) / 2).min())
                 for X in self.blocks.values()]
        if len(self.blocks) < len(self.sectors):
            least.append(0.0)
        return min(least)

    def to_json_dict(self) -> dict:
        items = []
        for (xi, tm), tjs in self.sectors.items():
            X = self.blocks[xi, tm] if (xi, tm) in self.blocks else np.zeros((len(tjs),) * 2)
            items.append({
                "xi": list(xi), "twice_m": tm,
                "channels": list(tjs),
                "matrix": np.asarray(X).real.tolist(),
                "eigenvalues": np.linalg.eigvalsh((X + X.conj().T) / 2).tolist(),
            })
        return {
            "objective": self.objective,
            "dual_bound": self.bound,
            "gap": self.gap,
            "iterations": self.iterations,
            "constraint_residual": self.constraint_residual(),
            "blocks": items,
        }


# ---------------------------------------------------------------------------
# Band kernels.  Sector arrays are position-major, (D, sectors), so every step
# of a recurrence is one vector operation across sectors.


def ldl_pivots(diag: np.ndarray, off2: np.ndarray) -> np.ndarray:
    """Forward LDL' pivots d_i = a_i - b_{i-1}^2 / d_{i-1} of symmetric tridiagonal matrices.

    ``diag`` holds the diagonals, ``off2`` the squared off-diagonals.  The
    matrix is positive definite exactly when every pivot is positive, and
    log det is the sum of their logs.
    """
    piv = diag.copy()
    for i in range(1, len(diag)):
        piv[i] -= off2[i - 1] / piv[i - 1]
    return piv


def inverse_diagonal(piv: np.ndarray, l2: np.ndarray) -> np.ndarray:
    """diag(S^-1) from the pivots and squared multipliers l_i^2 = b_i^2 / d_i^2, bottom up."""
    m = 1.0 / piv
    for i in range(len(piv) - 2, -1, -1):
        m[i] += l2[i] * m[i + 1]
    return m


@lru_cache(maxsize=None)
def _strict_upper(D: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle of a D x D matrix, row-major."""
    return np.triu_indices(D, 1)


def ratio_products(r: np.ndarray) -> np.ndarray:
    """r_i r_{i+1} ... r_{j-1} for every i < j, packed row-major over the strict upper triangle.

    Built from the bottom row up, row i being r_i times (1, row i + 1); each
    product is bounded by an entry ratio of S^-1, so none overflows.
    """
    D = len(r) + 1
    out = np.empty((D * (D - 1) // 2,) + r.shape[1:])
    start = len(out)
    for i in range(D - 2, -1, -1):
        below, start = start, start - (D - 1 - i)
        out[start] = r[i]
        if i < D - 2:
            np.multiply(r[i], out[below:below + D - 2 - i], out=out[start + 1:below])
    return out


def tridiagonal_inverse(piv: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Every entry of S^-1, (D, D, sectors), from the pivots and off-diagonals of S.

    (S^-1)_ij = (S^-1)_jj (-l_i) (-l_{i+1}) ... (-l_{j-1}) for i < j.
    """
    ratio = -off / piv[:-1]  # -l_i
    m = inverse_diagonal(piv, ratio * ratio)
    D = len(piv)
    iu, ju = _strict_upper(D)
    upper = ratio_products(ratio) * m[ju]
    M = np.empty((D, D) + piv.shape[1:])
    ar = np.arange(D)
    M[ar, ar] = m
    M[iu, ju] = M[ju, iu] = upper
    return M


def gershgorin_floor(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """min_i (a_i - |b_{i-1}| - |b_i|) of symmetric tridiagonal matrices, one per column.

    Each is a lower bound on that matrix's least eigenvalue (Gershgorin).
    """
    radius, a = np.zeros_like(diag), np.abs(off)
    radius[:-1] += a
    radius[1:] += a
    return (diag - radius).min(axis=0)


def gershgorin_lift(y: np.ndarray, slot: np.ndarray, diag: np.ndarray, off: np.ndarray,
                    violated: np.ndarray) -> np.ndarray:
    """Lift of the flat multipliers ``y`` that makes every ``violated`` sector PSD.

    Sector k of S(y) has the bands y[slot[:, k]] - diag[:, k] and off[:, k].
    Each channel of a violated sector rises by that sector's Gershgorin
    deficit max(-floor, 0), which is at least its -lambda_min; a channel in
    several violated sectors rises by the largest.
    """
    floor = gershgorin_floor(y[slot] - diag, off)
    deficit = np.where(violated, np.maximum(-floor, 0.0), 0.0)
    lift = np.zeros_like(y)
    np.maximum.at(lift, slot, np.broadcast_to(deficit, slot.shape))
    return lift


# ---------------------------------------------------------------------------
# Batched barrier method


def _seed(part: Bands, X, objective, bound, gap, iterations, y) -> Seed:
    """A Seed in the problem's units from a (D, D, sectors) primal of its bands, front-padded."""
    nch, s, sectors = len(part.channels), part.scale, part.layout()
    blocks = {key: np.ascontiguousarray(X[-len(tjs):, -len(tjs):, k])
              for k, (key, tjs) in enumerate(sectors.items())}
    return Seed(blocks=blocks, objective=objective * s, bound=bound * s, gap=gap * s,
                iterations=iterations, multipliers=dict(zip(part.channels, y[:nch] * s)),
                sectors=sectors)


# ---------------------------------------------------------------------------
# Closed-form rank-one seeds and their pivot certificate


def slack_pivots(problem: Bands, y: np.ndarray) -> np.ndarray:
    """LDL' pivots (D, sectors) of every S_b(y), y one multiplier per channel.

    Padding rows pivot at 1; S_b(y) is positive definite exactly when its
    column is positive; a zero pivot makes the pivots after it nan.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return ldl_pivots(np.append(y, 1.0)[problem.slot] - problem.diag,
                          problem.off * problem.off)


def rank_one(problems: list[Bands]) -> list[tuple]:
    """(sector, signed v, dual y, v'Cv, b'y, violated sectors) of each problem's rank-one point.

    A full sector has a row for every channel, so X = v v' there, with
    v_j = s_j sqrt(2j + 1), and 0 elsewhere meets every constraint.  Signs
    s_j s_{j+1} = sign(o_j) make every off-diagonal term of v'Cv positive,
    and y_j = (C v)_j / v_j puts v in the kernel of S(y); with the signs
    taken out S(y) is a Z-matrix with a positive null vector, so it is
    positive semidefinite on that sector, and b'y = v'Cv.  Of the full
    sectors the one with the largest v'Cv is taken (the first, as
    ``np.argmax`` takes it).  The dual is lifted by ``_LIFT`` times the
    problem's scale, which makes the gap ``_LIFT`` scale sum_j (2j + 1) up
    to rounding; a sector is violated where ``slack_pivots`` of it are not
    all positive.  Every problem needs a full sector.  The problems share
    one shape (rows, channels) and run joined along the sector axis; each
    one's sums run over its own full sectors, and its bound is one dot
    product, so each gets the numbers it gets alone.
    """
    (D, _), c = problems[0].slot.shape, len(problems[0].channels)
    counts = [p.slot.shape[1] for p in problems]
    first, owner = np.cumsum([0] + counts), np.repeat(np.arange(len(problems)), counts)
    slot, diag, off = (np.concatenate([getattr(p, f) for p in problems], axis=1)
                       for f in ("slot", "diag", "off"))
    table = np.array([[tj + 1.0 for _, tj in p.channels] + [0.0] for p in problems])
    base, rows = owner * (c + 1), slice(D - c, None)  # base: flat index of channel 0
    at = np.flatnonzero(np.count_nonzero(slot < c, axis=0) == c)  # the full sectors
    who, flat = owner[at], base[at] + slot[rows, at]
    root = np.sqrt(table.ravel()[flat])
    d, o = diag[rows, at], off[D - c:, at]
    values = (d * root * root).sum(axis=0) + 2.0 * (np.abs(o) * root[:-1] * root[1:]).sum(axis=0)
    starts = np.searchsorted(who, np.arange(len(problems)))  # each problem's first full sector
    hits = np.flatnonzero(values == np.maximum.reduceat(values, starts)[who])
    pick = hits[np.searchsorted(hits, starts)]  # its first largest value, as np.argmax takes it
    a, u = np.abs(o[:, pick]), root[:, pick]
    yk = d[:, pick] + _LIFT * np.array([p.scale for p in problems])
    yk[1:] += a * u[:-1] / u[1:]
    yk[:-1] += a * u[1:] / u[:-1]
    y = np.ones(len(problems) * (c + 1))
    y[flat[:, pick]] = yk
    u = u * np.cumprod(np.vstack([np.ones(len(problems)), np.where(o[:, pick] < 0.0, -1.0, 1.0)]),
                       axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        violated = ~(ldl_pivots(y[base + slot] - diag, off * off) > 0.0).all(axis=0)
    ys = [y[g * (c + 1):g * (c + 1) + c] for g in range(len(problems))]  # contiguous, as alone
    return [(int(at[i] - first[g]), u[:, g], yg, float(values[i]), float(table[g, :c] @ yg),
             violated[first[g]:first[g + 1]]) for g, (i, yg) in enumerate(zip(pick, ys))]


class _Batch:
    """Problems of any shape in one Newton loop, costs in units of each problem's ``scale``.

    Sectors are front-padded to the batch's largest sector D and joined
    along the sector axis.  Column ``nch`` of the channel table, past the
    largest channel count, is a dummy channel (multiplier pinned at 1,
    target 0) owning every padding row, so a padded S_b is an identity
    followed by the sector.  Per-problem sums go through ``np.bincount``,
    which adds in index order, and LAPACK solves each Newton system at its
    own problem's channel count, so each problem gets the numbers it gets
    alone.  The control state is plain Python, one entry per problem.
    """

    def __init__(self, parts: list[Bands]):
        self.parts = parts
        self.K = K = len(parts)
        self.D = D = max(len(p.slot) for p in parts)
        self.nch = nch = max(len(p.channels) for p in parts)
        self.counts = [p.slot.shape[1] for p in parts]
        self.prob = np.repeat(np.arange(K), self.counts)
        self.width = np.array([len(p.channels) for p in parts])
        self.cd, self.co = np.zeros((D, len(self.prob))), np.zeros((D - 1, len(self.prob)))
        slot = np.full((D, len(self.prob)), nch)
        self.b = np.zeros((K, nch + 1))
        first = np.concatenate([[0], np.cumsum(self.counts)[:-1]])
        for k, (p, lo) in enumerate(zip(parts, first.tolist())):
            at = np.s_[D - len(p.slot):, lo:lo + self.counts[k]]  # the rows of co end one earlier
            self.cd[at], self.co[at] = p.diag / p.scale, p.off / p.scale
            slot[at] = np.where(p.slot < len(p.channels), p.slot, nch)
            self.b[k, :len(p.channels)] = [tj + 1 for _, tj in p.channels]
        self.co2 = self.co * self.co
        self.gslot = self.prob * (nch + 1) + slot          # flat (problem, channel)
        self.owners = np.broadcast_to(self.prob, (2 * D - 1, len(self.prob)))
        iu, ju = _strict_upper(D)
        self.upper_cols = ju
        iu, ju = np.r_[np.arange(D), iu], np.r_[np.arange(D), ju]  # diagonal first
        self.pairs = (self.prob * (nch + 1) + slot[iu]) * (nch + 1) + slot[ju]
        self.rows = np.repeat(np.arange(K), nch + 1)
        self.rows2 = np.repeat(np.arange(2 * K), nch + 1)
        self._stacked: dict[int, tuple] = {}
        top = -gershgorin_floor(-self.cd, self.co)  # padding rows give 0
        self.start = np.maximum(np.maximum.reduceat(top, first), 0.0) + 1.0

    def columns(self, ks: list[int]):
        """Row and sector-column indexers of the problems ``ks`` (ascending); slices for all."""
        if len(ks) == self.K:
            return slice(None), slice(None)
        mask = np.zeros(self.K, dtype=bool)
        mask[ks] = True
        return np.asarray(ks), np.flatnonzero(mask[self.prob])

    def row_sums(self, a: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, weights=a.ravel(), minlength=self.K)

    def stacked(self, C: int, cols):
        """Gather indices, squared off-diagonals and log det owners of C stacked points."""
        if isinstance(cols, slice) and C in self._stacked:
            return self._stacked[C]
        K, D = self.K, self.D
        flat = np.arange(C)[:, None] * (K * (self.nch + 1)) + self.gslot[:, None, cols]
        owners = np.broadcast_to(np.arange(C)[:, None] * K + self.prob[cols], flat.shape)
        out = flat, np.tile(self.co2[:, cols], C), owners.ravel()
        if isinstance(cols, slice):
            self._stacked[C] = out
        return out

    def log_det(self, ys: np.ndarray, cols):
        """Pivots (D, C, columns) and log det (C, K) of S at each of C stacked points.

        ``ys`` is (C, K, nch + 1); only the sector columns ``cols`` are
        evaluated.  A non-positive pivot makes its problem's log det -inf
        or nan, so the barrier there is never below a finite one.
        """
        C, D = len(ys), self.D
        flat, co2, owners = self.stacked(C, cols)
        piv = ldl_pivots((ys.ravel()[flat] - self.cd[:, None, cols]).reshape(D, -1), co2)
        logdet = np.bincount(owners, weights=np.log(piv).ravel(), minlength=C * self.K)
        return piv.reshape(D, C, -1), logdet.reshape(C, self.K)

    def newton(self, y, tb, piv, rows, cols):
        """Newton directions, squared decrements and b'dy of the problems in ``rows``.

        A problem whose Newton system is singular gets a nan decrement.
        """
        K, nch, D = self.K, self.nch, self.D
        p = piv[:, cols]
        l2 = self.co2[:, cols] / (p[:-1] * p[:-1])
        m = inverse_diagonal(p, l2)
        # (S^-1)_ij^2: the diagonal, halved so that H = B + B' counts it once, then
        # the strict upper triangle (S^-1)_jj^2 l_i^2 ... l_{j-1}^2
        sq = m * m
        W = np.concatenate([0.5 * sq, ratio_products(l2) * sq[self.upper_cols]])
        g = tb - np.bincount(self.gslot[:, cols].ravel(), weights=m.ravel(),
                             minlength=K * (nch + 1)).reshape(K, nch + 1)
        B = np.bincount(self.pairs[:, cols].ravel(), weights=W.ravel(),
                        minlength=K * (nch + 1) ** 2).reshape(K, nch + 1, nch + 1)
        dy = np.zeros((K, nch + 1))
        singular = []
        ks = np.arange(K)[rows]
        width = self.width[ks]
        for w in sorted(set(width.tolist())):  # one LAPACK call per channel count
            group = ks[width == w]
            Bw = B[group, :w, :w]
            H = Bw + Bw.transpose(0, 2, 1)
            rhs = g[group, :w, None]
            try:
                dy[group, :w] = -np.linalg.solve(H, rhs)[..., 0]
            except np.linalg.LinAlgError:
                for k, row in enumerate(group.tolist()):
                    try:
                        dy[row, :w] = -np.linalg.solve(H[k:k + 1], rhs[k:k + 1])[0, :, 0]
                    except np.linalg.LinAlgError:
                        singular.append(row)
        decrement2, bdy = np.bincount(self.rows2, weights=np.concatenate(
            [(g * dy).ravel(), (self.b * dy).ravel()]), minlength=2 * K).reshape(2, K)
        decrement2 = (-decrement2).tolist()
        for row in singular:
            decrement2[row] = math.nan
        return dy, decrement2, bdy.tolist()

    def certify(self, y, t, piv, cols):
        """Congruence-repaired primals, their objectives and guarded dual bounds.

        y is strictly feasible already, so every pivot ``piv`` of S_b(y) is
        positive.  Only to guard the bound against rounding, a sector with a
        pivot that is not positive lifts its channels by its Gershgorin
        deficit, which is at least its -lambda_min.
        """
        K, nch = self.K, self.nch
        X = tridiagonal_inverse(piv[:, cols], -self.co[:, cols]) / t[self.prob[cols]]
        ar = np.arange(self.D)
        diag = X[ar, ar]
        sums = np.bincount(self.gslot[:, cols].ravel(), weights=diag.ravel(),
                           minlength=K * (nch + 1)).reshape(K, nch + 1)
        scale = np.sqrt(self.b / sums)
        scale[:, nch] = 0.0
        Dg = scale.ravel()[self.gslot[:, cols]]
        X *= Dg[:, None] * Dg[None, :]
        terms = np.concatenate([self.cd[:, cols] * (diag * (Dg * Dg)),
                                2.0 * self.co[:, cols] * X[ar[:-1], ar[1:]]])
        objective = np.bincount(self.owners[:, cols].ravel(), weights=terms.ravel(), minlength=K)
        y_cert = y.copy()
        lifted = ~(piv[:, cols] > 0.0).all(axis=0)
        if lifted.any():
            y_cert += gershgorin_lift(y.ravel(), self.gslot[:, cols], self.cd[:, cols],
                                      self.co[:, cols], lifted).reshape(K, nch + 1)
            y_cert[:, nch] = 1.0
        return X, objective.tolist(), self.row_sums(self.b * y_cert).tolist(), y_cert

    def run(self, tol: float) -> list[Seed]:
        K, nch, cap = self.K, self.nch, MAX_ITER
        y = np.ones((K, nch + 1))
        y[:, :nch] = self.start[:, None]
        piv, logdet = self.log_det(y[None], slice(None))
        piv, logdet, by = piv[:, 0], logdet[0].tolist(), self.row_sums(self.b * y).tolist()
        t, steps = [1.0] * K, [0] * K
        tb = self.b.copy()  # t b, row by row
        best: list = [None] * K   # (gap, X, objective, bound, y, steps) in scaled units
        active = list(range(K))
        while active:
            certify = [k for k in active if steps[k] >= cap]
            go = [k for k in active if steps[k] < cap]
            stalled = []
            if go:
                # b'(y + s dy) is tracked as b'y + s b'dy
                dy, dec, bdy = self.newton(y, tb, piv, *self.columns(go))
                search = []
                for k in go:
                    steps[k] += 1
                    if not math.isfinite(dec[k]):
                        stalled.append(k)
                    elif dec[k] / 2.0 > _CENTERED:
                        search.append(k)
                    else:
                        certify.append(k)
                # backtracking: each round tries the next _TRIALS step lengths of
                # s, s/2, s/4, ... at once and takes the first that decreases enough
                s = [1.0] * K
                for _ in range(_MAX_HALVINGS // _TRIALS):
                    if not search:
                        break
                    _, cols = self.columns(search)
                    trials = y + dy * _FRACTIONS  # dy holds s dy; halving a float is exact
                    piv_new, ld_new = self.log_det(trials, cols)
                    ld_new = ld_new.tolist()
                    taken: dict[int, list[int]] = {}
                    rest = []
                    for k in search:
                        for c in range(_TRIALS):
                            step = s[k] * _BETA ** c
                            by_new = by[k] + step * bdy[k]
                            if (t[k] * by_new - ld_new[c][k]
                                    <= t[k] * by[k] - logdet[k] - _ALPHA * step * dec[k]):
                                taken.setdefault(c, []).append(k)
                                logdet[k], by[k] = ld_new[c][k], by_new
                                break
                        else:
                            rest.append(k)
                            s[k] *= _BETA ** _TRIALS
                    if rest:
                        dy[rest if len(rest) < K else slice(None)] *= _BETA ** _TRIALS
                    for c, ks in taken.items():
                        if len(ks) == K:
                            y, piv = trials[c], piv_new[:, c]
                            continue
                        rows, acc = self.columns(ks)
                        y[rows] = trials[c, rows]
                        piv[:, acc] = piv_new[:, c, acc if isinstance(cols, slice)
                                              else np.searchsorted(cols, acc)]
                    search = rest
                stalled += search
                certify += stalled
            if certify:
                certify.sort()
                X, obj, bound, y_cert = self.certify(y, np.array(t), piv,
                                                     self.columns(certify)[1])
                first = 0
                for k in certify:
                    if best[k] is None or bound[k] - obj[k] < best[k][0]:
                        best[k] = (bound[k] - obj[k], X[:, :, first:first + self.counts[k]].copy(),
                                   obj[k], bound[k], y_cert[k].copy(), steps[k])
                    first += self.counts[k]
                    if (best[k][0] * self.parts[k].scale <= tol or steps[k] >= cap
                            or k in stalled):
                        active.remove(k)
                    else:
                        t[k] *= _MU
                        tb[k] = t[k] * self.b[k]
        return [_seed(part, X, obj, bound, gap, its, yk)
                for part, (gap, X, obj, bound, yk, its) in zip(self.parts, best)]


def solve_many(problems: list[Bands], tol: float = DEFAULT_TOL) -> list[Seed]:
    """Best certified Seed of every problem, in order; the caller judges each gap.

    All share one Newton loop, taken in order of largest sector and cut
    into chunks of at most ``_CHUNK_ENTRIES`` packed inverse entries, or
    where padding would cost more than a loop.  Each result is the one
    ``solve`` gives alone.  A channel that no sector row holds cannot meet
    its target, so its problem raises ``InfeasibleError`` before any step,
    and a problem of scale 0 raises ``ValueError``: ``close`` closes it.
    """
    check_tol(tol)
    for p in problems:
        if p.scale == 0.0:
            raise ValueError("a zero cost has no scale to solve in; close closes it at 0")
        held = np.bincount(p.slot.ravel(), minlength=len(p.channels))[:len(p.channels)]
        if not held.all():
            xi, tj = p.channels[int(np.argmin(held))]
            raise InfeasibleError(f"channel {(xi, tj)} has no row in any sector, "
                                  f"so its target {tj + 1} cannot be met")
    out, chunks, sectors, top = [None] * len(problems), [[]], 0, 1
    for i in sorted(range(len(problems)), key=lambda i: len(problems[i].slot)):
        D, count = problems[i].slot.shape
        if chunks[-1] and ((sectors + count) * D * (D + 1) // 2 > _CHUNK_ENTRIES
                           or sectors * (D * (D + 1) - top * (top + 1)) // 2 > _PAD_ENTRIES):
            chunks.append([])
            sectors = 0
        chunks[-1].append(i)
        sectors, top = sectors + count, D
    for chunk in filter(None, chunks):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            seeds = _Batch([problems[i] for i in chunk]).run(tol)
        for i, seed in zip(chunk, seeds):
            out[i] = seed
    return out


def solve(problem: Bands, tol: float = DEFAULT_TOL) -> Seed:
    """Maximize the seed functional; returns a feasible Seed with certified gap.

    Deterministic given (problem, tol, MAX_ITER).  The gap is certified at
    the end of every centering; ``SolverError`` carries the best certified
    point if it does not close within ``MAX_ITER`` Newton steps (each
    Newton system solved counts, the one that finds a point centered too)
    or before rounding stalls the path.
    """
    (seed,) = solve_many([problem], tol)
    if not seed.gap <= tol:  # a nan gap certifies nothing
        raise SolverError(
            f"gap {seed.gap:.3e} above tolerance {tol:.3e}, best certificate at "
            f"Newton step {seed.iterations} of at most {MAX_ITER}", seed
        )
    return seed


# how: "closed_form", "zero_cost" or "barrier"; rounds: active-set rounds; iterations: Newton steps
Closure = namedtuple("Closure", "how rounds iterations objective bound gap")


def close(groups, share: float, reach: list[float]) -> tuple[list[Closure], list]:
    """The closure and certified point of every problem of ``groups``, in order.

    ``groups`` yields lists of problems of one shape and is read one list at
    a time; problem k enters its caller's sums scaled by at most
    ``reach[k]``.  Each list gets its closed forms from one ``rank_one``
    pass, accepted where every pivot of S_b(y) is positive and the gap,
    times the reach, is within ``share``; the point is (sector key, v, y),
    X = v v' on that sector.  A problem of scale 0 closes at 0 with no
    point: its seed is the identity in every sector, where each channel 2j
    has 2j + 1 sectors.  Only the others keep their bands: each runs the
    barrier on its active set, the closed form's sector plus the violated
    ones, and the sectors its multipliers violate join, one ``solve_many``
    call per round, until none is.  Its point is (blocks, y), the blocks of
    the sectors it solved, the others being 0; so extended, the restricted
    primal is feasible for the whole problem, and a y feasible in every
    sector bounds its optimum, so the gap keeps its meaning.  A round that
    misses ``share`` ends its problem, its violated sectors lifted by their
    Gershgorin deficits so that the bound still holds.
    """
    closures, points, problems, active, spent = [], [], {}, {}, {}
    for group in groups:
        for p, (best, v, y, objective, bound, violated) in zip(group, rank_one(group)):
            k = len(closures)
            points.append(None)
            if p.scale == 0.0:
                closures.append(Closure("zero_cost", 0, 0, 0.0, 0.0, 0.0))
            elif (bound - objective) * reach[k] <= share and not violated.any():
                closures.append(Closure("closed_form", 0, 0, objective, bound, bound - objective))
                points[k] = (p.keys[best], v, y)
            else:
                closures.append(None)
                problems[k], active[k], spent[k] = p, violated.copy(), (0, 0)
                active[k][best] = True
    while active:
        order = sorted(active)
        parts = solve_many([Bands([key for key, keep in zip(p.keys, on) if keep], p.channels,
                                  p.slot[:, on], p.diag[:, on], p.off[:, on])
                            for p, on in ((problems[k], active[k]) for k in order)], share)
        for k, part in zip(order, parts):
            p, on, (rounds, steps) = problems[k], active.pop(k), spent[k]
            spent[k] = done = rounds + 1, steps + part.iterations
            y = np.array([part.multipliers[c] for c in p.channels])
            violated = ~(slack_pivots(p, y) > 0.0).all(axis=0) & ~on
            if violated.any() and part.gap <= share:
                active[k] = on | violated
                continue
            bound = part.bound
            if violated.any():
                y = y + gershgorin_lift(np.append(y, 1.0), p.slot, p.diag, p.off, violated)[:-1]
                bound = float(np.array([tj + 1.0 for _, tj in p.channels]) @ y)
            closures[k] = Closure("barrier", *done, part.objective, bound, bound - part.objective)
            points[k] = (part.blocks, y)
    return closures, points

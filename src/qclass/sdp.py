"""Interior-point solver for per-sector seed optimization.

The problem: maximize a weighted linear functional

    Delta = 2 sum_b w_b tr(C_b X_b)

over positive semidefinite matrices X_b, one per (block label, magnetic
sector), subject to one linear constraint per (block label, coupled momentum
j): the diagonal entries belonging to channel j, summed across the sectors of
that block, must equal 2j + 1.  Its dual has one multiplier y_c per channel:

    minimize sum_c (2j_c + 1) y_c  subject to  S_b(y) = diag(y[channels_b]) - 2 w_b C_b >= 0.

The engine is a damped-Newton log-barrier method on that dual (Vandenberghe
and Boyd, "Semidefinite Programming", SIAM Rev. 1996): from a strictly
feasible start it minimizes t b'y - sum_b log det S_b(y) for t growing
geometrically, backtracking each step until every S_b stays positive
definite.  Each centered point carries its own certificate: y is strictly
dual feasible, so b'y bounds the optimum from above, and the primal point
X_b = S_b^-1 / t, made exactly feasible by a diagonal congruence, attains an
objective below it; the difference is the reported gap.  ``Seed.iterations``
counts Newton steps.  Deterministic for fixed inputs; blind to block
symmetries, which ``mixed.solve_lm`` uses when it passes in one block label
at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 500  # Newton steps

_MU = 20.0                  # growth of the barrier parameter t per centering
_CENTERED = 1e-3            # centering ends once half the squared Newton decrement is below this
_ALPHA, _BETA = 0.25, 0.5   # backtracking: sufficient-decrease fraction, step shrink
_MAX_HALVINGS = 60          # backtracking halvings before a Newton step counts as stalled


class InfeasibleError(ValueError):
    """The constraint system of a block problem cannot be satisfied."""


class SolverError(RuntimeError):
    """The duality gap did not close within the Newton-step cap; carries the best point."""

    def __init__(self, message: str, seed: "Seed"):
        super().__init__(message)
        self.seed = seed


@dataclass(frozen=True)
class SdpBlock:
    """One PSD variable: a magnetic sector of one block label."""

    xi: Hashable          # block label key, e.g. (2*jA, 2*jC)
    tm: int               # doubled magnetic number of the sector
    cost: np.ndarray      # Hermitian cost matrix (the conditioned operator sector)
    weight: float         # block probability multiplying the cost
    channels: tuple[int, ...]  # doubled coupled momentum per diagonal index

    @property
    def key(self) -> tuple:
        return (self.xi, self.tm)


@dataclass
class BlockSdpProblem:
    blocks: list[SdpBlock]

    def __post_init__(self):
        if not self.blocks:
            raise InfeasibleError("problem has no blocks")
        seen = set()
        for b in self.blocks:
            if b.key in seen:
                raise ValueError(f"duplicate block key {b.key}")
            seen.add(b.key)
            if b.cost.shape != (len(b.channels),) * 2:
                raise ValueError(f"block {b.key}: cost shape {b.cost.shape} != channels")
            if np.abs(b.cost - b.cost.conj().T).max() > 1e-10:
                raise ValueError(f"block {b.key}: cost is not Hermitian")

    def constraint_channels(self) -> dict[tuple, int]:
        """Map (xi, 2j) -> target 2j+1 over every channel appearing in the problem."""
        out: dict[tuple, int] = {}
        for b in self.blocks:
            for tj in b.channels:
                tgt = tj + 1
                if tgt <= 0:
                    raise InfeasibleError(f"non-positive constraint target for channel {tj}")
                out[(b.xi, tj)] = tgt
        return out


@dataclass
class Seed:
    """A feasible (near-optimal) collection of sector matrices."""

    blocks: dict[tuple, np.ndarray]
    objective: float
    bound: float
    gap: float
    iterations: int
    multipliers: dict[tuple, float]
    objective_trace: list = field(default_factory=list, repr=False)
    problem: BlockSdpProblem = field(default=None, repr=False)

    def constraint_residual(self) -> float:
        sums: dict[tuple, float] = {}
        for b in self.problem.blocks:
            X = self.blocks[b.key]
            for i, tj in enumerate(b.channels):
                sums[(b.xi, tj)] = sums.get((b.xi, tj), 0.0) + float(X[i, i].real)
        targets = self.problem.constraint_channels()
        return max(abs(sums[c] - t) for c, t in targets.items())

    def min_eigenvalue(self) -> float:
        return min(float(np.linalg.eigvalsh((X + X.conj().T) / 2).min())
                   for X in self.blocks.values())

    def to_json_dict(self) -> dict:
        items = []
        for b in self.problem.blocks:
            X = self.blocks[b.key]
            items.append({
                "xi": list(b.xi), "twice_m": b.tm,
                "channels": list(b.channels),
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


class _Workspace:
    """Every sector in one stack, padded to the largest sector dimension.

    Padding slots belong to a dummy channel (index ``nch``) whose multiplier
    is pinned at 1 and whose target is 0, so a padded S_b is block-diagonal
    with an identity and the congruence zeroes a padded X_b outside its sector.
    Costs are stored divided by ``scale``, their largest absolute entry.
    """

    def __init__(self, problem: BlockSdpProblem):
        self.problem = problem
        channels = problem.constraint_channels()
        self.chan_list = sorted(channels)
        self.nch = nch = len(self.chan_list)
        self.targets = np.array([channels[c] for c in self.chan_list], float)
        chan_pos = {c: i for i, c in enumerate(self.chan_list)}
        d = max(len(b.channels) for b in problem.blocks)
        self.costs = np.zeros((len(problem.blocks), d, d))
        self.slot = np.full((len(problem.blocks), d), nch)
        for k, b in enumerate(problem.blocks):
            m = len(b.channels)
            self.costs[k, :m, :m] = 2.0 * b.weight * np.real(b.cost)
            self.slot[k, :m] = [chan_pos[(b.xi, tj)] for tj in b.channels]
        self.scale = float(np.abs(self.costs).max())
        if self.scale > 0.0:
            self.costs /= self.scale
        self.diag = np.arange(d)
        # flat (channel, channel') index of every entry pair, for the Hessian
        self.pairs = (self.slot[:, :, None] * (nch + 1) + self.slot[:, None, :]).ravel()

    def to_blocks(self, X: np.ndarray) -> dict:
        return {b.key: X[k, :len(b.channels), :len(b.channels)].copy()
                for k, b in enumerate(self.problem.blocks)}

    def slack(self, y: np.ndarray) -> np.ndarray:
        """S_b(y) = diag(y[channels_b]) - C_b for every sector, padding at identity."""
        S = -self.costs
        S[:, self.diag, self.diag] += np.append(y, 1.0)[self.slot]
        return S

    def channel_sums(self, X: np.ndarray) -> np.ndarray:
        return np.bincount(self.slot.ravel(), weights=X[:, self.diag, self.diag].ravel(),
                           minlength=self.nch + 1)[:self.nch]

    def congruence(self, X: np.ndarray) -> np.ndarray:
        """D X D with D_ii = sqrt(target_c / channel_sum_c): exactly feasible, still PSD."""
        D = np.sqrt(np.append(self.targets / self.channel_sums(X), 0.0))[self.slot]
        return X * D[:, :, None] * D[:, None, :]

    def barrier(self, y: np.ndarray, t: float):
        """(t b'y - sum_b log det S_b(y), Cholesky factors); (inf, None) if some S_b is not PD."""
        try:
            L = np.linalg.cholesky(self.slack(y))
        except np.linalg.LinAlgError:
            return math.inf, None
        return t * float(self.targets @ y) - 2.0 * np.log(L[:, self.diag, self.diag]).sum(), L

    @staticmethod
    def inverse(L: np.ndarray) -> np.ndarray:
        """S^-1 = L^-T L^-1 from the Cholesky factors of S."""
        Linv = np.linalg.inv(L)
        return Linv.transpose(0, 2, 1) @ Linv

    def newton_step(self, y: np.ndarray, t: float, f: float, L: np.ndarray):
        """One backtracked Newton step on the barrier; None once centered.

        Raises ``LinAlgError`` when rounding stalls the step: a singular
        Newton system, or no sufficient decrease within ``_MAX_HALVINGS``.
        """
        Sinv = self.inverse(L)
        g = t * self.targets - self.channel_sums(Sinv)
        size = self.nch + 1
        H = np.bincount(self.pairs, weights=(Sinv ** 2).ravel(), minlength=size * size)
        dy = -np.linalg.solve(H.reshape(size, size)[:self.nch, :self.nch], g)
        decrement2 = -float(g @ dy)
        if not math.isfinite(decrement2):
            raise np.linalg.LinAlgError("non-finite Newton decrement")
        if decrement2 / 2.0 <= _CENTERED:
            return None
        s = 1.0
        for _ in range(_MAX_HALVINGS):
            f_new, L_new = self.barrier(y + s * dy, t)
            if f_new <= f - _ALPHA * s * decrement2:
                return y + s * dy, f_new, L_new
            s *= _BETA
        raise np.linalg.LinAlgError("no sufficient decrease along the Newton direction")

    def certify(self, y: np.ndarray, t: float, L: np.ndarray):
        """Feasible primal S^-1 / t after congruence, its objective, and a guarded dual bound.

        y is strictly feasible already; the lift of any negative eigenvalue of
        S_b onto its channels only guards the bound against rounding.
        """
        Sinv = self.inverse(L)
        X = self.congruence((Sinv + Sinv.transpose(0, 2, 1)) / (2.0 * t))
        deficits = np.maximum(-np.linalg.eigvalsh(self.slack(y))[:, 0], 0.0)
        lift = np.zeros(self.nch + 1)
        np.maximum.at(lift, self.slot, deficits[:, None])
        y = y + lift[:self.nch]
        return X, float(np.vdot(self.costs, X)), float(self.targets @ y), y


def solve(
    problem: BlockSdpProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> Seed:
    """Maximize the seed functional; returns a feasible Seed with certified gap.

    Deterministic given (problem, tol, max_iter).  The gap is certified at
    the end of every centering; ``SolverError`` carries the best certified
    point if it does not close within ``max_iter`` Newton steps (each
    Newton system solved counts, the one that finds a point centered too)
    or before rounding stalls the path.
    """
    ws = _Workspace(problem)
    if ws.scale == 0.0:
        X = ws.congruence(np.broadcast_to(np.eye(len(ws.diag)), ws.costs.shape).copy())
        return Seed(blocks=ws.to_blocks(X), objective=0.0, bound=0.0, gap=0.0,
                    iterations=0, multipliers={c: 0.0 for c in ws.chan_list},
                    objective_trace=[0.0], problem=problem)
    y = np.full(ws.nch, max(float(np.linalg.eigvalsh(ws.costs)[:, -1].max()), 0.0) + 1.0)
    best = None  # (gap, X, objective, bound, y, steps), all divided by ws.scale
    trace: list[float] = []
    t, steps, stalled = 1.0, 0, False
    while True:
        f, L = ws.barrier(y, t)
        try:
            while steps < max_iter:
                steps += 1
                step = ws.newton_step(y, t, f, L)
                if step is None:
                    break
                y, f, L = step
        except np.linalg.LinAlgError:
            stalled = True
        X, obj, bound, y_cert = ws.certify(y, t, L)
        trace.append(obj * ws.scale)
        if best is None or bound - obj < best[0]:
            best = (bound - obj, X, obj, bound, y_cert, steps)
        if best[0] * ws.scale <= tol or steps >= max_iter or stalled:
            break
        t *= _MU

    gap, X, obj, bound, y, its = best
    seed = Seed(blocks=ws.to_blocks(X), objective=obj * ws.scale, bound=bound * ws.scale,
                gap=gap * ws.scale, iterations=its,
                multipliers=dict(zip(ws.chan_list, y * ws.scale)),
                objective_trace=trace, problem=problem)
    if seed.gap > tol:
        raise SolverError(
            f"gap {seed.gap:.3e} above tolerance {tol:.3e} after {steps} Newton steps", seed
        )
    return seed

"""Dense semidefinite solver for per-sector seed optimization.

The problem: maximize a weighted linear functional

    Delta = 2 sum_b w_b tr(C_b X_b)

over positive semidefinite matrices X_b, one per (block label, magnetic
sector), subject to one linear constraint per (block label, coupled momentum
j): the diagonal entries belonging to channel j, summed across the sectors of
that block, must equal 2j + 1.  Each diagonal entry belongs to exactly one
channel, so the affine projection is closed form; the PSD projection clips
eigenvalues, batched over blocks of equal dimension.

The engine is a dependency-free split iteration: a gradient step on the
linear objective folded into alternating projections onto the two sets, with
persistent Dykstra-style correction terms; its fixed points are the optima.
Progress is certified independently: the iterate is projected exactly onto
the feasible intersection, multipliers are fitted on its active eigenspaces
and lifted channel-by-channel to exact dual feasibility, and that upper bound
minus the feasible objective is the reported gap.  Deterministic for fixed
inputs; blind to block symmetries, which ``mixed.solve_lm`` uses when it
passes in one block label at a time.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Optional

import numpy as np

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100_000


class InfeasibleError(ValueError):
    """The constraint system of a block problem cannot be satisfied."""


class SolverError(RuntimeError):
    """Iteration cap reached before the duality gap closed; carries the best iterate."""

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
    """Stacked storage grouping equal-dimension blocks for batched projections."""

    def __init__(self, problem: BlockSdpProblem):
        self.problem = problem
        channels = problem.constraint_channels()
        self.chan_list = sorted(channels)
        self.targets = np.array([channels[c] for c in self.chan_list], float)
        chan_pos = {c: i for i, c in enumerate(self.chan_list)}

        self.dims = sorted({len(b.channels) for b in problem.blocks})
        self.groups = {d: [b for b in problem.blocks if len(b.channels) == d] for d in self.dims}
        self.costs = {
            d: np.ascontiguousarray([2.0 * b.weight * np.real(b.cost) for b in g])
            for d, g in self.groups.items()
        }
        self.diag_chan = {
            d: np.array([[chan_pos[(b.xi, tj)] for tj in b.channels] for b in g], int)
            for d, g in self.groups.items()
        }
        self.slot_counts = np.zeros(len(self.chan_list))
        for d in self.dims:
            np.add.at(self.slot_counts, self.diag_chan[d].ravel(), 1.0)

    # -- stack helpers -----------------------------------------------------
    def zeros(self):
        return {d: np.zeros_like(self.costs[d]) for d in self.dims}

    def identity(self):
        return {d: np.tile(np.eye(d), (self.costs[d].shape[0], 1, 1)) for d in self.dims}

    def from_blocks(self, blocks: dict) -> dict:
        out = self.zeros()
        for d, g in self.groups.items():
            for k, b in enumerate(g):
                out[d][k] = np.real(blocks[b.key])
        return out

    def to_blocks(self, stacks: dict) -> dict:
        out = {}
        for d, g in self.groups.items():
            for k, b in enumerate(g):
                out[b.key] = stacks[d][k].copy()
        return out

    def objective(self, stacks) -> float:
        return float(sum(np.vdot(self.costs[d], stacks[d]).real for d in self.dims))

    def channel_sums(self, stacks) -> np.ndarray:
        sums = np.zeros(len(self.chan_list))
        for d in self.dims:
            idx = np.arange(d)
            np.add.at(sums, self.diag_chan[d].ravel(), stacks[d][:, idx, idx].ravel())
        return sums

    def affine_project(self, stacks) -> None:
        delta = (self.targets - self.channel_sums(stacks)) / self.slot_counts
        for d in self.dims:
            idx = np.arange(d)
            stacks[d][:, idx, idx] += delta[self.diag_chan[d]]

    @staticmethod
    def psd_project(stacks) -> None:
        for d, s in stacks.items():
            if d == 1:
                np.maximum(s, 0.0, out=s)
                continue
            w, V = np.linalg.eigh(s)
            np.maximum(w, 0.0, out=w)
            s[:] = np.einsum("kij,kj,klj->kil", V, w, V)

    # -- exact projection onto the intersection ----------------------------
    def project_feasible(self, stacks, tol: float = 1e-13, max_sweeps: int = 2000) -> dict:
        """Dykstra alternating projections onto {PSD} intersect {affine}.

        The correction term is kept for the PSD cone only; corrections are
        unnecessary for affine sets, so the limit is the exact projection.
        The final half-step is affine, so constraints hold exactly.
        """
        x = {d: s.copy() for d, s in stacks.items()}
        p = self.zeros()
        for _ in range(max_sweeps):
            y = {d: x[d] + p[d] for d in self.dims}
            self.psd_project(y)
            for d in self.dims:
                p[d] = x[d] + p[d] - y[d]
            self.affine_project(y)
            change = max(float(np.abs(y[d] - x[d]).max()) for d in self.dims)
            x = y
            if change <= tol:
                break
        return x

    # -- duality ------------------------------------------------------------
    def fit_multipliers(self, stacks, active_tol: float = 1e-7) -> np.ndarray:
        """Least-squares multipliers from stationarity on active eigenspaces."""
        rows, rhs = [], []
        nch = len(self.chan_list)
        for d in self.dims:
            s = stacks[d]
            if d == 1:
                w = s[:, :, 0]
                V = np.ones_like(s)
            else:
                w, V = np.linalg.eigh(s)
            scale = max(1.0, float(w.max(initial=0.0)))
            for k in range(s.shape[0]):
                Cv_all = self.costs[d][k] @ V[k]
                for e in range(d):
                    if w[k, e] <= active_tol * scale:
                        continue
                    v = V[k][:, e]
                    Cv = Cv_all[:, e]
                    for i in range(d):
                        row = np.zeros(nch)
                        row[self.diag_chan[d][k, i]] = v[i]
                        rows.append(row)
                        rhs.append(Cv[i])
        if not rows:
            return np.zeros(nch)
        A = np.array(rows)
        b = np.array(rhs)
        y, *_ = np.linalg.lstsq(A, b, rcond=None)
        return y

    def repaired_dual_value(self, y: np.ndarray) -> tuple[float, np.ndarray]:
        """Lift multipliers to exact dual feasibility; return (bound, lifted y)."""
        lift = np.zeros_like(y)
        for d in self.dims:
            D = -self.costs[d].copy()
            idx = np.arange(d)
            D[:, idx, idx] += y[self.diag_chan[d]]
            if d == 1:
                deficits = np.maximum(-D[:, 0, 0], 0.0)
            else:
                deficits = np.maximum(-np.linalg.eigvalsh(D)[:, 0], 0.0)
            for k in np.nonzero(deficits > 0.0)[0]:
                np.maximum.at(lift, self.diag_chan[d][k], deficits[k])
        y2 = y + lift
        return float(self.targets @ y2), y2

    def certify(self, stacks, active_tol: float = 1e-7):
        """Exact-feasible point, objective, repaired dual bound."""
        feas = self.project_feasible(stacks)
        obj = self.objective(feas)
        y = self.fit_multipliers(feas, active_tol=active_tol)
        bound, y_rep = self.repaired_dual_value(y)
        return feas, obj, bound, y_rep


def solve(
    problem: BlockSdpProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    step: Optional[float] = None,
    x0: Optional[dict] = None,
    check_every: int = 50,
) -> Seed:
    """Maximize the seed functional; returns a feasible Seed with certified gap.

    Deterministic given (problem, tol, max_iter, step, x0).  Raises
    ``SolverError`` carrying the best feasible iterate if the certified gap
    does not close within ``max_iter`` iterations.
    """
    ws = _Workspace(problem)
    Z = ws.from_blocks(x0) if x0 is not None else ws.identity()
    ws.psd_project(Z)
    U = ws.zeros()

    cost_scale = max(float(np.abs(c).max()) for c in ws.costs.values())
    if cost_scale == 0.0:
        feas = ws.project_feasible(Z)
        return Seed(blocks=ws.to_blocks(feas), objective=0.0, bound=0.0, gap=0.0,
                    iterations=0, multipliers={c: 0.0 for c in ws.chan_list},
                    objective_trace=[0.0], problem=problem)
    # gradient scale: ascend the linear objective inside the affine half-step
    eta = step if step is not None else 1.0 / cost_scale

    best = None  # (gap, blocks, obj, bound, y, iterations)
    trace: list[float] = []
    it = 0
    while it < max_iter:
        upto = min(it + check_every, max_iter)
        while it < upto:
            X = {d: Z[d] - U[d] + eta * ws.costs[d] for d in ws.dims}
            ws.affine_project(X)
            for d in ws.dims:
                Z[d] = X[d] + U[d]
            ws.psd_project(Z)
            for d in ws.dims:
                U[d] += X[d] - Z[d]
            it += 1
        feas, obj, bound, y = ws.certify(Z)
        trace.append(obj)
        gap = bound - obj
        if best is None or gap < best[0]:
            best = (gap, ws.to_blocks(feas), obj, bound, y, it)
        if best[0] <= tol:
            break

    gap, blocks, obj, bound, y, its = best
    seed = Seed(
        blocks=blocks, objective=obj, bound=bound, gap=gap, iterations=its,
        multipliers=dict(zip(ws.chan_list, y)), objective_trace=trace,
        problem=problem,
    )
    if gap > tol:
        raise SolverError(
            f"gap {gap:.3e} above tolerance {tol:.3e} after {it} iterations", seed
        )
    return seed


import math

import numpy as np
import pytest

from qclass import machines, mixed, sdp
from qclass.sdp import (
    BlockSdpProblem, InfeasibleError, SdpBlock, Seed, SolverError, solve, solve_many,
)


# -- independent re-certifier: Dykstra projection, fitted multipliers, lifted bound


def channel_slots(problem):
    """(block key, diagonal index) slots of every constraint channel."""
    slots = {}
    for b in problem.blocks:
        for i, tj in enumerate(b.channels):
            slots.setdefault((b.xi, tj), []).append((b.key, i))
    return slots


def project_feasible(problem, blocks, tol=1e-13, max_sweeps=2000):
    """Dykstra alternating projections onto {PSD} intersect {affine}.

    The correction term is kept for the PSD cone only; corrections are
    unnecessary for affine sets, so the limit is the exact projection.
    The final half-step is affine, so constraints hold exactly.
    """
    targets, slots = problem.constraint_channels(), channel_slots(problem)
    x = {k: np.real(X).copy() for k, X in blocks.items()}
    p = {k: np.zeros_like(X) for k, X in x.items()}
    for _ in range(max_sweeps):
        y = {}
        for k in x:
            w, V = np.linalg.eigh(x[k] + p[k])
            y[k] = (V * np.maximum(w, 0.0)) @ V.T
            p[k] = x[k] + p[k] - y[k]
        for c, where in slots.items():
            delta = (targets[c] - sum(y[k][i, i] for k, i in where)) / len(where)
            for k, i in where:
                y[k][i, i] += delta
        change = max(float(np.abs(y[k] - x[k]).max()) for k in x)
        x = y
        if change <= tol:
            break
    return x


def fit_multipliers(problem, blocks):
    """Least-squares multipliers from stationarity (diag(y) - 2 w C) X = 0.

    Each eigenvector of X enters weighted by its eigenvalue, so directions
    that X barely uses count for little; no active-set threshold is needed.
    """
    chans = sorted(problem.constraint_channels())
    pos = {c: i for i, c in enumerate(chans)}
    rows, rhs = [], []
    for b in problem.blocks:
        X = np.real(blocks[b.key])
        CX = 2.0 * b.weight * np.real(b.cost) @ X
        for i, tj in enumerate(b.channels):
            row = np.zeros((len(b.channels), len(chans)))
            row[:, pos[(b.xi, tj)]] = X[i]
            rows.append(row)
            rhs.append(CX[i])
    y = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs), rcond=None)[0]
    return dict(zip(chans, y))


def repaired_bound(problem, y):
    """Dual value of y after lifting each channel by the deficits of its sectors."""
    lift = dict.fromkeys(y, 0.0)
    for b in problem.blocks:
        S = np.diag([y[b.xi, tj] for tj in b.channels]) - 2.0 * b.weight * np.real(b.cost)
        deficit = max(-float(np.linalg.eigvalsh(S)[0]), 0.0)
        for tj in b.channels:
            lift[b.xi, tj] = max(lift[b.xi, tj], deficit)
    return sum(t * (y[c] + lift[c]) for c, t in problem.constraint_channels().items())


def objective(problem, blocks):
    return sum(2.0 * b.weight * float(np.vdot(np.real(b.cost), blocks[b.key]))
               for b in problem.blocks)


def n1_pure_problem():
    xi = (1, 1)
    return BlockSdpProblem([
        SdpBlock(xi=xi, tm=0, cost=np.array([[0.0, 1 / 12], [1 / 12, 0.0]]),
                 weight=1.0, channels=(0, 2)),
        SdpBlock(xi=xi, tm=2, cost=np.zeros((1, 1)), weight=1.0, channels=(2,)),
        SdpBlock(xi=xi, tm=-2, cost=np.zeros((1, 1)), weight=1.0, channels=(2,)),
    ])


class TestSolve:
    def test_n1_pure_optimum(self):
        seed = solve(n1_pure_problem(), tol=1e-8)
        assert seed.objective == pytest.approx(1 / math.sqrt(3), abs=1e-8)
        # the optimizer is the rank-one seed with coefficients (1, sqrt(3))
        omega0 = seed.blocks[((1, 1), 0)]
        np.testing.assert_allclose(
            omega0, np.outer([1, math.sqrt(3)], [1, math.sqrt(3)]), atol=1e-6)
        w = np.linalg.eigvalsh(omega0)
        assert w[0] == pytest.approx(0.0, abs=1e-7)

    def test_diagonal_problem_is_linear_program(self):
        lp = BlockSdpProblem([
            SdpBlock(xi=(0, 0), tm=t, cost=np.array([[c]]), weight=0.5, channels=(0,))
            for t, c in [(0, 0.3), (2, 0.7), (-2, 0.1)]
        ])
        seed = solve(lp, tol=1e-10)
        assert seed.objective == pytest.approx(0.7, abs=1e-9)

    def test_zero_cost(self):
        prob = BlockSdpProblem([SdpBlock(xi=(1, 1), tm=0, cost=np.zeros((2, 2)),
                                         weight=1.0, channels=(0, 2))])
        seed = solve(prob, tol=1e-8)
        assert seed.objective == 0.0
        assert seed.bound == 0.0

    def test_cost_scaling(self):
        base = solve(n1_pure_problem(), tol=1e-10)
        doubled = BlockSdpProblem([
            SdpBlock(xi=b.xi, tm=b.tm, cost=2 * b.cost, weight=b.weight, channels=b.channels)
            for b in n1_pure_problem().blocks
        ])
        seed2 = solve(doubled, tol=1e-10)
        assert seed2.objective == pytest.approx(2 * base.objective, abs=1e-8)
        assert seed2.bound == pytest.approx(2 * base.bound, abs=1e-8)

    def test_deterministic(self):
        a = solve(n1_pure_problem(), tol=1e-9)
        b = solve(n1_pure_problem(), tol=1e-9)
        assert a.objective == b.objective
        assert a.iterations == b.iterations
        for key in a.blocks:
            np.testing.assert_array_equal(a.blocks[key], b.blocks[key])

    def test_objective_trace_monotone(self):
        _, seed = mixed.solve_lm(3, 0.55, tol=1e-9)
        trace = seed.objective_trace
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
    def test_unusable_tolerance_rejected(self, tol):
        with pytest.raises(ValueError):
            solve(n1_pure_problem(), tol=tol)
        with pytest.raises(ValueError):
            solve_many([n1_pure_problem()], tol=tol)

    def test_iteration_cap_carries_best_iterate(self):
        hard = mixed.build_lm_problem(2, 0.6)
        with pytest.raises(SolverError) as exc:
            solve(hard, tol=1e-12, max_iter=3)
        seed = exc.value.seed
        assert isinstance(seed, Seed)
        assert seed.constraint_residual() <= 1e-8
        assert seed.gap > 1e-12


def random_tridiagonal(rng, d, scale=1.0):
    """Diagonally dominant, hence positive definite, symmetric tridiagonal bands."""
    off = rng.normal(size=d - 1)
    diag = np.abs(np.r_[0.0, off]) + np.abs(np.r_[off, 0.0]) + rng.uniform(0.05, 1.0, d)
    return scale * diag, scale * off


def label_problem(n, r, xi):
    return BlockSdpProblem([b for b in mixed.build_lm_problem(n, r).blocks if b.xi == xi])


def assert_same_seed(a, b):
    assert (a.objective, a.bound, a.gap, a.iterations) == (b.objective, b.bound, b.gap,
                                                           b.iterations)
    assert a.objective_trace == b.objective_trace and a.multipliers == b.multipliers
    for key in a.blocks:
        assert np.array_equal(a.blocks[key], b.blocks[key])


class TestBandKernels:
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 30, 101])
    def test_pivots_match_cholesky(self, d):
        rng = np.random.default_rng(d)
        for _ in range(5):
            diag, off = random_tridiagonal(rng, d)
            S = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            piv = sdp.ldl_pivots(diag[:, None], (off * off)[:, None])[:, 0]
            np.testing.assert_allclose(piv, np.diag(np.linalg.cholesky(S)) ** 2, rtol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 30, 101])
    def test_ratio_inverse_matches_inv_without_overflow(self, d):
        # at scale 1e4 and d = 101 the leading minors reach 1e400: the two-sequence
        # products would overflow, the ratio form must not
        rng = np.random.default_rng(100 + d)
        for scale in (1.0, 1e4):
            diag, off = random_tridiagonal(rng, d, scale)
            S = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                piv = sdp.ldl_pivots(diag[:, None], (off * off)[:, None])
                M = sdp.tridiagonal_inverse(piv, off[:, None])[:, :, 0]
            np.testing.assert_allclose(M, np.linalg.inv(S), rtol=1e-12, atol=0)
            l2 = ((off / piv[:-1, 0]) ** 2)[:, None]
            np.testing.assert_array_equal(sdp.inverse_diagonal(piv, l2)[:, 0], np.diag(M))

    def test_infeasible_neighbour_leaves_steps_unchanged(self, monkeypatch):
        # four problems of one shape share a loop; in some line-search round one
        # trial point leaves the cone while another is accepted, and every
        # problem still ends exactly where it ends alone
        problems = [label_problem(4, r, (2, 4)) for r in (0.3, 0.6, 0.9)]
        problems.append(label_problem(4, 0.5, (2, 2)))
        alone = [solve_many([p], tol=1e-9)[0] for p in problems]
        rounds = []
        real = sdp._Batch.log_det

        def recording(self, ys, cols):
            piv, logdet = real(self, ys, cols)
            owners = np.unique(self.prob[cols])
            rounds.extend([bool(np.isfinite(row[k])) for k in owners] for row in logdet)
            return piv, logdet

        monkeypatch.setattr(sdp._Batch, "log_det", recording)
        together = solve_many(problems, tol=1e-9)
        assert any(True in r and False in r for r in rounds)
        for a, b in zip(together, alone):
            assert_same_seed(a, b)


    def test_shapes_share_one_loop(self, monkeypatch):
        # labels of five (largest sector, channel count) shapes at several r run in
        # one loop, one of them as bands; in some round one trial point leaves the
        # cone while another is accepted, and each problem ends where it ends alone
        problems = [label_problem(n, r, xi) for r in (0.3, 0.6, 0.9)
                    for n, xi in ((1, (1, 1)), (2, (0, 2)), (2, (2, 2)), (4, (4, 4)), (4, (2, 4)))]
        problems[-1] = problems[-1].bands()
        alone = [solve_many([p], tol=1e-9)[0] for p in problems]
        batches, rounds = [], []
        real_init, real_log_det = sdp._Batch.__init__, sdp._Batch.log_det

        def init(self, parts):
            batches.append(len(parts))
            real_init(self, parts)

        def recording(self, ys, cols):
            piv, logdet = real_log_det(self, ys, cols)
            owners = np.unique(self.prob[cols])
            rounds.extend([bool(np.isfinite(row[k])) for k in owners] for row in logdet)
            return piv, logdet

        monkeypatch.setattr(sdp._Batch, "__init__", init)
        monkeypatch.setattr(sdp._Batch, "log_det", recording)
        together = solve_many(problems, tol=1e-9)
        assert batches == [len(problems)]
        assert any(True in r and False in r for r in rounds)
        for a, b in zip(together, alone):
            assert_same_seed(a, b)
        assert together[0].problem is problems[0]


class TestCertificate:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_independent_recertification(self, n):
        # the Dykstra projection of a barrier seed stays put, and the bound
        # lifted from multipliers fitted to it lies within the reported gap
        for r in (0.12, 0.5, 0.9, 1.0):
            _, seed = mixed.solve_lm(n, r)
            feas = project_feasible(seed.problem, seed.blocks)
            assert objective(seed.problem, feas) == pytest.approx(seed.objective, abs=1e-12)
            bound = repaired_bound(seed.problem, fit_multipliers(seed.problem, feas))
            assert seed.objective - 1e-12 <= bound <= seed.objective + seed.gap

    def test_congruence_repaired_primal_is_feasible(self):
        problems = [n1_pure_problem()] + [mixed.build_lm_problem(n, r)
                                          for n, r in ((2, 0.3), (3, 0.8), (4, 1.0))]
        for problem in problems:
            for max_iter in (1, 3, 500):
                try:
                    seed = solve(problem, max_iter=max_iter)
                except SolverError as exc:
                    seed = exc.seed
                assert seed.constraint_residual() <= 1e-12
                assert seed.min_eigenvalue() >= -1e-12


class TestSeed:
    def test_feasibility_and_verification(self):
        seed = solve(n1_pure_problem(), tol=1e-8)
        assert seed.constraint_residual() <= 1e-8
        assert seed.min_eigenvalue() >= -1e-9
        assert machines.verify_seed(seed)

    def test_dual_bound_dominates(self):
        seed = solve(n1_pure_problem(), tol=1e-8)
        assert seed.bound >= seed.objective - 1e-9

    def test_json_dump(self):
        seed = solve(n1_pure_problem(), tol=1e-8)
        d = seed.to_json_dict()
        assert {"objective", "dual_bound", "gap", "blocks"} <= set(d)
        assert len(d["blocks"]) == 3
        assert d["constraint_residual"] <= 1e-8


class TestProblemValidation:
    def test_empty(self):
        with pytest.raises(InfeasibleError):
            BlockSdpProblem([])

    def test_duplicate_keys(self):
        b = SdpBlock(xi=(0, 0), tm=0, cost=np.zeros((1, 1)), weight=1.0, channels=(0,))
        with pytest.raises(ValueError):
            BlockSdpProblem([b, b])

    def test_non_hermitian_cost(self):
        with pytest.raises(ValueError):
            BlockSdpProblem([SdpBlock(xi=(0, 0), tm=0,
                                      cost=np.array([[0.0, 1.0], [0.0, 0.0]]),
                                      weight=1.0, channels=(0, 2))])

    def test_non_tridiagonal_cost(self):
        cost = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 1.0], [0.5, 1.0, 0.0]])
        with pytest.raises(ValueError, match="tridiagonal"):
            BlockSdpProblem([SdpBlock(xi=(0, 0), tm=0, cost=cost, weight=1.0,
                                      channels=(0, 2, 4))])
        BlockSdpProblem([SdpBlock(xi=(0, 0), tm=0, cost=np.triu(np.tril(cost, 1), -1),
                                  weight=1.0, channels=(0, 2, 4))])

    def test_repeated_channel(self):
        with pytest.raises(ValueError, match="repeated"):
            BlockSdpProblem([SdpBlock(xi=(0, 0), tm=0, cost=np.zeros((2, 2)),
                                      weight=1.0, channels=(2, 2))])

    def test_complex_cost(self):
        # Hermitian, and a diagonal phase maps it to the n = 1 pure problem (optimum
        # 1/sqrt(3)); the engine keeps real bands, so it must refuse the imaginary part
        cost = np.array([[0.0, 1j / 12], [-1j / 12, 0.0]])
        with pytest.raises(ValueError, match="not real"):
            BlockSdpProblem([SdpBlock(xi=(0, 0), tm=0, cost=cost, weight=1.0, channels=(0, 2))])
        BlockSdpProblem([SdpBlock(xi=(0, 0), tm=0, cost=cost.real + 0j, weight=1.0,
                                  channels=(0, 2))])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            BlockSdpProblem([SdpBlock(xi=(0, 0), tm=0, cost=np.zeros((2, 2)),
                                      weight=1.0, channels=(0,))])

import math

import numpy as np
import pytest

from qclass import blocks as blk
from qclass import machines, mixed, oracle, sdp
from qclass.blocks import tridiagonal
from qclass.sdp import InfeasibleError, Seed, SolverError, solve, solve_many


# -- independent re-certifier: Dykstra projection, fitted multipliers, lifted bound
# (each sector's cost 2 w C is expanded from the problem's bands to a dense matrix)


def constraint_targets(problem):
    """Target 2j + 1 of every channel (xi, 2j), in order of first appearance."""
    return {(key[0], tj): tj + 1
            for key, channels, _ in oracle.dense_seed_sectors(problem) for tj in channels}


def channel_slots(problem):
    """(block key, diagonal index) slots of every constraint channel."""
    slots = {}
    for key, channels, _ in oracle.dense_seed_sectors(problem):
        for i, tj in enumerate(channels):
            slots.setdefault((key[0], tj), []).append((key, i))
    return slots


def project_feasible(problem, blocks, tol=1e-13, max_sweeps=2000):
    """Dykstra alternating projections onto {PSD} intersect {affine}.

    The correction term is kept for the PSD cone only; corrections are
    unnecessary for affine sets, so the limit is the exact projection.
    The final half-step is affine, so constraints hold exactly.
    """
    targets, slots = constraint_targets(problem), channel_slots(problem)
    x = {key: np.real(blocks[key]).copy() if key in blocks else np.zeros_like(cost)
         for key, _, cost in oracle.dense_seed_sectors(problem)}  # a missing sector is 0
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
    chans = sorted(constraint_targets(problem))
    pos = {c: i for i, c in enumerate(chans)}
    rows, rhs = [], []
    for key, channels, cost in oracle.dense_seed_sectors(problem):
        X = np.real(blocks[key]) if key in blocks else np.zeros_like(cost)
        CX = cost @ X
        for i, tj in enumerate(channels):
            row = np.zeros((len(channels), len(chans)))
            row[:, pos[(key[0], tj)]] = X[i]
            rows.append(row)
            rhs.append(CX[i])
    y = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs), rcond=None)[0]
    return dict(zip(chans, y))


def repaired_bound(problem, y):
    """Dual value of y after lifting each channel by the deficits of its sectors."""
    lift = dict.fromkeys(y, 0.0)
    for (xi, _), channels, cost in oracle.dense_seed_sectors(problem):
        S = np.diag([y[xi, tj] for tj in channels]) - cost
        deficit = max(-float(np.linalg.eigvalsh(S)[0]), 0.0)
        for tj in channels:
            lift[xi, tj] = max(lift[xi, tj], deficit)
    return sum(t * (y[c] + lift[c]) for c, t in constraint_targets(problem).items())


def objective(problem, blocks):
    return sum(float(np.vdot(cost, blocks[key]))
               for key, _, cost in oracle.dense_seed_sectors(problem) if key in blocks)


def n1_pure_problem():
    xi = (1, 1)
    return oracle.dense_seed_problem([
        (xi, 0, np.array([[0.0, 1 / 12], [1 / 12, 0.0]]), 1.0, (0, 2)),
        (xi, 2, np.zeros((1, 1)), 1.0, (2,)),
        (xi, -2, np.zeros((1, 1)), 1.0, (2,)),
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
        lp = oracle.dense_seed_problem([
            ((0, 0), t, np.array([[c]]), 0.5, (0,)) for t, c in [(0, 0.3), (2, 0.7), (-2, 0.1)]
        ])
        seed = solve(lp, tol=1e-10)
        assert seed.objective == pytest.approx(0.7, abs=1e-9)

    def test_zero_cost(self, monkeypatch):
        # close is the one place a zero cost closes; the barrier refuses it before any step
        prob = oracle.dense_seed_problem([((1, 1), 0, np.zeros((2, 2)), 1.0, (0, 2))])
        closures, points = sdp.close([[prob]], 1e-8, [1.0])
        assert closures == [sdp.Closure("zero_cost", 0, 0, 0.0, 0.0, 0.0)]
        assert points == [None]

        def not_reached(parts):
            raise AssertionError("the barrier ran")

        monkeypatch.setattr(sdp, "_Batch", not_reached)
        with pytest.raises(ValueError, match="zero cost"):
            solve(prob, tol=1e-8)
        with pytest.raises(ValueError, match="zero cost"):
            solve_many([n1_pure_problem(), prob], tol=1e-8)

    def test_cost_scaling(self):
        base = solve(n1_pure_problem(), tol=1e-10)
        p = n1_pure_problem()
        doubled = sdp.Bands(p.keys, p.channels, p.slot, 2 * p.diag, 2 * p.off)
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

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
    def test_unusable_tolerance_rejected(self, tol):
        with pytest.raises(ValueError):
            solve(n1_pure_problem(), tol=tol)
        with pytest.raises(ValueError):
            solve_many([n1_pure_problem()], tol=tol)

    def test_nan_band_is_not_solved(self):
        p = n1_pure_problem()
        off = p.off.copy()
        off[-1, 0] = math.nan
        with pytest.raises(SolverError):
            solve(sdp.Bands(p.keys, p.channels, p.slot, p.diag, off))

    def test_iteration_cap_carries_best_iterate(self, monkeypatch):
        hard = mixed.build_lm_problem(2, 0.6)
        monkeypatch.setattr(sdp, "MAX_ITER", 3)
        with pytest.raises(SolverError) as exc:
            solve(hard, tol=1e-12)
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
    """The bands of label xi (jA <= jC) alone, as the solver gets them from a sweep lane."""
    weight = mixed.block_probabilities(n, r)[xi]
    (_, kA), (_, kC) = blk.side_fractions(xi[0], r), blk.side_fractions(xi[1], r)
    (bands,) = mixed._label_bands(*xi, [(weight, kA, kC)])
    return bands


def assert_same_seed(a, b):
    assert (a.objective, a.bound, a.gap, a.iterations) == (b.objective, b.bound, b.gap,
                                                           b.iterations)
    assert a.multipliers == b.multipliers
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
        # one loop with no eigensolver; in some round one trial point leaves the
        # cone while another is accepted, and each problem ends where it ends alone
        problems = [label_problem(n, r, xi) for r in (0.3, 0.6, 0.9)
                    for n, xi in ((1, (1, 1)), (2, (0, 2)), (2, (2, 2)), (4, (4, 4)), (4, (2, 4)))]
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

        def no_eigensolver(*args, **kwargs):
            raise AssertionError("eigensolver called in the barrier loop")

        monkeypatch.setattr(sdp._Batch, "__init__", init)
        monkeypatch.setattr(sdp._Batch, "log_det", recording)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolver)
        together = solve_many(problems, tol=1e-9)
        monkeypatch.undo()
        assert batches == [len(problems)]
        assert any(True in r and False in r for r in rounds)
        for a, b in zip(together, alone):
            assert_same_seed(a, b)
        assert together[0].sectors == problems[0].layout()

    @pytest.mark.parametrize("singular_width", [None, 5])
    def test_singular_newton_system_falls_back_per_problem(self, monkeypatch, singular_width):
        # a stacked Newton solve that fails is redone one system at a time, which
        # gives every problem its bits; a problem whose own system fails too
        # stalls at that step, and its neighbours keep their bits
        problems = [label_problem(4, 0.6, xi) for xi in ((2, 4), (2, 2), (4, 4))]
        assert [len(p.channels) for p in problems] == [3, 3, 5]
        plain = solve_many(problems)
        refused, real = [], np.linalg.solve

        def failing(a, b):
            if len(a) > 1 or a.shape[-1] == singular_width:
                refused.append(len(a))
                raise np.linalg.LinAlgError("singular matrix")
            return real(a, b)

        monkeypatch.setattr(np.linalg, "solve", failing)
        forced = solve_many(problems)
        assert any(k > 1 for k in refused)
        for k, (a, b) in enumerate(zip(forced, plain)):
            if len(problems[k].channels) == singular_width:
                assert a.iterations == 1 and not a.gap <= sdp.DEFAULT_TOL
                with pytest.raises(SolverError, match="Newton step 1 of"):
                    solve(problems[k])
            else:
                assert_same_seed(a, b)


class TestCertificate:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_independent_recertification(self, n):
        # the Dykstra projection of a barrier seed stays put, and the bound
        # lifted from multipliers fitted to it lies within the reported gap
        for r in (0.12, 0.5, 0.9, 1.0):
            _, seed = mixed.solve_lm(n, r)
            problem = mixed.build_lm_problem(n, r)
            feas = project_feasible(problem, seed.blocks)
            assert objective(problem, feas) == pytest.approx(seed.objective, abs=1e-12)
            bound = repaired_bound(problem, fit_multipliers(problem, feas))
            assert seed.objective - 1e-12 <= bound <= seed.objective + seed.gap

    def test_congruence_repaired_primal_is_feasible(self, monkeypatch):
        problems = [n1_pure_problem()] + [mixed.build_lm_problem(n, r)
                                          for n, r in ((2, 0.3), (3, 0.8), (4, 1.0))]
        for problem in problems:
            for cap in (1, 3, 500):
                monkeypatch.setattr(sdp, "MAX_ITER", cap)
                try:
                    seed = solve(problem)
                except SolverError as exc:
                    seed = exc.seed
                assert seed.constraint_residual() <= 1e-12
                assert seed.min_eigenvalue() >= -1e-12


    def test_guard_lifts_indefinite_sector(self):
        # two labels with disjoint channels, scale 1; at y = 0.5 the first sector,
        # S = 0.5 - 2 w C with off-diagonals 1, is indefinite (lambda_min = 0.5 -
        # sqrt 2), the second, S = 0.5 - 0.25, is positive definite
        path = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.0]])
        problem = oracle.dense_seed_problem([((1, 1), 0, path, 1.0, (0, 2, 4)),
                                             ((0, 0), 0, np.array([[0.125]]), 1.0, (0,))])
        batch = sdp._Batch([problem])
        y = np.full((1, batch.nch + 1), 0.5)
        y[:, batch.nch] = 1.0
        with np.errstate(divide="ignore", invalid="ignore"):  # as in solve_many
            piv = batch.log_det(y[None], slice(None))[0][:, 0]
            _, _, bound, y_cert = batch.certify(y, np.ones(1), piv, slice(None))
        positive = (piv > 0).all(axis=0)
        assert positive.tolist() == [False, True]
        for k in range(batch.counts[0]):
            where = batch.gslot[:, k]
            S = np.diag(y_cert.ravel()[where]) - tridiagonal(batch.cd[:, k], batch.co[:, k])
            assert np.linalg.eigvalsh(S)[0] >= 0.0
            lifted = y_cert.ravel()[where] != y.ravel()[where]
            assert lifted.any() != positive[k]
        # the first sector's channels 0, 2, 4 are lifted by its Gershgorin deficit
        # 2 - 0.5; the dummy channel stays at 1
        assert y_cert[0].tolist() == [0.5, 2.0, 2.0, 2.0, 1.0]
        assert bound == [1 * 0.5 + (1 + 3 + 5) * 2.0]


class TestRankOneSeed:
    def test_n1_pure_seed(self):
        # the full sector m = 0 holds v = (1, sqrt 3), the optimum 1/sqrt(3); its
        # dual, lifted by 1e-12 scale, is certified by positive pivots, and
        # sdp.close takes that point, the one sector, with no Newton step
        p = n1_pure_problem()
        ((best, v, y, objective, bound, _, violated),) = sdp.rank_one([p])
        assert p.keys[best] == ((1, 1), 0)
        assert objective == pytest.approx(1 / math.sqrt(3), abs=1e-15)
        np.testing.assert_allclose(np.outer(v, v),
                                   np.outer([1, math.sqrt(3)], [1, math.sqrt(3)]), rtol=1e-15)
        assert np.abs(v * v - [1, 3]).max() <= 1e-15  # the other sectors are 0
        assert bound - objective == pytest.approx(1e-12 * p.scale * 4, rel=1e-3)
        assert not violated.any() and (sdp.slack_pivots(p, y) > 0.0).all()
        assert bound == pytest.approx(solve(p, tol=1e-10).objective, abs=1e-10)
        (closure,), ((key, v_closed, y_closed),) = sdp.close([[p]], 1e-10, [1.0])
        assert closure == ("closed_form", 0, 0, objective, bound, bound - objective)
        assert key == p.keys[best]
        assert v_closed.tolist() == v.tolist() and y_closed.tolist() == y.tolist()


class TestSeed:
    def test_feasibility_and_verification(self):
        seed = solve(n1_pure_problem(), tol=1e-8)
        assert seed.constraint_residual() <= 1e-8
        assert seed.min_eigenvalue() >= -1e-9

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
            oracle.dense_seed_problem([])

    def test_duplicate_keys(self):
        b = ((0, 0), 0, np.zeros((1, 1)), 1.0, (0,))
        with pytest.raises(ValueError):
            oracle.dense_seed_problem([b, b])

    def test_non_hermitian_cost(self):
        with pytest.raises(ValueError):
            oracle.dense_seed_problem([((0, 0), 0, np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0,
                                        (0, 2))])

    def test_non_tridiagonal_cost(self):
        cost = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 1.0], [0.5, 1.0, 0.0]])
        with pytest.raises(ValueError, match="tridiagonal"):
            oracle.dense_seed_problem([((0, 0), 0, cost, 1.0, (0, 2, 4))])
        oracle.dense_seed_problem([((0, 0), 0, np.triu(np.tril(cost, 1), -1), 1.0, (0, 2, 4))])

    def test_repeated_channel(self):
        with pytest.raises(ValueError, match="repeated"):
            oracle.dense_seed_problem([((0, 0), 0, np.zeros((2, 2)), 1.0, (2, 2))])

    def test_complex_cost(self):
        # Hermitian, and a diagonal phase maps it to the n = 1 pure problem (optimum
        # 1/sqrt(3)); the engine keeps real bands, so it must refuse the imaginary part
        cost = np.array([[0.0, 1j / 12], [-1j / 12, 0.0]])
        with pytest.raises(ValueError, match="not real"):
            oracle.dense_seed_problem([((0, 0), 0, cost, 1.0, (0, 2))])
        oracle.dense_seed_problem([((0, 0), 0, cost.real + 0j, 1.0, (0, 2))])

    def test_non_finite_cost(self):
        for bad in (math.nan, math.inf):
            cost = np.array([[0.0, 1 / 12], [1 / 12, bad]])
            with pytest.raises(ValueError, match="not finite"):
                oracle.dense_seed_problem([((0, 0), 0, cost, 1.0, (0, 2))])
            with pytest.raises(ValueError, match="not finite"):
                oracle.dense_seed_problem([((0, 0), 0, np.zeros((2, 2)), bad, (0, 2))])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            oracle.dense_seed_problem([((0, 0), 0, np.zeros((2, 2)), 1.0, (0,))])

    def test_non_positive_target(self):
        with pytest.raises(InfeasibleError):
            oracle.dense_seed_problem([((0, 0), 0, np.zeros((1, 1)), 1.0, (-2,))])

    def test_channel_without_rows(self, monkeypatch):
        # no sector row holds channel 2j = 4, so its diagonal sum is 0, never its
        # target 5; alone or in a batch, no Newton step runs
        p = oracle.dense_seed_problem([((1, 1), 0, np.array([[1, .5], [.5, -1]]), 1.0, (0, 2))])
        p.channels.append(((1, 1), 4))

        def not_reached(*args, **kwargs):
            raise AssertionError("a Newton loop ran on an infeasible problem")

        monkeypatch.setattr(sdp._Batch, "run", not_reached)
        for call in (lambda: solve(p), lambda: solve_many([n1_pure_problem(), p])):
            with pytest.raises(InfeasibleError, match=r"channel \(\(1, 1\), 4\)"):
                call()

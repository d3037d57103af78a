import json
import math
import tracemalloc

import numpy as np
import pytest

from qclass import blocks as blk
from qclass import machines, mixed, oracle, sdp, su2
from qclass.blocks import BlockLabel, SpectrumParams
from qclass.su2 import HalfInteger, triangle_ok

S3 = math.sqrt(3.0)


def gamma_from_conditioning(label, r):
    """Dense tr over the data qubit of [up](sigma0 - sigma1), coupled basis."""
    ta, tc = label.jA.twice_value, label.jC.twice_value
    dA, dC = ta + 1, tc + 1
    s0, s1 = oracle._sigma_pair_block(label, r)
    diff = (s0 - s1).reshape(dA, 2, dC, dA, 2, dC)[:, 1, :, :, 1, :]
    V = oracle.coupling_isometry(ta, tc)
    return V @ diff.reshape(dA * dC, dA * dC) @ V.T


def trace_norm_loop(ta, tc, aA, aC):
    """Block trace norm one total momentum at a time: the reference for the
    vectorized ``mixed._label_trace_norm``."""
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
            t2 = mixed._recoupling_cos2(ta, tc, tJ)
            disc = math.sqrt((a - b) ** 2 + 4.0 * a * b * (1.0 - t2))
            total += mult * (abs(c + 0.5 * ((a - b) + disc)) + abs(c + 0.5 * ((a - b) - disc)))
    return total


class TestGammaUpMixed:
    def test_pure_limit_recovers_balanced_form(self):
        for n in (1, 2, 3):
            label = BlockLabel(HalfInteger(n), HalfInteger(n))
            gm = mixed.gamma_up_mixed(label, 1.0)
            jzA, jzC = blk.coupled_jz(label, "A"), blk.coupled_jz(label, "C")
            scale = 1.0 / ((n + 1) ** 2 * (n + 2))  # (Jz_A - Jz_C) / (d_n^2 d_{n+1})
            assert list(gm.sectors) == list(jzA.sectors) and gm.index == jzA.index
            for tm, g in gm.sectors.items():
                np.testing.assert_allclose(g, scale * (jzA.sectors[tm] - jzC.sectors[tm]),
                                           atol=1e-13)

    def test_traceless(self):
        for ta, tc in ((1, 1), (2, 0), (3, 1)):
            label = BlockLabel(HalfInteger(ta), HalfInteger(tc))
            g = mixed.gamma_up_mixed(label, 0.7)
            assert g.trace() == pytest.approx(0.0, abs=1e-13)

    def test_hand_value_n1(self):
        # r <Jz>/(j (j+1)) = 0.5*0.25/0.75 on each side, scale 1/8, element 1/2 each
        label = BlockLabel.of("1/2", "1/2")
        g = mixed.gamma_up_mixed(label, 0.5)
        assert g.sectors[0][1, 0] == pytest.approx(1 / 48, abs=1e-14)
        assert g.sectors[0][1, 0] == pytest.approx(0.020833, abs=1e-6)

    @pytest.mark.parametrize("ta,tc", [(1, 1), (2, 2), (2, 0), (0, 2), (3, 1), (4, 2)])
    @pytest.mark.parametrize("r", [0.3, 0.7, 1.0])
    def test_matches_dense_conditioning(self, ta, tc, r):
        label = BlockLabel(HalfInteger(ta), HalfInteger(tc))
        np.testing.assert_allclose(gamma_from_conditioning(label, r),
                                   oracle.coupled_dense(mixed.gamma_up_mixed(label, r)),
                                   atol=1e-10)

    def test_kappa_reads_one_side(self, monkeypatch):
        # alpha_j and kappa_j of one side are the lane spectrum's bit for bit, read
        # from that side's spectrum alone: neither they nor Gamma call block_weights
        rs = [1e-12, 1e-9] + np.linspace(0.025, 1.0, 39).tolist()
        spectra = [mixed._lane_spectrum(n, rs) for n in (199, 200)]

        def not_reached(params):
            raise AssertionError("block_weights called")

        monkeypatch.setattr(blk, "block_weights", not_reached)
        for spectrum in spectra:
            for tj in range(spectrum.n % 2, spectrum.n + 1, 2):
                alpha, kappa = zip(*(blk.side_fractions(tj, r) for r in rs))
                assert list(alpha) == spectrum.alpha[:, tj // 2].tolist()
                assert list(kappa) == spectrum.kappa[:, tj // 2].tolist()
        for ta, tc in ((1, 1), (0, 2), (3, 5), (6, 2)):
            mixed.gamma_up_mixed(label_of(ta, tc), 0.7)


class TestBlockTraceNorms:
    @pytest.mark.parametrize("r", [0.2, 0.55, 0.9, 1.0])
    def test_spectral_equals_dense(self, r):
        for ta in range(0, 7):
            for tc in range(ta % 2, 7, 2):
                label = BlockLabel(HalfInteger(ta), HalfInteger(tc))
                params = SpectrumParams(max(ta, tc) + 2, r)
                dense = blk.trace_norm(oracle.average_state_diff_mixed(label, params))
                assert mixed.block_trace_norm(label, r) == pytest.approx(dense, abs=1e-12)

    def test_recoupling_cosine_matches_6j(self):
        for ta in range(1, 41):
            for tc in range(41):
                for tJ in range(abs(ta + 1 - tc), ta + tc + 2, 2):
                    if not (triangle_ok(ta + 1, tc, tJ) and triangle_ok(ta - 1, tc, tJ)):
                        continue
                    w6 = su2.wigner_6j(HalfInteger(ta), "1/2", HalfInteger(ta + 1),
                                       HalfInteger(tc), HalfInteger(tJ), HalfInteger(tc + 1))
                    assert mixed._recoupling_cos2(ta, tc, tJ) == pytest.approx(
                        (ta + 2) * (tc + 2) * w6 * w6, abs=1e-14)

    @pytest.mark.parametrize("r", [0.2, 0.7, 1.0])
    def test_vectorized_matches_loop(self, r):
        for ta in range(41):
            for tc in range(41):
                (aA, _), (aC, _) = blk.side_fractions(ta, r), blk.side_fractions(tc, r)
                assert mixed._label_trace_norm(ta, tc, aA, aC) == pytest.approx(
                    trace_norm_loop(ta, tc, aA, aC), abs=1e-14)

    def test_production_paths_skip_exact_coefficients(self):
        # the floor and the seed problem are built from closed forms alone
        for cached in (su2._cg_doubled, su2._w6j_doubled):
            cached.cache_clear()
        mixed.mixed_programmable_risk(6, 0.7)
        mixed.build_lm_problem(3, 0.6)
        assert su2._cg_doubled.cache_info().misses == 0
        assert su2._w6j_doubled.cache_info().misses == 0

    def test_probabilities(self):
        for n, r in [(1, 0.4), (4, 0.9), (7, 0.2)]:
            probs = mixed.block_probabilities(n, r)
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
            assert len(probs) == ((2 * n + 3 + (1 if n % 2 == 0 else -1)) // 4) ** 2


def floor_label_loop(n, r, weight_cutoff=1e-15):
    """The floor's bias summed over every label product, two-sided alphas per
    label: the reference for the pruned loop of ``mixed_programmable_risk``."""
    probs = mixed.block_probabilities(n, r)
    bias = 0.0
    for (ta, tc), p in probs.items():
        if ta > tc or p <= weight_cutoff:
            continue
        norm = mixed.block_trace_norm(BlockLabel(HalfInteger(ta), HalfInteger(tc)), r)
        bias += p * norm if ta == tc else (p + probs[(tc, ta)]) * norm
    return 0.5 - bias / 4.0


class TestMixedProgrammable:
    def test_bool_and_fractional_counts_refused(self):
        for risk in (mixed.lm_risk, mixed.mixed_programmable_risk):
            for bad in (2.5, True):
                with pytest.raises(ValueError, match="^qubit count must be an integer"):
                    risk(bad, 0.5)

    @pytest.mark.parametrize("n,r", [(1, 0.5), (6, 0.12), (7, 1.0), (40, 0.3), (300, 0.8),
                                     (1200, 0.95)])
    def test_pruned_floor_bit_identical(self, n, r, monkeypatch):
        # the block spectrum is read once: one spin_spectrum pass per side, at r
        calls = []
        real = blk.spin_spectrum

        def counting(tj, rs):
            calls.append((tj, list(rs)))
            return real(tj, rs)

        monkeypatch.setattr(blk, "spin_spectrum", counting)
        error = mixed.mixed_programmable_risk(n, r).error_probability
        assert calls == [(tj, [r]) for tj in range(n % 2, n + 1, 2)]
        monkeypatch.setattr(blk, "spin_spectrum", real)
        assert error == floor_label_loop(n, r)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 40, 160, 300])
    def test_lane_floor_matches_one_purity(self, n):
        # a lane's floors, all purities in one pass, are the one-purity floors
        # bit for bit, r = 1 included
        rs = [float(r) for r in mixed.SweepConfig(r_min=0.12, r_max=1.0, steps=23).r_grid()]
        assert rs[-1] == 1.0
        lane = mixed._floors(mixed._lane_spectrum(n, rs))
        assert lane == [mixed.mixed_programmable_risk(n, r).error_probability for r in rs]

    def test_pure_limit(self):
        for n in (1, 2, 3, 4, 5):
            rep = mixed.mixed_programmable_risk(n, 1.0)
            assert rep.error_probability == pytest.approx(
                machines.programmable_error_pure(n), abs=1e-12)

    @pytest.mark.parametrize("r", [0.1, 0.5, 0.8])
    def test_n1_analytic(self, r):
        # single block: bias r^2 / sqrt(3), risk r/3 - r^2/(4 sqrt 3)
        rep = mixed.mixed_programmable_risk(1, r)
        assert rep.excess_risk == pytest.approx(r / 3 - r * r / (4 * S3), abs=1e-12)

    def test_large_n_trend(self):
        # error approaches 1/2 - r/3 + 1/(3 r n)
        r = 0.8
        for n in (40, 80):
            rep = mixed.mixed_programmable_risk(n, r)
            model = 0.5 - r / 3 + 1 / (3 * r * n)
            assert rep.error_probability == pytest.approx(model, abs=0.3 / n ** 1.5 + 1e-4)

    def test_asymptotic_robustness_convergence(self):
        # n r R -> 1/3 with slow square-root corrections: 6.2% at n = 80,
        # 5.0% at n = 160; the deviation must shrink
        devs = [abs(3 * n * 0.8 * mixed.mixed_programmable_risk(n, 0.8).excess_risk - 1)
                for n in (20, 80, 160)]
        assert devs[2] < 0.05
        assert devs[2] < devs[0] < 0.08


class TestMixedLearningMachine:
    def test_n1_attains_floor(self):
        for r in np.linspace(0.1, 1.0, 10):
            lm, _ = mixed.solve_lm(1, float(r), tol=1e-8)
            opt = mixed.mixed_programmable_risk(1, float(r))
            assert lm.excess_risk == pytest.approx(opt.excess_risk, abs=1e-6)

    def test_pure_limit(self):
        for n in (1, 2, 3, 4, 5):
            rep, _ = mixed.solve_lm(n, 1.0, tol=1e-9)
            assert rep.error_probability == pytest.approx(machines.lm_error(n), abs=1e-7)

    def test_n2_gap_profile(self):
        # the two-copy machine sits strictly above the floor at intermediate
        # purity; measured peak gaps, each far above the SDP's certified
        # duality gap (solver_gap <= 1e-9 here): relative 4.15e-2, absolute 5.2e-3
        rel, ab = 0.0, 0.0
        for r in np.linspace(0.1, 1.0, 19):
            lm, _ = mixed.solve_lm(2, float(r), tol=1e-9)
            opt = mixed.mixed_programmable_risk(2, float(r))
            rel = max(rel, lm.excess_risk / opt.excess_risk - 1)
            ab = max(ab, lm.excess_risk - opt.excess_risk)
        assert rel == pytest.approx(0.0414, abs=0.002)
        assert ab == pytest.approx(0.0052, abs=0.0004)

    def test_dominates_floor(self):
        for n, r in [(2, 0.3), (3, 0.6), (4, 0.85)]:
            lm, _ = mixed.solve_lm(n, r, tol=1e-8)
            opt = mixed.mixed_programmable_risk(n, r)
            assert lm.excess_risk >= opt.excess_risk - 1e-7

    def test_report_fields(self):
        rep, _ = mixed.solve_lm(2, 0.7, tol=1e-8)
        assert rep.machine == "lm" and rep.method == "sdp"
        assert rep.solver_gap <= 1e-8


def label_of(ta, tc):
    return BlockLabel(HalfInteger(ta), HalfInteger(tc))


class TestLabelByLabelSolve:
    @pytest.mark.parametrize("r", [0.12, 0.3, 0.8, 1.0])
    def test_mirror_sector_identity(self, r):
        # the problem reuses C[(ta, tc), -tm] for C[(tc, ta), tm] when jA > jC; every
        # block, mirrors included, must match its label built directly, in label order
        for n in range(1, 9):
            probs = mixed.block_probabilities(n, r)
            want = []
            for label in mixed.block_labels(n):
                xi = (label.jA.twice_value, label.jC.twice_value)
                g = mixed.gamma_up_mixed(label, r)
                want += [(xi, tm, mat, g.index[tm], probs[xi]) for tm, mat in g.iter_sectors()]
            sectors = oracle.dense_seed_sectors(mixed.build_lm_problem(n, r))
            assert [key for key, *_ in sectors] == [(xi, tm) for xi, tm, *_ in want]
            for (_, channels, cost), (_, _, mat, want_channels, weight) in zip(sectors, want):
                assert channels == want_channels
                np.testing.assert_allclose(cost, 2.0 * weight * mat, rtol=0, atol=1e-16)

    @pytest.mark.parametrize("r", [0.3, 1.0])
    def test_bands_match_dense_builder(self, r):
        # the checked oracle builder, fed every label's dense block operator, gives
        # the problem the label bands give: same keys, channels and slots, same costs
        for n in range(1, 7):
            probs = mixed.block_probabilities(n, r)
            sectors = []
            for label in mixed.block_labels(n):
                xi = (label.jA.twice_value, label.jC.twice_value)
                g = mixed.gamma_up_mixed(label, r)
                sectors += [(xi, tm, mat, probs[xi], g.index[tm]) for tm, mat in g.iter_sectors()]
            dense, bands = oracle.dense_seed_problem(sectors), mixed.build_lm_problem(n, r)
            assert (dense.keys, dense.channels) == (bands.keys, bands.channels)
            np.testing.assert_array_equal(dense.slot, bands.slot)
            np.testing.assert_allclose(dense.diag, bands.diag, rtol=0, atol=1e-16)
            np.testing.assert_allclose(dense.off, bands.off, rtol=0, atol=1e-16)

    def test_unit_cost_independent_of_r(self):
        # labels with jA = jC or jA = 0 cost p_xi kappa_C(r) times one fixed matrix
        for n in (2, 3, 4, 5):
            labels = [(t, t) for t in range(n % 2, n + 1, 2)]
            labels += [(0, t) for t in range(2, n + 1, 2) if n % 2 == 0]
            for ta, tc in labels:
                (unit,) = mixed._label_bands(ta, tc, [(0.5, 1.0, 1.0)])  # kA = kC = 1
                dense = blk.tridiagonal(unit.diag, unit.off)
                for r in (0.12, 0.5, 0.9, 1.0):
                    g = mixed.gamma_up_mixed(label_of(ta, tc), r)
                    k = blk.side_fractions(tc, r)[1]
                    for s, (tm, mat) in enumerate(g.iter_sectors()):
                        np.testing.assert_allclose(mat, k * dense[s, -len(mat):, -len(mat):],
                                                   rtol=0, atol=1e-16)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_joint_solve(self, n):
        # both solves bracket the optimum: objective <= OPT <= bound; gaps that
        # round to a little below zero are counted as zero, plus 1e-12 rounding
        for r in (0.12, 0.5, 0.9, 1.0):
            _, seed = mixed.solve_lm(n, r)
            problem = mixed.build_lm_problem(n, r)
            joint = sdp.solve(problem)
            slack = max(seed.gap, 0.0) + max(joint.gap, 0.0) + 1e-12
            assert abs(seed.objective - joint.objective) <= slack
            # the assembled sectors, mirrors included, attain the assembled objective;
            # a sector the seed does not hold is 0
            attained = sum(float(np.vdot(cost, seed.blocks[key]))
                           for key, _, cost in oracle.dense_seed_sectors(problem)
                           if key in seed.blocks)
            assert attained == pytest.approx(seed.objective, abs=1e-12)
            assert seed.gap <= sdp.DEFAULT_TOL
            assert list(seed.sectors) == problem.keys
            assert set(seed.blocks) <= set(seed.sectors)
            assert set(seed.multipliers) == set(problem.channels)
            assert seed.constraint_residual() <= 1e-8 and seed.min_eigenvalue() >= -1e-9

    def test_r_independent_labels_solved_once(self, monkeypatch):
        # labels are counted where they enter the closed form, which every label
        # problem passes first; within one call the unit labels go once, (2, 4)
        # once per purity.  At n = 5, r = 0.1 label (1, 5) needs the barrier, and no
        # unit label enters an active-set round twice
        calls, rounds = [], []
        real_closed, real_many = sdp.rank_one, sdp.solve_many

        def closed(problems):
            calls.extend(problem.keys[0][0] for problem in problems)
            return real_closed(problems)

        def many(problems, *args, **kwargs):
            rounds.append([problem.keys[0][0] for problem in problems])
            return real_many(problems, *args, **kwargs)

        monkeypatch.setattr(sdp, "rank_one", closed)
        monkeypatch.setattr(sdp, "solve_many", many)
        config = mixed.SweepConfig(n_values=(4,), r_min=0.5, r_max=0.7, steps=2)
        mixed.run_sweep(config)
        assert sorted(calls) == [(0, 0), (0, 2), (0, 4), (2, 2), (2, 4), (2, 4), (4, 4)]
        calls.clear()
        rounds.clear()
        mixed.run_sweep(mixed.SweepConfig(n_values=(5,), r_min=0.1, r_max=0.2, steps=2))
        assert sorted(calls) == [(1, 1), (1, 3), (1, 3), (1, 5), (1, 5), (3, 3), (3, 5), (3, 5),
                                 (5, 5)]
        assert rounds and (1, 5) in rounds[0]
        for labels in rounds:
            unit = [xi for xi in labels if xi[0] in (0, xi[1])]
            assert len(unit) == len(set(unit))

    def test_zero_scale_labels_contribute_nothing(self, monkeypatch):
        # at r = 1 every label but (n, n) has p_xi = 0, and (0, 0) has kappa = 0;
        # (n, n) is the pure seed, certified in closed form, so no Newton loop runs
        loops = []
        real = sdp._Batch.run

        def counting(self, *args):
            loops.append(self.K)
            return real(self, *args)

        monkeypatch.setattr(sdp._Batch, "run", counting)
        for n in (2, 4):
            _, seed = mixed.solve_lm(n, 1.0)
            top = {k: X for k, X in seed.blocks.items() if k[0] == (n, n)}
            problem = mixed.build_lm_problem(n, 1.0)
            cost = {key: c for key, _, c in oracle.dense_seed_sectors(problem)}
            alone = sum(float(np.vdot(cost[k], X)) for k, X in top.items())
            assert seed.objective == pytest.approx(alone, abs=1e-12)
            assert 0.5 * (1 - seed.objective / 2) == pytest.approx(machines.lm_error(n), abs=1e-8)
        assert loops == []

    def test_failure_carries_assembled_seed(self, monkeypatch):
        monkeypatch.setattr(sdp, "MAX_ITER", 3)
        with pytest.raises(sdp.SolverError) as exc:
            mixed.solve_lm(5, 0.1, tol=1e-12)
        seed = exc.value.seed
        assert seed.gap > 1e-12
        assert list(seed.sectors) == mixed.build_lm_problem(5, 0.1).keys
        assert set(seed.blocks) <= set(seed.sectors)
        assert seed.constraint_residual() <= 1e-8

    @pytest.mark.parametrize("n, r, failing", [(1, 0.6, False), (3, 0.55, False),
                                               (4, 1.0, False), (5, 0.1, True)])
    def test_seed_laid_out_from_labels(self, monkeypatch, n, r, failing):
        # solve_lm takes its seed's layout from the block labels and never builds the
        # whole problem; the dump lists that problem's keys and channels in order,
        # and the residual is the sum over the problem, held sectors in its order
        def not_reached(*args, **kwargs):
            raise AssertionError("solve_lm built the whole problem")

        monkeypatch.setattr(mixed, "build_lm_problem", not_reached)
        if failing:
            monkeypatch.setattr(sdp, "MAX_ITER", 3)
            with pytest.raises(sdp.SolverError) as exc:
                mixed.solve_lm(n, r, tol=1e-12)
            seed = exc.value.seed
        else:
            _, seed = mixed.solve_lm(n, r)
        monkeypatch.undo()
        p = mixed.build_lm_problem(n, r)
        dumped = seed.to_json_dict()["blocks"]
        assert [(tuple(b["xi"]), b["twice_m"]) for b in dumped] == p.keys
        for k, b in enumerate(dumped):
            assert b["channels"] == [p.channels[c][1] for c in p.sector_slots(k)]
        held = [k for k, key in enumerate(p.keys) if key in seed.blocks]
        slots = np.concatenate([p.sector_slots(k) for k in held])
        diag = np.concatenate([np.diagonal(seed.blocks[p.keys[k]]).real for k in held])
        sums = np.bincount(slots, weights=diag, minlength=len(p.channels))
        residual = float(np.abs(sums - [tj + 1 for _, tj in p.channels]).max())
        assert seed.constraint_residual() == residual


def label_coeffs(n, r):
    """(label, (w, kA, kC)) of every solved label as a lane builds it; unit labels at unit cost."""
    probs, out = mixed.block_probabilities(n, r), []
    for ta in range(n % 2, n + 1, 2):
        for tc in range(ta, n + 1, 2):
            coeffs = (1.0, 1.0, 1.0) if ta in (0, tc) else (
                probs[ta, tc], blk.side_fractions(ta, r)[1], blk.side_fractions(tc, r)[1])
            out.append(((ta, tc), coeffs))
    return out


def label_problems(n, r):
    """(label, problem) of every solved label, as a lane builds them; unit labels at unit cost."""
    return [(xi, mixed._label_bands(*xi, [coeffs])[0]) for xi, coeffs in label_coeffs(n, r)]


def close_label(xi, coeffs, share):
    """Closure and seed of one label problem, closed by ``sdp.close`` on its own.

    The seed holds the sectors of the certified point, a closed form's one
    sector or those the barrier solved; a zero cost has no point and no seed.
    """
    (p,) = mixed._label_bands(*xi, [coeffs])
    ((closure, point),) = sdp.close([[(p, 1.0)]], share)
    if point is None:
        return closure, None
    if closure.how == "closed_form":
        key, v, y = point
        point = {key: np.outer(v, v)}, y
    blocks, y = point
    return closure, sdp.Seed(blocks, *closure[3:], closure.iterations, dict(zip(p.channels, y)),
                             p.layout())


def rank_one_dual(p):
    """The lifted dual of the rank-one point of one label problem, one multiplier per channel."""
    ((_, _, y, *_),) = sdp.rank_one([p])
    return y


def least_slack_eigenvalues(problem, multipliers):
    """Least eigenvalue of the dense S_m(y) = diag(y) - 2 w C_m of every sector."""
    return [float(np.linalg.eigvalsh(np.diag([multipliers[key[0], tj] for tj in channels])
                                     - cost)[0])
            for key, channels, cost in oracle.dense_seed_sectors(problem)]


class TestClosedFormSeeds:
    @pytest.mark.parametrize("r", [0.12, 0.5, 0.9, 1.0])
    def test_closed_form_labels_recertified(self, r):
        # every label the closed form closes (no Newton step): a dense eigensolver
        # finds S_m(y) positive semidefinite in every sector, the constraints hold,
        # and the barrier on the same label agrees within the two gaps
        closed = 0
        for n in range(1, 7):
            share = sdp.DEFAULT_TOL / len(mixed.block_labels(n))
            for xi, coeffs in label_coeffs(n, r):
                closure, seed = close_label(xi, coeffs, share)
                if closure.how != "closed_form":
                    continue
                (p,) = mixed._label_bands(*xi, [coeffs])
                closed += 1
                assert min(least_slack_eigenvalues(p, seed.multipliers)) >= -1e-12 * p.scale
                assert seed.constraint_residual() <= 1e-12
                (barrier,) = sdp.solve_many([p], share)
                assert 0.0 < seed.gap <= share and barrier.gap <= share
                assert abs(seed.objective - barrier.objective) <= seed.gap + barrier.gap
        assert closed >= 10

    def test_pure_limit_is_the_closed_form(self, monkeypatch):
        # at r = 1 only (n, n) has weight, and its closed form is the paper's seed:
        # sector m = 0, amplitudes sqrt(2j + 1); no Newton loop runs
        def not_reached(*args, **kwargs):
            raise AssertionError("barrier ran at r = 1")

        monkeypatch.setattr(sdp._Batch, "run", not_reached)
        for n in (1, 2, 5, 10, 20):
            rep = mixed.lm_risk(n, 1.0)
            assert rep.error_probability == pytest.approx(machines.lm_error(n), abs=1e-12)
            p = dict(label_problems(n, 1.0))[n, n]
            ((closure, (key, v, _)),) = sdp.close([[(p, 1.0)]], sdp.DEFAULT_TOL)
            assert closure.how == "closed_form" and key == ((n, n), 0)
            np.testing.assert_allclose(np.abs(np.outer(v, v)),
                                       np.outer(*[machines.lm_seed(n).coefficients] * 2),
                                       rtol=1e-15)

    def test_lowered_multiplier_refused(self):
        # each certified closed form of n = 4, r = 0.5 stops being certified once
        # any one of its multipliers is lowered by 1e-6
        certified = 0
        for xi, p in label_problems(4, 0.5):
            y = rank_one_dual(p)
            if p.scale == 0.0 or not (sdp.slack_pivots(p, y) > 0.0).all():
                continue
            certified += 1
            for c in range(len(y)):
                low = y.copy()
                low[c] -= 1e-6
                assert not (sdp.slack_pivots(p, low) > 0.0).all()
        assert certified == 5

    def test_active_set_matches_whole_label(self):
        # label (1, 5) at (5, 0.1) is not closed by its closed form; the barrier on
        # its active sectors agrees with the barrier on the whole label within the
        # two gaps, leaves the other sectors at 0, and its multipliers are
        # feasible in every sector
        n, r = 5, 0.1
        share = sdp.DEFAULT_TOL / len(mixed.block_labels(n))
        p = dict(label_problems(n, r))[1, 5]
        assert not (sdp.slack_pivots(p, rank_one_dual(p)) > 0.0).all()
        _, active = close_label((1, 5), dict(label_coeffs(n, r))[1, 5], share)
        (whole,) = sdp.solve_many([p], share)
        assert active.iterations > 0 and active.gap <= share and whole.gap <= share
        assert abs(active.objective - whole.objective) <= active.gap + whole.gap
        assert 0 < sum(X.any() for X in active.blocks.values()) < len(p.keys)
        assert min(least_slack_eigenvalues(p, active.multipliers)) >= -1e-12 * p.scale
        assert active.constraint_residual() <= 1e-12

    def test_violated_sectors_lifted_to_a_valid_bound(self):
        # a round that misses its share ends its label; the channels of each
        # violated sector are lifted by its Gershgorin deficit, which leaves every
        # S_m(y) positive semidefinite and the other channels as they were
        p = dict(label_problems(5, 0.1))[1, 5]
        y = rank_one_dual(p)
        violated = ~(sdp.slack_pivots(p, y) > 0.0).all(axis=0)
        lifted = y + sdp.gershgorin_lift(np.append(y, 1.0), p.slot, p.diag, p.off,
                                         violated)[:-1]
        touched = np.unique(np.concatenate([p.sector_slots(k) for k in np.flatnonzero(violated)]))
        assert (lifted[touched] > y[touched]).all()
        assert np.delete(lifted, touched).tolist() == np.delete(y, touched).tolist()
        assert min(least_slack_eigenvalues(p, dict(zip(p.channels, lifted)))) >= 0.0

    def test_unit_labels_judged_at_their_weight(self, monkeypatch):
        # a unit label's seed enters every row scaled by p_xi kappa_C <= 1, so its
        # closed form is judged at the largest such scale: at (44, 0.3) no unit label
        # whose closed form every pivot certifies goes to the barrier
        certified, sent = set(), []
        real_closed, real_many = sdp.rank_one, sdp.solve_many

        def closed(problems):
            points = real_closed(problems)
            certified.update(problem.keys[0][0] for problem, (*_, violated)
                             in zip(problems, points) if not violated.any())
            return points

        def many(problems, *args, **kwargs):
            sent.extend(problem.keys[0][0] for problem in problems)
            return real_many(problems, *args, **kwargs)

        monkeypatch.setattr(sdp, "rank_one", closed)
        monkeypatch.setattr(sdp, "solve_many", many)
        rep = mixed.lm_risk(44, 0.3)
        unit = {xi for xi in sent if xi[0] in (0, xi[1])}
        assert sent and certified and not unit & certified
        assert rep.solver_gap <= sdp.DEFAULT_TOL

    def test_label_seeds_hold_only_solved_sectors(self):
        # a closed-form label seed holds its one full sector and an active-set seed
        # the sectors its barrier solved, the others being 0; the assembled whole
        # seed lays out every sector of its problem and holds some of them
        (records,) = mixed._label_chunks(mixed._lane_spectrum(4, [0.5]), sdp.DEFAULT_TOL)
        closed = [(xi, point) for xi, ((closure, point, _),) in records  # one r
                  if closure.how == "closed_form"]
        problems = dict(label_problems(4, 0.5))
        for xi, point in closed:
            ((best, *_),) = sdp.rank_one([problems[xi]])
            assert point[0] == problems[xi].keys[best]
        assert len(closed) == 5
        n, r = 5, 0.1
        share = sdp.DEFAULT_TOL / len(mixed.block_labels(n))
        p = dict(label_problems(n, r))[1, 5]
        _, active = close_label((1, 5), dict(label_coeffs(n, r))[1, 5], share)
        assert active.iterations > 0 and set(active.blocks) < set(p.keys)
        assert active.constraint_residual() <= 1e-12
        _, seed = mixed.solve_lm(n, r)
        assert list(seed.sectors) == mixed.build_lm_problem(n, r).keys
        assert set(seed.blocks) <= set(seed.sectors)


FIG1 = mixed.SweepConfig(n_values=(1, 2, 3, 4), r_min=0.12, r_max=1.0, steps=23)


class TestChunks:
    def test_fig1_labels_close_without_newton(self):
        # every (label, r) of the benchmark's fig1 grid reports its closed form or a
        # zero cost, with no active-set round and no Newton step
        kinds = set()
        for n in FIG1.n_values:
            spectrum = mixed._lane_spectrum(n, [float(r) for r in FIG1.r_grid()])
            for parts in mixed._lm_parts(spectrum, FIG1.tol):
                for _, closure, _ in parts:
                    kinds.add(closure.how)
                    assert closure.rounds == closure.iterations == 0
        assert kinds == {"closed_form", "zero_cost"}

    def test_barrier_label_reports_its_rounds(self):
        # label (1, 5) at (5, 0.1) is closed by the barrier on its active sectors
        (parts,) = mixed._lm_parts(mixed._lane_spectrum(5, [0.1]), sdp.DEFAULT_TOL)
        closure = {xi: c for xi, c, _ in parts}[1, 5]
        assert closure.how == "barrier" and closure.rounds >= 1 and closure.iterations > 0

    def test_missed_share_lifts_violated_sectors(self, monkeypatch):
        # capped at 20 Newton steps, labels of (32, 0.8) leave the barrier above
        # their share; where the multipliers still violate sectors of the whole
        # label, those are lifted by their Gershgorin deficits, which leaves every
        # S_m(y) positive definite and the bound above the objective; the row fails
        monkeypatch.setattr(sdp, "MAX_ITER", 20)
        made, lifted = [], []
        real_bands, real_lift = mixed._label_bands, sdp.gershgorin_lift

        def bands(*args):
            out = real_bands(*args)
            made.extend(out)
            return out

        def lift(y, slot, diag, off, violated):
            out = real_lift(y, slot, diag, off, violated)
            # a whole label problem's own slot, not the barrier's certify guard
            lifted.extend((p, (y + out)[:-1]) for p in made if p.slot is slot)
            return out

        monkeypatch.setattr(mixed, "_label_bands", bands)
        monkeypatch.setattr(sdp, "gershgorin_lift", lift)
        (parts,) = mixed._lm_parts(mixed._lane_spectrum(32, [0.8]), sdp.DEFAULT_TOL)
        closures = {xi: c for xi, c, _ in parts}
        share = sdp.DEFAULT_TOL / len(mixed.block_labels(32))
        assert lifted
        for p, y in lifted:
            closure = closures[p.keys[0][0]]
            assert closure.how == "barrier" and closure.gap > share
            assert (sdp.slack_pivots(p, y) > 0.0).all()
            assert min(least_slack_eigenvalues(p, dict(zip(p.channels, y)))) >= -1e-12 * p.scale
            assert closure.bound >= closure.objective
        with pytest.raises(sdp.SolverError, match="at most 20 each"):
            mixed.lm_risk(32, 0.8)

    @pytest.mark.parametrize("n,r", [(5, 0.1), (8, 0.3), (24, 0.8)])
    def test_smallest_chunks_change_no_bit(self, n, r, monkeypatch):
        # every solved label in one chunk, then the labels of each jA in a chunk of
        # their own, the smallest chunk: the report and the assembled seed keep every
        # bit, so a certified point does not depend on the chunk that closed it
        chunks = []
        real = sdp.close

        def counting(groups, *args):
            groups = list(groups)
            chunks.append(len(groups))
            return real(groups, *args)

        monkeypatch.setattr(sdp, "close", counting)
        want = mixed.lm_risk(n, r), json.dumps(mixed.solve_lm(n, r)[1].to_json_dict())
        monkeypatch.setattr(mixed, "_CHUNK_ENTRIES", 1)
        got = mixed.lm_risk(n, r), json.dumps(mixed.solve_lm(n, r)[1].to_json_dict())
        groups = n // 2 + 1  # one per jA, the smallest chunk
        assert chunks == [groups] * 2 + [1] * (2 * groups)
        assert got == want

    def test_smallest_chunks_keep_sweep_rows(self, monkeypatch):
        # the n = 5 lane runs the barrier at small r; its rows keep every bit too
        config = mixed.SweepConfig(n_values=(4, 5), r_min=0.1, r_max=1.0, steps=10)
        want = mixed.run_sweep(config).to_csv()
        monkeypatch.setattr(mixed, "_CHUNK_ENTRIES", 1)
        assert mixed.run_sweep(config).to_csv() == want


def _peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_label_bands_built_in_the_solving_pass(self):
        # each label's Jz_A bands live only while its problems are built: the peak is
        # 3.4 MiB, and it was 7.8 MiB with a per-label cache of them kept through the call
        assert _peak_mib(lambda: mixed.lm_risk(32, 0.8)) <= 7

    def test_chunks_bound_the_peak(self):
        # only the barrier's problems keep their bands past the closed form, and no
        # chunk outlives its totals: the peak is 16.5 MiB, where holding every
        # label's bands and seeds to the end took 22.3 MiB
        assert _peak_mib(lambda: mixed.lm_risk(48, 0.8)) <= 19


class TestUnbalancedAsymptotic:
    def test_pure_factor(self):
        assert mixed.unbalanced_block_diff_asymptotic(50, 1.0).factor == 1.0

    def test_factor_value(self):
        chk = mixed.unbalanced_block_diff_asymptotic(50, 0.8)
        assert chk.factor == pytest.approx(0.8 * (1 - 0.2 / 32), abs=1e-15)
        assert chk.factor == pytest.approx(0.795, abs=1e-12)

    def test_probe_matches_factor(self):
        chk = mixed.unbalanced_block_diff_asymptotic(50, 0.8)
        assert chk.ratio == pytest.approx(chk.factor, abs=5e-3)
        assert chk.exact_norm == pytest.approx(chk.scaled_pure_norm, rel=5e-3)

    def test_delta_enters_at_higher_order(self):
        base = mixed.unbalanced_block_diff_asymptotic(64, 0.8, 0.0)
        for delta in (1.0, 2.0):
            shifted = mixed.unbalanced_block_diff_asymptotic(64, 0.8, delta)
            assert shifted.ratio == pytest.approx(base.factor, abs=5e-3)

    def test_expansion_flag(self):
        assert not mixed.unbalanced_block_diff_asymptotic(8, 0.3).expansion_valid
        assert mixed.unbalanced_block_diff_asymptotic(50, 0.8).expansion_valid

    @pytest.mark.parametrize("n,delta,side", [(4, -2.0, "A"), (1, -3.0, "A"), (4, 2.0, "C")])
    def test_emptied_side_refused(self, n, delta, side):
        with pytest.raises(ValueError, match=f"delta={delta} empties side {side} at n={n}$"):
            mixed.unbalanced_block_diff_asymptotic(n, 0.5, delta)

    @pytest.mark.parametrize("delta", [math.inf, -math.inf, math.nan])
    def test_nonfinite_delta_refused(self, delta):
        with pytest.raises(ValueError, match=f"^delta must be finite, got {delta}$"):
            mixed.unbalanced_block_diff_asymptotic(50, 0.8, delta)


class TestSweep:
    def small_config(self, tol=1e-7):
        return mixed.SweepConfig(n_values=(1, 2), r_min=0.2, r_max=1.0, steps=5, tol=tol)

    def test_rows_and_invariants(self):
        table = mixed.run_sweep(self.small_config())
        assert len(table.rows) == 10
        for row in table.rows:
            assert row.error is None
            assert row.rel_gap >= -1e-7
        n1 = [r for r in table.rows if r.n == 1]
        assert max(abs(r.R_lm - r.R_opt) for r in n1) < 1e-6

    def test_thread_determinism(self):
        a = mixed.run_sweep(self.small_config(), threads=1)
        b = mixed.run_sweep(self.small_config(), threads=2)
        assert [(r.n, r.r, r.R_lm, r.R_opt) for r in a.rows] \
            == [(r.n, r.r, r.R_lm, r.R_opt) for r in b.rows]

    def test_thread_determinism_shared_label(self):
        # label (2, 2) belongs to the n = 2 and the n = 4 lane; each lane
        # solves it itself, in one process at threads = 1 and in two at
        # threads = 2
        config = mixed.SweepConfig(n_values=(2, 4), r_min=0.3, r_max=1.0, steps=3)
        one = mixed.run_sweep(config, threads=1).to_csv()
        two = mixed.run_sweep(config, threads=2).to_csv()
        assert one == two

    def test_row_independent_of_its_batch(self):
        # a lane solves all its purities in one batch; each row must be what
        # solve_lm gives alone, and the same in the 23-step and 46-step grids
        coarse = mixed.run_sweep(mixed.SweepConfig(n_values=(3, 4), r_min=0.12, r_max=1.0,
                                                   steps=23))
        fine = mixed.run_sweep(mixed.SweepConfig(n_values=(3, 4), r_min=0.1, r_max=1.0,
                                                 steps=46))
        fine_rows = {(row.n, row.r): row for row in fine.rows}
        shared = [row for row in coarse.rows if (row.n, row.r) in fine_rows]
        assert len(shared) == 2 * 19
        for row in shared:
            assert row == fine_rows[row.n, row.r]
        for row in coarse.rows[::7]:
            lm, seed = mixed.solve_lm(row.n, row.r)
            assert (lm.excess_risk, seed.gap) == (row.R_lm, row.solver_gap)

    def test_one_newton_loop_per_lane(self, monkeypatch):
        # every open label of every r of a lane, unit labels included, goes to one
        # solve_many call per active-set round, and each round runs one loop;
        # zero costs ((0, 0), and p_xi = 0 off (n, n) at r = 1) need no loop.  On
        # the benchmark's grid every label of n <= 4 is certified in closed form,
        # so no round runs; at n = 5 the labels of r = 0.1 need the barrier
        rounds, loops = [], []
        real_many, real_run = sdp.solve_many, sdp._Batch.run

        def many(problems, *args, **kwargs):
            rounds.append(sum(problem.scale != 0.0 for problem in problems))
            return real_many(problems, *args, **kwargs)

        def counting(self, *args):
            loops.append(self.K)
            return real_run(self, *args)

        monkeypatch.setattr(sdp, "solve_many", many)
        monkeypatch.setattr(sdp._Batch, "run", counting)
        config = mixed.SweepConfig(n_values=(1, 2, 3, 4), r_min=0.12, r_max=1.0, steps=23)
        mixed.run_sweep(config)
        assert loops == []
        config = mixed.SweepConfig(n_values=(5,), r_min=0.1, r_max=1.0, steps=46)
        mixed._sweep_lane((5, config))
        assert loops and loops == [k for k in rounds if k]

    def test_fig1_sweep_sends_nothing_to_the_barrier(self, monkeypatch):
        # every label of the benchmark's grid closes in closed form or at zero
        # cost, so not even a zero cost reaches solve_many
        calls = []
        real = sdp.solve_many

        def many(problems, *args, **kwargs):
            calls.append(len(problems))
            return real(problems, *args, **kwargs)

        monkeypatch.setattr(sdp, "solve_many", many)
        mixed.run_sweep(FIG1)
        assert calls == []

    def test_lane_spectrum_built_once(self, monkeypatch):
        # the floor and the seed problems of a lane read one block spectrum: one
        # spin_spectrum pass per side of each lane, at every r of the benchmark's fig1 grid
        calls = []
        real = blk.spin_spectrum

        def counting(tj, rs):
            calls.append((tj, list(rs)))
            return real(tj, rs)

        monkeypatch.setattr(blk, "spin_spectrum", counting)
        config = mixed.SweepConfig(n_values=(1, 2, 3, 4), r_min=0.12, r_max=1.0, steps=23)
        rows = mixed.run_sweep(config).rows
        assert len(rows) == 92
        assert calls == [(tj, [row.r for row in rows if row.n == n])
                         for n in config.n_values for tj in range(n % 2, n + 1, 2)]

    def test_lane_builds_no_dense_problem(self, monkeypatch):
        # a lane reads its costs from the labels' bands alone
        config = mixed.SweepConfig(n_values=(3, 4), r_min=0.3, r_max=1.0, steps=4)
        want = mixed.run_sweep(config).to_csv()

        def not_reached(*args, **kwargs):
            raise AssertionError("dense route used")

        for module, name in ((mixed, "gamma_up_mixed"), (mixed, "build_lm_problem"),
                             (blk, "coupled_jz_sector"), (oracle, "dense_seed_problem")):
            monkeypatch.setattr(module, name, not_reached)
        assert mixed.run_sweep(config).to_csv() == want

    def test_pool_capped_at_core_count(self, monkeypatch):
        # a fake context records the requested pool size and maps in-process
        import multiprocessing

        sizes = []

        class FakePool:
            def __init__(self, size):
                sizes.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        class FakeContext:
            Pool = FakePool

        config = mixed.SweepConfig(n_values=(1, 2, 3), r_min=0.5, r_max=1.0, steps=2)
        serial = mixed.run_sweep(config, threads=1).to_csv()
        monkeypatch.setattr(multiprocessing, "get_context", lambda method: FakeContext)
        # the cores this process may use, not the host's: one allowed core of eight
        monkeypatch.setattr(mixed.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(mixed.os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert mixed.run_sweep(config, threads=1000).to_csv() == serial
        monkeypatch.setattr(mixed.os, "sched_getaffinity", lambda pid: {0, 5})
        assert mixed.run_sweep(config, threads=1000).to_csv() == serial
        # where the platform has no affinity, the host's count
        monkeypatch.delattr(mixed.os, "sched_getaffinity")
        monkeypatch.setattr(mixed.os, "cpu_count", lambda: 2)
        assert mixed.run_sweep(config, threads=1000).to_csv() == serial
        monkeypatch.setattr(mixed.os, "cpu_count", lambda: 1)
        assert mixed.run_sweep(config, threads=1000).to_csv() == serial
        assert sizes == [2, 2]

    def test_csv_format(self):
        table = mixed.run_sweep(self.small_config())
        text = table.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "n,r,R_lm,R_opt,rel_gap,solver_gap"
        assert len(lines) == 11
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == 0.2

    def test_solver_failure_recorded_and_sweep_continues(self, monkeypatch):
        monkeypatch.setattr(sdp, "MAX_ITER", 2)
        config = mixed.SweepConfig(n_values=(2,), r_min=0.3, r_max=0.7, steps=3, tol=1e-13)
        table = mixed.run_sweep(config)
        assert len(table.rows) == 3
        assert len(table.failures()) == 3
        for row in table.rows:
            assert math.isnan(row.R_lm)
            assert not math.isnan(row.R_opt)

    def test_thread_count_refused_below_one(self, monkeypatch):
        # refused before any lane runs, whoever calls: not only the CLI checks
        def not_reached(lane):
            raise AssertionError("a lane ran")

        monkeypatch.setattr(mixed, "_sweep_lane", not_reached)
        config = mixed.SweepConfig(n_values=(1,), steps=1)
        for bad in (0, -5, 1.5, True, None):
            with pytest.raises(ValueError, match="^threads must be an integer >= 1, got "):
                mixed.run_sweep(config, threads=bad)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            mixed.SweepConfig(steps=0)
        for bad in (2.5, True):  # a fractional count fails in r_grid, True ran as one step
            with pytest.raises(ValueError, match="^steps must be an integer >= 1, got "):
                mixed.SweepConfig(steps=bad)
        with pytest.raises(ValueError):
            mixed.SweepConfig(r_min=0.0)
        with pytest.raises(ValueError):
            mixed.SweepConfig(n_values=(0, 1))
        with pytest.raises(ValueError):
            mixed.SweepConfig(n_values=())
        for bad in (2.5, True):  # refused before any lane runs
            with pytest.raises(ValueError, match="^qubit count must be an integer"):
                mixed.run_sweep(mixed.SweepConfig(n_values=(bad,)))
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                mixed.SweepConfig(tol=tol)
        # a degenerate grid would solve one point steps times over
        with pytest.raises(ValueError, match="one step"):
            mixed.SweepConfig(r_min=0.5, r_max=0.5, steps=3)
        assert mixed.SweepConfig(r_min=0.5, r_max=0.5, steps=1).r_grid().tolist() == [0.5]

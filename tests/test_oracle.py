import math
import tracemalloc

import numpy as np
import pytest

from qclass import machines, mixed, oracle
from qclass.blocks import BlockLabel, IntegrityError, SpectrumParams
from qclass.oracle import (
    RandomSource, bloch_to_ket, build_average_states, coherent_ket, coupled_dense,
    coupling_isometry, ed_error_finite, haar_qubit, helstrom, partial_transpose, ppt_check,
    schur_isometries, simulate_lm,
)
from qclass.su2 import HalfInteger, multiplicity


class TestRandomness:
    def test_haar_isotropy(self):
        gen = RandomSource(1).generator()
        s = oracle._haar_bloch(gen, 10 ** 6)
        assert np.linalg.norm(s.mean(axis=0)) < 3 * math.sqrt(3 / 10 ** 6)
        assert np.abs(np.linalg.norm(s, axis=1) - 1).max() < 1e-12

    def test_haar_pair_distance(self):
        gen = RandomSource(2).generator()
        s0 = oracle._haar_bloch(gen, 10 ** 6)
        s1 = oracle._haar_bloch(gen, 10 ** 6)
        mean = float(np.linalg.norm(s0 - s1, axis=1).mean())
        assert mean == pytest.approx(4 / 3, abs=0.01)

    def test_seed_42_reproducible(self):
        a = haar_qubit(RandomSource(42))
        b = haar_qubit(RandomSource(42))
        np.testing.assert_array_equal(a, b)


class TestStateMaps:
    def test_bloch_roundtrip(self):
        gen = RandomSource(3).generator()
        s = oracle._haar_bloch(gen, 200)
        kets = bloch_to_ket(s)
        for sx, k in zip(s, kets):
            got = [float(np.real(np.conj(k) @ (oracle.PAULI[a] @ k))) for a in "xyz"]
            np.testing.assert_allclose(got, sx, atol=1e-12)

    def test_coherent_normalized(self):
        gen = RandomSource(4).generator()
        kets = bloch_to_ket(oracle._haar_bloch(gen, 50))
        for k in (1, 3, 6):
            amps = coherent_ket(k, kets)
            np.testing.assert_allclose(np.linalg.norm(amps, axis=1), 1.0, atol=1e-12)

    def test_coherent_up_is_last_basis_vector(self):
        amps = coherent_ket(4, np.array([0.0, 1.0 + 0j]))
        np.testing.assert_allclose(amps, np.eye(5)[-1], atol=1e-15)


class TestAverageStates:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pure_reproduces_closed_form(self, n):
        s0, s1 = build_average_states(n, n)
        assert np.trace(s0.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert helstrom(s0, s1) == pytest.approx(
            machines.programmable_error_pure(n), abs=1e-10)

    def test_unbalanced_port_pattern(self):
        s0, s1 = build_average_states(1, 0)
        assert helstrom(s0, s1) == pytest.approx(
            machines.programmable_error_unbalanced(1, 0), abs=1e-12)

    @pytest.mark.parametrize("r", [0.3, 0.7])
    def test_mixed_reproduces_block_sums(self, r):
        for n in (1, 2):
            s0, s1 = build_average_states(n, n, r=r)
            assert helstrom(s0, s1) == pytest.approx(
                mixed.mixed_programmable_risk(n, r).error_probability, abs=1e-10)

    def test_every_total_m_holds_a_sector(self):
        # jA x 1/2 x jC has a product state at each total m, so no sector is empty
        for ta in range(5):
            for tc in range(ta % 2, 5, 2):
                label = BlockLabel(HalfInteger(ta), HalfInteger(tc))
                diff = oracle.average_state_diff_mixed(label, SpectrumParams(max(ta, tc) + 2, 0.6))
                assert list(diff.sectors) == list(range(-(ta + tc + 1), ta + tc + 2, 2))
                assert len(diff.sectors) == ta + tc + 2
                assert sum(len(ix) for ix in diff.index.values()) == (ta + 1) * 2 * (tc + 1)
                assert all(diff.index.values())

    def test_covariance(self):
        s0, s1 = build_average_states(2, 2)
        ang = RandomSource(5).generator().random(2) * np.pi
        u = oracle._su2_elements(ang[:1], ang[1:])[0]
        W = schur_isometries(2)[2][0]
        full = np.kron(u, u)
        D = W.conj().T @ full @ W
        U = np.kron(np.kron(D, u), D)
        for op in (s0, s1):
            assert np.abs(U @ op.matrix @ U.conj().T - op.matrix).max() < 1e-10

    def test_commutes_with_total_jz(self):
        s0, _ = build_average_states(2, 2)
        jz1 = np.diag([-0.5, 0.5])
        jzA = np.diag([-1.0, 0.0, 1.0])
        Jz = (np.kron(np.kron(jzA, np.eye(2)), np.eye(3))
              + np.kron(np.kron(np.eye(3), jz1), np.eye(3))
              + np.kron(np.kron(np.eye(3), np.eye(2)), jzA))
        assert np.abs(Jz @ s0.matrix - s0.matrix @ Jz).max() < 1e-12

    def test_full_product_space_no_reduction(self):
        # rebuild the n = 3 pure averages on the raw 2^7 space: kron powers of
        # rotated kets only, no symmetric-subspace machinery at all
        alpha, beta, w = oracle._sphere_grid(24, 24)
        kets = oracle._su2_elements(alpha, beta)[:, :, 1]

        def avg_power(k):
            out = np.zeros((2 ** k, 2 ** k), complex)
            for q in range(len(w)):
                v = np.array([1.0], complex)
                for _ in range(k):
                    v = np.kron(v, kets[q])
                out += w[q] * np.outer(v, v.conj())
            return out

        s0 = np.kron(avg_power(4), avg_power(3))
        s1 = np.kron(avg_power(3), avg_power(4))
        assert helstrom(s0, s1) == pytest.approx(
            machines.programmable_error_pure(3), abs=1e-12)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            build_average_states(7, 7, r=0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_average_states(1, 1, r=0.0)
        for bad in (1.5, True):
            with pytest.raises(ValueError, match="^qubit count must be an integer"):
                build_average_states(bad, 1)

    @pytest.mark.parametrize("matrix, dims, error, match", [
        (np.eye(4) / 4, (2,), ValueError, "does not match dims"),
        (np.array([[0.5, 0.1], [0.0, 0.5]]), (2,), IntegrityError, "not Hermitian"),
        (np.eye(2) / 4, (2,), IntegrityError, "unit trace"),
    ], ids=["shape", "non-hermitian", "trace"])
    def test_dense_operator_refusals(self, matrix, dims, error, match):
        with pytest.raises(error, match=match):
            oracle.DenseOperator(matrix, dims)


def _twirl_per_point(k, single_qubit_diag, n_azimuth=24, n_polar=24):
    """Reference twirl: one grid point at a time, kron powers built one factor at a time."""
    alpha, beta, w = oracle._sphere_grid(n_azimuth, n_polar)
    us = oracle._su2_elements(alpha, beta)
    out = np.zeros((2 ** k, 2 ** k), complex)
    dvec = np.array([1.0])
    for _ in range(k):
        dvec = np.kron(dvec, single_qubit_diag)
    for q in range(len(w)):
        U = np.array([[1.0]], complex)
        for _ in range(k):
            U = np.kron(U, us[q])
        out += w[q] * (U * dvec) @ U.conj().T
    return out


class TestTwirl:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
    def test_matches_per_point_loop_bit_for_bit(self, k):
        pz = np.array([0.35, 0.65])
        got = oracle.twirl_product(k, pz)
        want = _twirl_per_point(k, pz)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_blocks_split_the_grid_without_changing_bits(self, monkeypatch):
        pz = np.array([0.1, 0.9])
        whole = oracle.twirl_product(3, pz, 7, 5)
        monkeypatch.setattr(oracle, "_TWIRL_BYTES", 4 * 16 * 8 * 8)  # 4 points per block
        split = oracle.twirl_product(3, pz, 7, 5)
        assert np.array_equal(split.view(np.uint64), whole.view(np.uint64))
        assert np.array_equal(whole.view(np.uint64),
                              _twirl_per_point(3, pz, 7, 5).view(np.uint64))

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            oracle.twirl_product(oracle.MAX_FULL_QUBITS + 1, np.array([0.5, 0.5]))

    def test_twirl_cap_refuses_before_allocating(self, monkeypatch):
        # one qubit past the cap is refused before the grid or any operator exists
        def no_grid(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(oracle, "_sphere_grid", no_grid)
        with pytest.raises(ValueError, match="cap"):
            oracle.twirl_product(oracle.MAX_TWIRL_QUBITS + 1, np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="cap"):
            oracle.build_average_states(oracle.MAX_TWIRL_QUBITS, 0, 0.5)


class TestHelstrom:
    def test_equal_states(self):
        rho = np.eye(4) / 4
        assert helstrom(rho, rho) == pytest.approx(0.5, abs=1e-14)

    def test_orthogonal_pure(self):
        a = np.diag([1.0, 0.0])
        b = np.diag([0.0, 1.0])
        assert helstrom(a, b) == pytest.approx(0.0, abs=1e-14)


class TestGammaConditioning:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pure_matches_blocks(self, n):
        s0, s1 = build_average_states(n, n)
        g_dense = oracle.conditioned_training_operator(
            s0.matrix - s1.matrix, s0.dims, data_axis=1)
        V = coupling_isometry(n, n)
        g = mixed.gamma_up_mixed(BlockLabel(HalfInteger(n), HalfInteger(n)), 1.0)
        np.testing.assert_allclose(V @ g_dense @ V.T, coupled_dense(g), atol=1e-10)

    @pytest.mark.parametrize("r", [0.3, 0.7])
    def test_mixed_matches_blocks_through_schur(self, r):
        # reduce the full 4-qubit training space with explicit Schur isometries
        # and compare every block against the conditioned operator
        n = 2
        s0, s1 = build_average_states(n, n, r=r)
        diff = s0.matrix - s1.matrix
        g_dense = oracle.conditioned_training_operator(diff, s0.dims, data_axis=n)
        schur = schur_isometries(n)
        probs = mixed.block_probabilities(n, r)
        for ta in (0, 2):
            for tc in (0, 2):
                WA, WC = schur[ta][0], schur[tc][0]
                V = np.kron(WA, WC)
                reduced = V.conj().T @ g_dense @ V
                label = BlockLabel(HalfInteger(ta), HalfInteger(tc))
                g = mixed.gamma_up_mixed(label, r)
                iso = coupling_isometry(ta, tc)
                full = coupled_dense(g)
                nu = (probs[(ta, tc)]
                      / (multiplicity(n, HalfInteger(ta))
                         * multiplicity(n, HalfInteger(tc))))
                want = nu * iso.T @ full @ iso
                np.testing.assert_allclose(reduced, want, atol=1e-10)


class TestSchur:
    def test_counts_refused(self):
        with pytest.raises(ValueError, match="^qubit count must be an integer, got 2.5$"):
            schur_isometries(2.5)
        with pytest.raises(ValueError, match="^need at least one qubit$"):
            schur_isometries(0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_isometries(self, k):
        schur = schur_isometries(k)
        total = 0
        for tj, paths in schur.items():
            assert len(paths) == multiplicity(k, HalfInteger(tj))
            for W in paths:
                np.testing.assert_allclose(W.conj().T @ W, np.eye(tj + 1), atol=1e-12)
                total += tj + 1
        assert total == 2 ** k
        # completeness: the union of all paths spans the space
        stack = np.hstack([W for paths in schur.values() for W in paths])
        np.testing.assert_allclose(stack @ stack.conj().T, np.eye(2 ** k), atol=1e-12)


class _NoDraws:
    """A random source that fails the test if anything draws from it."""

    seed = 0

    def generator(self):
        raise AssertionError("drew from the stream")


class TestSimulation:
    def test_n1_hits_closed_form(self):
        sim = simulate_lm(1, machines.lm_seed(1), RandomSource(42), trials=300_000)
        want = machines.programmable_error_pure(1)
        assert abs(sim.error_rate - want) <= 3 * sim.stderr

    def test_n3_hits_closed_form(self):
        sim = simulate_lm(3, machines.lm_seed(3), RandomSource(9), trials=100_000)
        want = machines.programmable_error_pure(3)
        assert abs(sim.error_rate - want) <= 3 * sim.stderr

    def test_quadrature_mode(self):
        sim = simulate_lm(1, machines.lm_seed(1), RandomSource(10), trials=150_000,
                          discretization="quadrature")
        want = machines.programmable_error_pure(1)
        assert abs(sim.error_rate - want) <= 3 * sim.stderr

    def test_deterministic(self):
        a = simulate_lm(1, machines.lm_seed(1), RandomSource(11), trials=20_000)
        b = simulate_lm(1, machines.lm_seed(1), RandomSource(11), trials=20_000)
        assert a.error_rate == b.error_rate

    def test_invalid_seed_rejected(self):
        bad = machines.SeedVector(n=1, coefficients=np.array([2.0, 2.0]))
        with pytest.raises(ValueError):
            simulate_lm(1, bad, RandomSource(1), trials=10)
        with pytest.raises(ValueError):
            simulate_lm(2, machines.lm_seed(1), RandomSource(1), trials=10)

    @pytest.mark.parametrize("batch", [0, -1])
    def test_batch_below_one_rejected_before_drawing(self, batch):
        with pytest.raises(ValueError, match="batch"):
            simulate_lm(1, machines.lm_seed(1), _NoDraws(), trials=10, batch=batch)

    @pytest.mark.parametrize("kwargs, match", [
        ({"trials": 1000.5}, "trials"),
        ({"trials": 1000.0}, "trials"),
        ({"batch": 1000.5}, "batch"),
        ({"pre_rotation": 2 * np.eye(2)}, "unitary"),   # scales the kets: 0.514, not about 0.36
        ({"pre_rotation": np.eye(3)}, "2x2"),
        ({"pre_rotation": np.eye(2)[:, :1]}, "2x2"),
        ({"trials": True}, "trials"),   # a bool is not a count, as check_count has it
        ({"batch": True}, "batch"),
    ])
    def test_malformed_inputs_rejected_before_drawing(self, kwargs, match):
        kwargs = {"trials": 1000, **kwargs}
        with pytest.raises(ValueError, match=match):
            simulate_lm(1, machines.lm_seed(1), _NoDraws(), **kwargs)

    def test_covariant_under_global_rotation(self):
        ang = np.array([0.9]), np.array([1.7])
        g = oracle._su2_elements(*ang)[0]
        base = simulate_lm(1, machines.lm_seed(1), RandomSource(12), trials=150_000)
        rot = simulate_lm(1, machines.lm_seed(1), RandomSource(12), trials=150_000,
                          pre_rotation=g)
        assert abs(base.error_rate - rot.error_rate) \
            <= 3 * math.hypot(base.stderr, rot.stderr)


class TestRandomStream:
    """Pinned error rates of fixed seeds.

    The rate is a count of errors, so any change to the draws, their order or
    a per-trial decision moves it.
    """

    @pytest.mark.parametrize("n, seed, trials, mode, rate", [
        (1, 42, 10 ** 6, "mc", 0.356149),         # crosses the 250k batch boundary
        (1, 10, 150_000, "quadrature", 0.3577),
        (3, 9, 100_000, "mc", 0.2647),
        (2, 5, 60_000, "quadrature", 0.29605),
    ])
    def test_pinned_error_rate(self, n, seed, trials, mode, rate):
        sim = simulate_lm(n, machines.lm_seed(n), RandomSource(seed), trials=trials,
                          discretization=mode)
        assert sim.error_rate == rate

    @pytest.mark.parametrize("n, seed, mode, batch, rotated, rate", [
        (1, 22, "mc", 15_000, False, 0.355775),         # batches of 15k, 15k and 10k
        (3, 24, "mc", 15_000, False, 0.2662),
        (1, 22, "quadrature", 15_000, False, 0.35435),
        (3, 24, "quadrature", 15_000, False, 0.267725),
        (1, 32, "mc", 250_000, True, 0.3531),
        (3, 34, "mc", 250_000, True, 0.2642),
        (1, 32, "quadrature", 250_000, True, 0.35875),
        (3, 34, "quadrature", 250_000, True, 0.264375),
    ])
    def test_pinned_batched_and_rotated_rate(self, n, seed, mode, batch, rotated, rate):
        g = oracle._su2_elements(np.array([0.9]), np.array([1.7]))[0] if rotated else None
        sim = simulate_lm(n, machines.lm_seed(n), RandomSource(seed), trials=40_000,
                          discretization=mode, pre_rotation=g, batch=batch)
        assert sim.error_rate == rate

    @pytest.mark.parametrize("mode", ["mc", "quadrature"])
    def test_chunk_size_does_not_change_the_result(self, monkeypatch, mode):
        def run():
            return simulate_lm(2, machines.lm_seed(2), RandomSource(3), trials=30_000,
                               discretization=mode, batch=12_000).error_rate

        whole = run()
        monkeypatch.setattr(oracle, "_CHUNK", 1_000)
        assert run() == whole

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_outcome_density_matches_coherent_amplitudes(self, n):
        # reference: the seed's pair weights against explicit coherent amplitudes
        w_pair = np.array([
            sum(float(c) * oracle._cg_doubled(n, tma, n, -tma, 2 * j, 0)
                for j, c in enumerate(machines.lm_seed(n).coefficients))
            for tma in range(-n, n + 1, 2)
        ])
        gen = RandomSource(n).generator()
        rot0, rot1 = (gen.standard_normal((500, 2)) + 1j * gen.standard_normal((500, 2))
                      for _ in range(2))
        a0, a1 = coherent_ket(n, rot0), coherent_ket(n, rot1)
        want = np.abs(np.einsum("i,qi,qi->q", w_pair, a0, a1[:, ::-1])) ** 2
        poly = w_pair * np.array([math.comb(n, i) for i in range(n + 1)])
        got = oracle._outcome_density(poly, rot0.T, rot1.T)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_grid_pick_clamps_to_last_point(self):
        u = np.full((4, 1), np.nextafter(1.0, 0.0))
        cdf = np.array([[0.25, 0.5, 1.0 - 2.0 ** -53],
                        [0.25, 0.5, 1.0 - 2.0 ** -52],   # ends below the largest draw
                        [0.25, 0.5, 1.0],
                        [0.25, 0.5, 0.5]])
        assert (cdf < u).sum(axis=1).tolist() == [2, 3, 2, 3]  # one past the grid unclamped
        assert oracle._grid_pick(cdf, u).tolist() == [2, 2, 2, 2]
        inner = np.array([[0.0], [0.25], [0.3], [0.5]])
        assert oracle._grid_pick(cdf, inner).tolist() == [0, 0, 1, 1]


class TestEstimateAndDiscriminate:
    def test_four_outcome_optimum(self):
        up = np.array([[0.0, 0.0], [0.0, 1.0]])
        dn = np.array([[1.0, 0.0], [0.0, 0.0]])
        plus = np.full((2, 2), 0.5)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
        res = ed_error_finite([up, dn], [plus, minus], 1)
        assert res.bias == pytest.approx(math.sqrt(2) / 3, abs=1e-13)
        assert res.error_probability == pytest.approx(machines.ed_error_n1_optimal(),
                                                      abs=1e-13)
        assert res.optimal_estimation

    def test_pinned_60_grid_bias(self):
        grid = oracle.continuous_ed_povm(1, n_azimuth=60, n_polar=60)
        assert ed_error_finite(grid, grid, 1, completeness_tol=1e-6).bias == 0.4444423669131474

    def test_stacked_povm_matches_list(self):
        grid = oracle.continuous_ed_povm(2, n_azimuth=9, n_polar=7)
        stacked = np.stack(grid)
        assert ed_error_finite(stacked, grid, 2, completeness_tol=1e-6) \
            == ed_error_finite(grid, grid, 2, completeness_tol=1e-6)

    def test_wrong_element_shape_rejected(self):
        with pytest.raises(ValueError):
            ed_error_finite(np.eye(2)[None], [np.eye(3)], 1)
        with pytest.raises(ValueError):
            ed_error_finite([], [np.eye(2)], 1)

    def test_continuous_quadrature_limit(self):
        grid = oracle.continuous_ed_povm(1, n_azimuth=100, n_polar=100)
        res = ed_error_finite(grid, grid, 1, completeness_tol=1e-6)
        assert res.bias == pytest.approx(4 / 9, abs=2e-3)

    @pytest.mark.parametrize("n", [2, 3])
    def test_continuous_closed_form_larger_n(self, n):
        grid = oracle.continuous_ed_povm(n, n_azimuth=60, n_polar=60)
        res = ed_error_finite(grid, grid, n, completeness_tol=1e-6)
        assert res.error_probability == pytest.approx(
            machines.ed_error_continuous(n), abs=2e-3)

    def test_conditioned_bloch_shrinks_by_eta(self):
        for n in (1, 2, 3):
            povm = oracle.coherent_povm(n, np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]),
                                        weights=np.array([(n + 1) / 2, (n + 1) / 2]))
            _, blochs = oracle._conditioned_bloch(povm, n)
            np.testing.assert_allclose(np.linalg.norm(blochs, axis=1),
                                       machines.ed_shrink_factor(n), atol=1e-12)

    def test_single_outcome_no_information(self):
        res = ed_error_finite([np.eye(2)], [np.eye(2)], 1)
        assert res.bias == 0.0
        assert res.error_probability == 0.5
        assert not res.optimal_estimation

    def test_incomplete_povm_rejected(self):
        with pytest.raises(ValueError):
            ed_error_finite([np.eye(2) / 2], [np.eye(2)], 1)


    @pytest.mark.parametrize("tile_bytes", [None, 24_000])
    @pytest.mark.parametrize("swap", [False, True])
    def test_tiled_bias_matches_untiled_blocks(self, monkeypatch, tile_bytes, swap):
        # 63 outcomes against 600: neither a multiple of a tile or of _ED_ROWS
        small = oracle.continuous_ed_povm(2, n_azimuth=9, n_polar=7)
        large = oracle.continuous_ed_povm(2, n_azimuth=30, n_polar=20)
        M, Mp = (large, small) if swap else (small, large)
        (p0, r0), (p1, r1) = (oracle._conditioned_bloch(P, 2) for P in (M, Mp))
        want, rows = 0.0, oracle._ED_ROWS
        for lo in range(0, len(p0), rows):
            sep = np.subtract.outer(r0[lo:lo + rows, 0], r1[:, 0]) ** 2
            for x in (1, 2):
                dx = np.subtract.outer(r0[lo:lo + rows, x], r1[:, x])
                dx *= dx
                sep += dx
            np.sqrt(sep, out=sep)
            want += float(p0[lo:lo + rows] @ sep @ p1)
        if tile_bytes is not None:  # 5 rows of 600 separations, 47 of 63
            monkeypatch.setattr(oracle, "_ED_TILE_BYTES", tile_bytes)
        assert ed_error_finite(M, Mp, 2, completeness_tol=1e-6).bias == want

    @pytest.mark.parametrize("nan_or_negative", [math.nan, math.inf, -1e-8])
    def test_completeness_tol_must_be_finite_and_non_negative(self, nan_or_negative):
        with pytest.raises(ValueError, match="completeness_tol"):
            ed_error_finite([0.3 * np.eye(2)], [np.eye(2)], 1, completeness_tol=nan_or_negative)

    @pytest.mark.parametrize("n", [1, 3])
    def test_coherent_povm_matches_outer_products(self, n):
        gen = RandomSource(n).generator()
        s = oracle._haar_bloch(gen, 40)
        amps = coherent_ket(n, bloch_to_ket(s))
        for weights in (None, gen.random(40)):
            w = np.full(40, (n + 1) / 40) if weights is None else weights
            want = np.stack([c * np.outer(a, a.conj()) for c, a in zip(w, amps)])
            got = oracle.coherent_povm(n, s, weights=weights)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("weights", [[1.0, 1.0], [1.0] * 4, [[1.0]] * 3])
    def test_coherent_povm_needs_one_weight_per_direction(self, weights):
        directions = np.eye(3)
        with pytest.raises(ValueError, match="one weight per direction"):
            oracle.coherent_povm(1, directions, weights=np.array(weights))


class TestPartialTranspose:
    def test_product_operator(self):
        A = np.array([[1.0, 0.3], [0.3, -0.5]])
        B = np.array([[0.2, 0.7j], [-0.7j, 1.0]])
        got = partial_transpose(np.kron(A, B), (2, 2), axis=1)
        np.testing.assert_allclose(got, np.kron(A, B.T), atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_optimal_element_is_ppt(self, n):
        assert ppt_check(n) >= -1e-10

    def test_bare_projector_is_not_ppt(self):
        # the kernel completion carries the property: the bare positive-part
        # projector fails transposition positivity by a finite margin
        assert ppt_check(1, kernel_weight=0.0) < -0.4


def _peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


class TestMemory:
    """Peak traced allocations of the oracle kernels stay bounded."""

    def test_simulation_mc(self):
        assert _peak_mib(lambda: simulate_lm(1, machines.lm_seed(1), RandomSource(9),
                                             trials=200_000)) <= 96

    def test_simulation_quadrature(self):
        # a batch holds kets, label and p_up; the rest is one chunk's grid arithmetic
        assert _peak_mib(lambda: simulate_lm(1, machines.lm_seed(1), RandomSource(10),
                                             trials=100_000,
                                             discretization="quadrature")) <= 28

    def test_ed_60_grid(self):
        grid = oracle.continuous_ed_povm(1, n_azimuth=60, n_polar=60)
        assert _peak_mib(lambda: ed_error_finite(grid, grid, 1, completeness_tol=1e-6)) <= 64

    def test_simulation_mc_holds_each_trial_once(self):
        # kets, label and p_up of 200k trials plus one round's draws: about 23 MiB
        assert _peak_mib(lambda: simulate_lm(1, machines.lm_seed(1), RandomSource(9),
                                             trials=200_000)) <= 32

    def test_ed_60_grid_tiles_the_separations(self):
        grid = oracle.continuous_ed_povm(1, n_azimuth=60, n_polar=60)
        assert _peak_mib(lambda: ed_error_finite(grid, grid, 1, completeness_tol=1e-6)) <= 24

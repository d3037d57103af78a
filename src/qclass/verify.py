"""Named verification suites behind the command-line ``verify`` subcommand.

Each check re-runs an invariant of one module and reports
{id, detail, expected, got, tol, pass}.  A check's tolerance is fixed by
the check, or by its suite's gate, and no caller overrides it.  All
randomness derives from the single seed argument, so reports are
byte-identical across runs.
"""
from __future__ import annotations

import math

import numpy as np

from . import blocks as blk
from . import machines, mixed, oracle
from .blocks import BlockLabel, SpectrumParams
from .su2 import HalfInteger, clebsch_gordan, multiplicity, recoupling_overlap, wigner_6j

# suite x runs x_suite, looked up at each run, so a suite rebound on the module runs rebound
SUITES = ("su2", "blocks", "machines", "mixed", "oracle")


def _check(cid: str, detail: str, expected, got, tol: float) -> dict:
    if isinstance(expected, bool):
        ok = bool(got) == expected
    else:
        ok = abs(got - expected) <= tol
    return {"id": cid, "detail": detail, "expected": expected, "got": got,
            "tol": tol, "pass": bool(ok)}


def su2_suite(seed: int = 0) -> list[dict]:
    checks, tol = [], 1e-12  # this suite's gate where a check names none
    dev = max(
        abs(clebsch_gordan(1, 0, "1/2", "1/2", "3/2", "1/2") - math.sqrt(2 / 3)),
        abs(clebsch_gordan(1, 0, "1/2", "1/2", "1/2", "1/2") + math.sqrt(1 / 3)),
        abs(clebsch_gordan(0, 0, 0, 0, 0, 0) - 1.0),
        abs(clebsch_gordan(1, 0, "1/2", "1/2", "3/2", "1/2") ** 2 - 2 / 3),
    )
    checks.append(_check("cg_pinned_values", "spin-1 x spin-1/2 coefficients", 0.0, dev, tol))

    rng = np.random.Generator(np.random.PCG64(seed + 1))
    worst = 0.0
    for _ in range(200):
        tj1, tj2 = int(rng.integers(0, 9)), int(rng.integers(0, 9))
        tm1 = -tj1 + 2 * int(rng.integers(0, tj1 + 1))
        tm2 = -tj2 + 2 * int(rng.integers(0, tj2 + 1))
        tot = sum(
            clebsch_gordan(HalfInteger(tj1), HalfInteger(tm1), HalfInteger(tj2),
                           HalfInteger(tm2), HalfInteger(tJ), HalfInteger(tm1 + tm2)) ** 2
            for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
        )
        worst = max(worst, abs(tot - 1.0))
    checks.append(_check("cg_orthonormality", "sum_J CG^2 = 1 over random couplings",
                         0.0, worst, tol))

    dev6 = max(
        abs(wigner_6j(0, 0, 0, 0, 0, 0) - 1.0),
        abs(wigner_6j("1/2", "1/2", 1, "1/2", "1/2", 0) - 0.5),
        abs(wigner_6j("1/2", "1/2", 1, "1/2", "1/2", 1) - 1 / 6),
    )
    checks.append(_check("w6j_pinned_values", "two-pair recoupling symbols", 0.0, dev6, tol))

    worst = 0.0
    for _ in range(60):
        tj1, tj2, tj3, tJ = (int(rng.integers(0, 7)) for _ in range(4))
        t23s = [t for t in range(abs(tj2 - tj3), tj2 + tj3 + 1, 2)]
        for t23 in t23s:
            for t23p in t23s:
                s = sum(
                    (t12 + 1) * (t23 + 1)
                    * wigner_6j(*[HalfInteger(x) for x in (tj1, tj2, t12, tj3, tJ, t23)])
                    * wigner_6j(*[HalfInteger(x) for x in (tj1, tj2, t12, tj3, tJ, t23p)])
                    for t12 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
                )
                want = 1.0 if (t23 == t23p and _w6j_nonzero(tj1, tj2, tj3, tJ, t23)) else 0.0
                worst = max(worst, abs(s - want))
    checks.append(_check("w6j_orthogonality", "recoupling-matrix unitarity",
                         0.0, worst, 1e-10))

    worst = 0.0
    for n in range(1, 11):
        worst = max(worst, abs(recoupling_overlap(n, n, +1) - 1.0))
        for j in range(0, n):
            s = recoupling_overlap(n, j, +1) ** 2 + recoupling_overlap(n, j + 1, -1) ** 2
            worst = max(worst, abs(s - 1.0))
    checks.append(_check("recoupling_unitarity", "same-total-momentum column norms",
                         0.0, worst, tol))

    dev = max(abs(recoupling_overlap(1, 1, -1) - 0.5),
              abs(recoupling_overlap(2, 1, +1) - math.sqrt(5 / 6)))
    checks.append(_check("recoupling_pinned_values", "three-qubit overlaps", 0.0, dev, tol))

    worst = max(
        abs(sum(multiplicity(n, HalfInteger(tj)) * (tj + 1)
                for tj in range(n % 2, n + 1, 2)) - 2 ** n)
        for n in range(1, 21)
    )
    checks.append(_check("multiplicity_dimension_sum", "sum nu_j (2j+1) = 2^n, n <= 20",
                         0.0, worst, 0.0))
    return checks


def _w6j_nonzero(tj1, tj2, tj3, tJ, t23) -> bool:
    from .su2 import triangle_ok
    return triangle_ok(tj2, tj3, t23) and triangle_ok(tj1, t23, tJ) \
        and any(triangle_ok(tj1, tj2, t12) and triangle_ok(t12, tj3, tJ)
                for t12 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2))


def blocks_suite(seed: int = 0) -> list[dict]:
    checks, tol = [], 1e-12  # this suite's gate where a check names none
    worst = 0.0
    for n in (1, 4, 9, 14, 20):
        for r in (0.1, 0.5, 0.9, 1.0):
            ws = blk.block_weights(SpectrumParams(n, r))
            worst = max(worst, abs(sum(w.p for w in ws) - 1.0))
            worst = max(worst, max(abs(w.a.sum() - 1.0) for w in ws))
    checks.append(_check("weights_normalized", "block weights and probabilities sum to 1",
                         0.0, worst, tol))

    worst = max(abs(blk.block_weights(SpectrumParams(n, 1.0))[-1].p - 1.0)
                for n in range(1, 21))
    checks.append(_check("pure_source_collapse", "top block carries all weight at r = 1",
                         0.0, worst, 1e-9))

    dev = max(abs(blk.jz_expectation("1/2", 0.5) - 0.25),
              abs(blk.jz_expectation(10, 0.8) - (10 - 0.2 / 1.6)))
    checks.append(_check("jz_expectation_pinned", "mean magnetic number values", 0.0, dev, tol))

    worst = 0.0
    for tj in (1, 2, 4, 6):
        for r in (0.1, 0.5, 0.9, 1.0):
            label = BlockLabel(HalfInteger(tj), HalfInteger(tj))
            dm = oracle.average_state_diff_mixed(label, SpectrumParams(tj + 2, r))
            dp = oracle.average_state_diff_pure(tj)
            fac = blk.side_fractions(tj, r)[0]
            for tm in dm.sectors:
                worst = max(worst, float(np.abs(dm.sectors[tm] - fac * dp.sectors[tm]).max()))
    checks.append(_check("equal_momentum_identity",
                         "matched-block difference is a scaled pure difference",
                         0.0, worst, tol))

    label = BlockLabel.of("1/2", "1/2")
    jz = blk.coupled_jz(label, "A")
    dev = max(abs(jz.sectors[0][1, 0] - 0.5), abs(jz.sectors[2][0, 0] - 0.5),
              abs(jz.sectors[-2][0, 0] + 0.5), abs(jz.trace()))
    checks.append(_check("coupled_jz_pinned", "one-qubit-pair matrix elements", 0.0, dev, 1e-12))

    dev = max(
        abs(blk.trace_norm(oracle.average_state_diff_pure(n))
            - (2.0 - 4.0 * machines.programmable_error_pure(n)))
        for n in (1, 2, 3)
    )
    checks.append(_check("pure_difference_norms", "trace norms match the error closed form",
                         0.0, dev, 1e-12))

    xs = np.linspace(1e-3, 1 - 1e-3, 2001)
    vals = np.array([blk.asymptotic_block_distribution(200, 0.7, float(x)) for x in xs])
    argmax = float(xs[int(np.argmax(vals))])
    integral = float(((vals[1:] + vals[:-1]) / 2 * np.diff(xs)).sum())
    checks.append(_check("distribution_peak", "continuum block density peaks at x = r",
                         0.7, argmax, 0.02))
    checks.append(_check("distribution_mass", "continuum block density integrates to 1",
                         1.0, integral, 0.05))
    return checks


def machines_suite(seed: int = 0) -> list[dict]:
    checks, tol = [], 1e-12  # this suite's gate where a check names none
    worst = max(abs(machines.lm_error(n) - machines.programmable_error_pure(n))
                for n in range(1, 21))
    checks.append(_check("lm_equals_opt_n1_20",
                         "machine with classical memory attains the joint-measurement floor",
                         0.0, worst, tol))

    s3 = math.sqrt(3.0)
    s2 = math.sqrt(2.0)
    dev = max(
        abs(machines.lm_error(1) - (6 - s3) / 12),
        abs(machines.lm_error(1) - 1 / 6 - (4 - s3) / 12),
        abs((2 - 4 * machines.lm_error(1)) - 1 / s3),
        abs(machines.ed_error_n1_optimal() - 1 / 6 - (4 - s2) / 12),
        abs((2 - 4 * machines.ed_error_n1_optimal()) - s2 / 3),
    )
    checks.append(_check("n1_anchor_values", "single-copy error and risk anchors",
                         0.0, dev, tol))

    ordered = all(
        machines.lm_error(n) <= machines.ed_error_continuous(n) < machines.reversed_lm_error(n)
        for n in list(range(1, 21)) + [50, 200]
    )
    checks.append(_check("machine_ordering", "learning <= estimate-discriminate < reversed",
                         True, ordered, 0.0))
    checks.append(_check("ed_finite_beats_continuous_n1",
                         "four-outcome estimation beats continuous at n = 1", True,
                         machines.ed_error_n1_optimal() < machines.ed_error_continuous(1), 0.0))

    dev = max(abs(machines.reversed_lm_error(1) - 11 / 24),
              abs(machines.reversed_lm_error(10) - 0.5 * (1 - 10 / 66)),
              abs(machines.reversed_lm_error(100) - 0.5 * (1 - 100 / 606)))
    checks.append(_check("reversed_pinned_values", "data-first machine closed form",
                         0.0, dev, tol))

    dev = max(abs(blk.trace_norm(mixed.gamma_up_mixed(BlockLabel(HalfInteger(n), HalfInteger(n)),
                                                      1.0)) - n / (3 * (n + 1)))
              for n in range(1, 9))
    checks.append(_check("gamma_trace_norm", "conditioned-operator norm n/(3(n+1))",
                         0.0, dev, 1e-10))

    dev = max(abs(machines.memory_bound_bits(1) - math.log2(12)),
              abs(machines.memory_bound_bits(10) - math.log2(462)))
    checks.append(_check("memory_bound_values", "classical memory bound", 0.0, dev, tol))

    dev = max(abs(machines.programmable_error_unbalanced(n, n)
                  - machines.programmable_error_pure(n)) for n in range(0, 11))
    checks.append(_check("unbalanced_reduces_to_balanced", "equal sides recover the closed form",
                         0.0, dev, tol))

    # excess-risk scaling: the estimate-and-discriminate machine carries twice
    # the excess risk; the n^(-1/2) corrections die out slowly
    ratio4 = (machines.ed_error_continuous(10_000) - 1 / 6) \
        / (machines.programmable_error_pure(10_000) - 1 / 6)
    checks.append(_check("excess_risk_factor_two", "risk ratio at n = 10^4", 2.0, ratio4, 0.02))
    return checks


def _purity_scan(n: int, steps: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(R_lm, R_opt) at ``steps`` purities from 0.1 to 1 from one sweep lane; nan if unsolved."""
    config = mixed.SweepConfig(n_values=(n,), r_min=0.1, r_max=1.0, steps=steps, tol=tol)
    rows = mixed.run_sweep(config).rows
    return np.array([row.R_lm for row in rows]), np.array([row.R_opt for row in rows])


def mixed_suite(seed: int = 0) -> list[dict]:
    checks, tol = [], 1e-6  # this suite's gate where a check names none
    lm, opt = _purity_scan(1, 10, 1e-8)
    checks.append(_check("n1_lm_equals_opt", "single-copy machine attains the floor at any purity",
                         0.0, float(np.abs(lm - opt).max()), tol))

    lm, opt = _purity_scan(2, 19, 1e-9)
    rel_peak, abs_peak = float((lm / opt - 1.0).max()), float((lm - opt).max())
    checks.append(_check("n2_worst_gap_abs",
                         "two-copy worst excess-risk gap, absolute (percentage points)",
                         0.005, abs_peak, 0.002))
    checks.append(_check("n2_worst_gap_rel",
                         "two-copy worst excess-risk gap, relative to the floor",
                         0.0414, rel_peak, 0.002))

    worst = 0.0
    for ta, tc in ((1, 1), (2, 2), (2, 0), (3, 1)):
        for r in (0.3, 0.7, 1.0):
            label = BlockLabel(HalfInteger(ta), HalfInteger(tc))
            s0, s1 = oracle._sigma_pair_block(label, r)
            diff = oracle.conditioned_training_operator(s0 - s1, (ta + 1, 2, tc + 1), data_axis=1)
            V = oracle.coupling_isometry(ta, tc)
            g = oracle.coupled_dense(mixed.gamma_up_mixed(label, r))
            worst = max(worst, float(np.abs(V @ diff @ V.T - g).max()))
    checks.append(_check("gamma_matches_conditioning",
                         "block operator equals the data-conditioned difference",
                         0.0, worst, 1e-10))

    worst = max(abs(sum(mixed.block_probabilities(n, r).values()) - 1.0)
                for n in (1, 3, 6) for r in (0.2, 0.8))
    checks.append(_check("block_probabilities_normalized", "sum p_xi = 1", 0.0, worst, 1e-12))

    worst = max(
        abs(mixed.lm_risk(n, 1.0, tol=1e-9).error_probability - machines.lm_error(n))
        for n in (1, 2, 3, 4)
    )
    checks.append(_check("pure_limit_reduction", "r = 1 recovers the pure closed form",
                         0.0, worst, 1e-7))

    worst = 0.0
    for ta in range(0, 6):
        for tc in range(ta % 2, 6, 2):
            for r in (0.25, 0.65, 1.0):
                label = BlockLabel(HalfInteger(ta), HalfInteger(tc))
                dense = blk.trace_norm(oracle.average_state_diff_mixed(
                    label, SpectrumParams(max(ta, tc) + 2, r)))
                worst = max(worst, abs(dense - mixed.block_trace_norm(label, r)))
    checks.append(_check("spectral_norm_route", "sector-spectral norms match dense norms",
                         0.0, worst, 1e-12))

    devs = []
    for n in (20, 40, 80, 160):
        rep = mixed.mixed_programmable_risk(n, 0.8)
        devs.append(abs(3 * n * 0.8 * rep.excess_risk - 1.0))
    checks.append(_check("asymptotic_robustness_trend",
                         "n r R approaches 1/3 (slow square-root corrections)",
                         True, bool(devs[-1] <= 0.05 and devs[-1] < devs[1]), 0.0))

    chk = mixed.unbalanced_block_diff_asymptotic(50, 0.8, 0.0)
    checks.append(_check("unbalanced_scale_factor", "finite-n probe of the damping factor",
                         chk.factor, chk.ratio, 5e-3))
    dev_delta = abs(mixed.unbalanced_block_diff_asymptotic(50, 0.8, 1.0).ratio - chk.factor)
    checks.append(_check("unbalanced_delta_independence",
                         "side imbalance enters only at higher order", 0.0, dev_delta, 5e-3))
    return checks


def oracle_suite(seed: int = 7) -> list[dict]:
    checks, tol = [], 1e-9  # this suite's gate where a check names none
    gen = oracle.RandomSource(seed).generator()
    s0 = oracle._haar_bloch(gen, 200_000)
    s1 = oracle._haar_bloch(gen, 200_000)
    checks.append(_check("haar_isotropy", "mean Bloch vector vanishes",
                         0.0, float(np.linalg.norm(s0.mean(axis=0))), 3 * math.sqrt(3 / 200_000)))
    checks.append(_check("haar_pair_distance", "mean Bloch separation 4/3",
                         4 / 3, float(np.linalg.norm(s0 - s1, axis=1).mean()),
                         3 * math.sqrt(2 / 9 / 200_000)))
    del s0, s1  # 9.6 MB the simulations below need not keep alive
    a = oracle.haar_qubit(oracle.RandomSource(seed))
    b = oracle.haar_qubit(oracle.RandomSource(seed))
    checks.append(_check("rng_determinism", "same seed, same stream",
                         0.0, float(np.abs(a - b).max()), 0.0))

    dev = max(
        abs(oracle.helstrom(*oracle.build_average_states(n, n))
            - machines.programmable_error_pure(n))
        for n in (1, 2, 3)
    )
    checks.append(_check("dense_pure_errors", "explicit matrices reproduce the closed form",
                         0.0, dev, tol))

    dev = max(
        abs(oracle.helstrom(*oracle.build_average_states(2, 2, r=r))
            - mixed.mixed_programmable_risk(2, r).error_probability)
        for r in (0.3, 0.7)
    )
    checks.append(_check("dense_mixed_errors", "full product-space states match block sums",
                         0.0, dev, tol))

    s0d, s1d = oracle.build_average_states(2, 2)
    gen2 = oracle.RandomSource(seed + 1).generator()
    ang = gen2.random(2) * np.pi
    u = oracle._su2_elements(ang[:1], ang[1:])[0]
    W = oracle.schur_isometries(2)[2][0]
    D1 = W.conj().T @ np.kron(u, u) @ W  # u on the symmetric subspace of two qubits
    U = np.kron(np.kron(D1, u), D1)  # rigid rotation on sym(2) x qubit x sym(2)
    worst = max(
        float(np.abs(U @ op.matrix @ U.conj().T - op.matrix).max()) for op in (s0d, s1d)
    )
    checks.append(_check("averaged_state_covariance", "rigid rotations leave the states fixed",
                         0.0, worst, 1e-10))

    sim = oracle.simulate_lm(1, machines.lm_seed(1), oracle.RandomSource(seed + 2),
                             trials=200_000)
    want = machines.programmable_error_pure(1)
    checks.append(_check("simulation_mc_n1", "sampled machine hits the closed form (3 sigma)",
                         want, sim.error_rate, 3 * sim.stderr))
    simq = oracle.simulate_lm(1, machines.lm_seed(1), oracle.RandomSource(seed + 3),
                              trials=100_000, discretization="quadrature")
    checks.append(_check("simulation_quadrature_n1", "finite-grid machine hits the closed form",
                         want, simq.error_rate, 3 * simq.stderr))

    up, dn = np.array([[0, 0], [0, 1.0]]), np.array([[1.0, 0], [0, 0]])
    plus = np.full((2, 2), 0.5)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    ed = oracle.ed_error_finite([up, dn], [plus, minus], 1)
    checks.append(_check("ed_four_outcomes", "best two-by-two estimation machine",
                         math.sqrt(2) / 3, ed.bias, 1e-12))
    grid = oracle.continuous_ed_povm(1, n_azimuth=60, n_polar=60)
    edc = oracle.ed_error_finite(grid, grid, 1, completeness_tol=1e-6)
    checks.append(_check("ed_continuous_quadrature", "dense-grid estimation approaches 4/9",
                         4 / 9, edc.bias, 2e-3))
    ed0 = oracle.ed_error_finite([np.eye(2)], [np.eye(2)], 1)
    checks.append(_check("ed_no_information", "trivial estimation has zero bias",
                         0.0, ed0.bias, 1e-12))

    worst = min(oracle.ppt_check(n) for n in (1, 2, 3))
    checks.append(_check("ppt_property", "optimal element stays positive under partial transpose",
                         True, bool(worst >= -1e-10), 0.0))
    A = np.array([[1.0, 0.3], [0.3, -0.5]])
    B = np.array([[0.2, 0.7j], [-0.7j, 1.0]])
    got = np.linalg.eigvalsh(oracle.partial_transpose(np.kron(A, B), (2, 2), 1))
    want_sp = np.linalg.eigvalsh(np.kron(A, B.T))
    checks.append(_check("partial_transpose_product", "factor transpose on product operators",
                         0.0, float(np.abs(got - want_sp).max()), 1e-12))
    return checks


def run_suites(names: list[str], seed: int = 7) -> dict:
    """Run the named suites; returns the report dictionary."""
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    suites = []
    all_pass = True
    for name in names:
        checks = globals()[f"{name}_suite"](seed=seed)
        ok = all(c["pass"] for c in checks)
        all_pass &= ok
        suites.append({"suite": name, "pass": ok, "checks": checks})
    return {"seed": seed, "suites": suites, "pass": all_pass}

"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
Two criteria quote large-n promises of the paper, and their checks are read
as such:

* criterion 4: the excess risk falls as 1/(3n), half that of
  estimate-and-discriminate, to leading order. The optimal sum
  sum_k k sqrt(d^2 - k^2) (d = n + 1) has a square-root edge at k = d, so by
  Euler-Maclaurin it is d^3/3 + sqrt2 zeta(-1/2) d^(3/2) + O(d^(1/2)), and
  n (P_opt - 1/6) carries a relative correction 3 sqrt2 |zeta(-1/2)| / sqrt(n)
  = 0.882/sqrt(n): 2.61% at n = 10^3, where the raw risk ratio is 1.945. The
  2% and +/-0.05 targets are therefore applied to the leading constants, with
  the n^-1/2 term removed by two-point extrapolation 2 f(4n) - f(n). A
  separate clause pins the correction law itself: n (P_opt - 1/6) must match
  the two-term formula to 1e-3 relative at n = 10^3, which holds the n^-1/2
  coefficient to within 3-5% (the O(1/n) remainder takes 2.4e-4 of the 1e-3).
* criterion 5: the machine stays within about half a percentage point of the
  floor for noisy sources. The 0.5% target is read as an absolute gap in
  excess risk, as in the README and the ``n2_worst_gap_abs`` verify check;
  relative to the floor the n = 2 peak gap is 4.15%, and the relative peak
  does not fall monotonically by n = 5, so it is printed but not asserted.
  The gap must exceed the SDP's certified duality gap by three orders of
  magnitude, so it cannot be solver error.
"""
import math
import os
import time

import numpy as np
import pytest

from qclass import blocks as blk
from qclass import machines, mixed, oracle
from qclass.blocks import BlockLabel, SpectrumParams
from qclass.oracle import coupled_dense, coupling_isometry
from qclass.su2 import HalfInteger

S2, S3 = math.sqrt(2.0), math.sqrt(3.0)
ZETA_MINUS_HALF = -0.20788622497735457


def report(num: int, name: str, clauses: list[tuple[str, bool]]) -> None:
    ok = all(flag for _, flag in clauses)
    detail = "; ".join(f"{text} [{'ok' if flag else 'FAIL'}]" for text, flag in clauses)
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_optimality_identity():
    t0 = time.monotonic()
    worst = max(abs(machines.lm_error(n) - machines.programmable_error_pure(n))
                for n in range(1, 21))
    elapsed = time.monotonic() - t0
    report(1, "optimality identity", [
        (f"max |lm - opt| over n=1..20 = {worst:.2e} <= 1e-12", worst <= 1e-12),
        (f"runtime {elapsed:.2f}s < 1s", elapsed < 1.0),
    ])


def test_criterion_2_single_copy_anchors():
    checks = [
        ("P_e = (6-sqrt3)/12", machines.lm_error(1), (6 - S3) / 12),
        ("R_lm = (4-sqrt3)/12", machines.lm_error(1) - 1 / 6, (4 - S3) / 12),
        ("R_ed(n=1 optimal) = (4-sqrt2)/12",
         machines.ed_error_n1_optimal() - 1 / 6, (4 - S2) / 12),
        ("machine bias = 1/sqrt3", 2 - 4 * machines.lm_error(1), 1 / S3),
        ("estimation bias bound = sqrt2/3",
         2 - 4 * machines.ed_error_n1_optimal(), S2 / 3),
    ]
    report(2, "single-copy anchors", [
        (f"{name}: dev {abs(got - want):.1e}", abs(got - want) <= 1e-12)
        for name, got, want in checks
    ])


def test_criterion_3_oracle_equivalence():
    t0 = time.monotonic()
    clauses = []

    worst = max(abs(oracle.helstrom(*oracle.build_average_states(n, n))
                    - machines.programmable_error_pure(n)) for n in (1, 2, 3))
    clauses.append((f"pure dense errors n<=3: dev {worst:.1e} <= 1e-9", worst <= 1e-9))

    worst = max(abs(oracle.helstrom(*oracle.build_average_states(n, n, r=r))
                    - mixed.mixed_programmable_risk(n, r).error_probability)
                for n in (1, 2) for r in (0.3, 0.7))
    clauses.append((f"mixed dense errors n<=2: dev {worst:.1e} <= 1e-9", worst <= 1e-9))

    worst = max(abs(0.5 * (1 - _dense_gamma_norm(n) / 2) - machines.reversed_lm_error(n))
                for n in (1, 2, 3))
    clauses.append((f"reversed errors from dense conditioning: dev {worst:.1e} <= 1e-9",
                    worst <= 1e-9))

    worst = _gamma_pure_vs_dense()
    clauses.append((f"balanced conditioned operator n<=3: dev {worst:.1e} <= 1e-10",
                    worst <= 1e-10))
    worst = _gamma_mixed_vs_dense()
    clauses.append((f"block conditioned operators n=2, r in {{0.3,0.7}}: "
                    f"dev {worst:.1e} <= 1e-10", worst <= 1e-10))

    elapsed = time.monotonic() - t0
    clauses.append((f"runtime {elapsed:.1f}s < 30s", elapsed < 30.0))
    report(3, "oracle equivalence", clauses)


def _dense_gamma_norm(n: int) -> float:
    s0, s1 = oracle.build_average_states(n, n)
    g = oracle.conditioned_training_operator(s0.matrix - s1.matrix, s0.dims, data_axis=1)
    return float(np.abs(np.linalg.eigvalsh((g + g.conj().T) / 2)).sum())


def _gamma_pure(n: int):
    """Conditioned training-set operator of n + n pure qubits: block (n/2, n/2) at r = 1."""
    return mixed.gamma_up_mixed(BlockLabel(HalfInteger(n), HalfInteger(n)), SpectrumParams(n, 1.0))


def _gamma_pure_vs_dense() -> float:
    worst = 0.0
    for n in (1, 2, 3):
        s0, s1 = oracle.build_average_states(n, n)
        g_dense = oracle.conditioned_training_operator(
            s0.matrix - s1.matrix, s0.dims, data_axis=1)
        V = coupling_isometry(n, n)
        g = coupled_dense(_gamma_pure(n))
        worst = max(worst, float(np.abs(V @ g_dense @ V.T - g).max()))
    return worst


def _gamma_mixed_vs_dense() -> float:
    worst = 0.0
    n = 2
    for r in (0.3, 0.7):
        s0, s1 = oracle.build_average_states(n, n, r=r)
        g_dense = oracle.conditioned_training_operator(
            s0.matrix - s1.matrix, s0.dims, data_axis=n)
        schur = oracle.schur_isometries(n)
        probs = mixed.block_probabilities(n, r)
        for ta in (0, 2):
            for tc in (0, 2):
                V = np.kron(schur[ta][0], schur[tc][0])
                reduced = V.conj().T @ g_dense @ V
                label = BlockLabel(HalfInteger(ta), HalfInteger(tc))
                g = mixed.gamma_up_mixed(label, SpectrumParams(n, r))
                iso = coupling_isometry(ta, tc)
                want = probs[(ta, tc)] * iso.T @ coupled_dense(g) @ iso
                worst = max(worst, float(np.abs(reduced - want).max()))
    return worst


def _opt_scaled_risk(n: int) -> float:
    return n * (machines.programmable_error_pure(n) - 1 / 6)


def _ed_scaled_risk(n: int) -> float:
    return n * (machines.ed_error_continuous(n) - 1 / 6)


def _extrapolated(f, n: int) -> float:
    # f(n) = a + b/sqrt(n) + O(1/n)  =>  2 f(4n) - f(n) = a + O(1/n)
    return 2 * f(4 * n) - f(n)


def test_criterion_4_asymptotics():
    n = 1000
    lm = _opt_scaled_risk(n)
    ed = _ed_scaled_risk(n)
    lm_lead = _extrapolated(_opt_scaled_risk, n)
    ratio_lead = _extrapolated(lambda m: _ed_scaled_risk(m) / _opt_scaled_risk(m), n)
    # n R_opt = n/(3(n+2)) + sqrt2 |zeta(-1/2)| n / (sqrt(n+1) (n+2)) + O(1/n)
    two_term = (n / (3 * (n + 2))
                + S2 * abs(ZETA_MINUS_HALF) * n / (math.sqrt(n + 1) * (n + 2)))
    law_dev = abs(lm / two_term - 1)
    report(4, "excess-risk asymptotics", [
        (f"leading n(P_opt - 1/6) = {lm_lead:.6f} (raw {lm:.6f} at n={n}), "
         f"dev from 1/3 = {abs(3 * lm_lead - 1) * 100:.3f}% <= 2%",
         abs(3 * lm_lead - 1) <= 0.02),
        (f"n(P_ed - 1/6) = {ed:.6f}, dev from 2/3 = {abs(1.5 * ed - 1) * 100:.3f}% <= 2%",
         abs(1.5 * ed - 1) <= 0.02),
        (f"leading risk ratio = {ratio_lead:.5f} (raw {ed / lm:.5f}) within 2.00 +/- 0.05",
         abs(ratio_lead - 2.0) <= 0.05),
        (f"n(P_opt - 1/6) vs two-term law with sqrt2|zeta(-1/2)| n^-1/2 correction: "
         f"rel dev {law_dev:.1e} <= 1e-3", law_dev <= 1e-3),
    ])


def test_criterion_5_mixed_state_robustness():
    t0 = time.monotonic()
    threads = int(os.environ.get("QCLASS_THREADS", "2"))
    config = mixed.SweepConfig(n_values=(1, 2, 3, 4, 5), r_min=0.1, r_max=1.0,
                               steps=46, tol=1e-8)
    table = mixed.run_sweep(config, threads=threads)
    elapsed = time.monotonic() - t0

    clauses = []
    n1 = [row for row in table.rows if row.n == 1]
    worst1 = max(abs(row.R_lm - row.R_opt) for row in n1)
    clauses.append((f"n=1: max |R_lm - R_opt| = {worst1:.1e} <= 1e-6", worst1 <= 1e-6))

    peaks = [max(row.R_lm - row.R_opt for row in table.rows if row.n == n)
             for n in range(2, 6)]
    n2 = [row for row in table.rows if row.n == 2]
    rel = max(row.rel_gap for row in n2)
    ab = peaks[0]
    certified = max(abs(row.solver_gap) for row in n2)
    clauses.append((f"n=2: max absolute gap = {ab:.5f} > 0, > 1e3 x max |solver gap| "
                    f"{certified:.1e}, within 0.005 +/- 0.002 (relative gap {rel:.5f})",
                    ab > 1e3 * certified and abs(ab - 0.005) <= 0.002))
    clauses.append(("peak absolute gap falls strictly over n=2..5: "
                    + ", ".join(f"{p:.5f}" for p in peaks),
                    all(b < a for a, b in zip(peaks, peaks[1:]))))

    by_r = {}
    for row in table.rows:
        by_r.setdefault(round(row.r, 9), {})[row.n] = row.R_opt
    ordered = all(vals[n + 1] < vals[n] for vals in by_r.values() for n in range(1, 5))
    clauses.append(("R_opt strictly decreasing in n at every grid purity", ordered))
    clauses.append((f"sweep runtime {elapsed:.0f}s < 300s", elapsed < 300.0))
    report(5, "mixed-state robustness", clauses)


def test_criterion_6_reversed_machine():
    closed = {1: 11 / 24, 10: 0.5 * (1 - 10 / 66), 100: 0.5 * (1 - 100 / 606)}
    worst = max(abs(machines.reversed_lm_error(n) - v) for n, v in closed.items())
    limit_dev = abs(machines.reversed_lm_error(10 ** 12) - 5 / 12)
    norm_dev = max(abs(blk.trace_norm(_gamma_pure(n)) - n / (3 * (n + 1)))
                   for n in range(1, 11))
    report(6, "reversed machine", [
        (f"closed-form values at n in {{1,10,100}}: dev {worst:.1e} <= 1e-12",
         worst <= 1e-12),
        (f"limit 5/12: dev {limit_dev:.1e} <= 1e-12", limit_dev <= 1e-12),
        (f"conditioned-operator norm n/(3(n+1)) over n<=10: dev {norm_dev:.1e} <= 1e-10",
         norm_dev <= 1e-10),
    ])


def test_criterion_7_monte_carlo():
    sim = oracle.simulate_lm(1, machines.lm_seed(1), oracle.RandomSource(42),
                             trials=10 ** 6)
    want = (6 - S3) / 12
    rerun = oracle.simulate_lm(1, machines.lm_seed(1), oracle.RandomSource(42),
                               trials=10 ** 6)
    report(7, "measurement-chain simulation", [
        (f"rate {sim.error_rate:.6f} vs {want:.6f}: "
         f"{abs(sim.error_rate - want) / sim.stderr:.2f} sigma <= 3",
         abs(sim.error_rate - want) <= 3 * sim.stderr),
        ("bit-reproducible for a fixed seed", rerun.error_rate == sim.error_rate),
    ])


def test_criterion_8_unbalanced():
    worst = max(abs(machines.programmable_error_unbalanced(n, n)
                    - machines.programmable_error_pure(n)) for n in range(0, 11))
    p = machines.programmable_error_unbalanced(400, 300)
    resid = abs(p - 1 / 6 - (1 / 6) * (1 / 400 + 1 / 300))
    report(8, "unbalanced training sets", [
        (f"balanced reduction n<=10: dev {worst:.1e} <= 1e-12", worst <= 1e-12),
        (f"(400, 300) expansion residual {resid:.2e} <= 1e-4", resid <= 1e-4),
    ])


def test_criterion_9_transposition_positivity():
    vals = {n: oracle.ppt_check(n) for n in (1, 2, 3)}
    report(9, "partial-transposition positivity", [
        (f"n={n}: min eigenvalue {v:.2e} >= -1e-10", v >= -1e-10)
        for n, v in vals.items()
    ])

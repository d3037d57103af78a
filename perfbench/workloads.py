"""The benchmark's workloads: the CLI calls each one makes and its output checks.

Every workload is one or two parts of 10-14 s.  A part is a list of
``qclass`` command lines run through ``qclass.cli.main`` in one fresh
interpreter, so a run can time each part several times and report medians.
The run seed is the only input: it picks the ``verify --seed`` value; the
fig1 grid has no random input.

A check returns (attempted, failed) in work items: sweep rows or verify
checks.  An item fails when its own check fails; a failure of the
whole output (non-zero exit, unreadable output, a report whose bytes differ
from an earlier run of the same source) fails every item.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent

# --- fig1 sweep -------------------------------------------------------------

FIG1_N_MAX = 4
# Every other r of the CLI's default grid (0.10..1.00 in steps of 0.02),
# ending at the pure state r = 1: one sweep takes 12 s, so a run times it
# four times.  expected/fig1_n4.csv holds the whole default grid.
FIG1_R_MIN, FIG1_R_MAX, FIG1_STEPS = "0.12", "1.0", 23
FIG1_REF_STEPS = 46
FIG1_ROWS = FIG1_N_MAX * FIG1_STEPS
SWEEP_HEADER = "n,r,R_lm,R_opt,rel_gap,solver_gap"
GAP_TOL = 1e-8       # the sweep's default solver tolerance
FLOOR_SLACK = 1e-9   # R_lm may not undercut the floor R_opt by more than this
N1_TOL = 1e-6        # at n = 1 the machine attains the floor
REF_LM_TOL = 1e-7    # absolute, against the recorded R_lm
REF_OPT_TOL = 1e-10  # absolute, against the recorded R_opt

# --- verify ---------------------------------------------------------------------

VERIFY_SUITE_CHECKS = {"su2": 7, "blocks": 8, "machines": 9, "mixed": 10, "oracle": 13}
VERIFY_CHECKS = sum(VERIFY_SUITE_CHECKS.values())
# Two parts of about 10 and 13 s: every suite runs once per pair of parts.
VERIFY_PARTS = (("su2", "blocks", "machines"), ("mixed", "oracle"))
# Seeds 0..63 were each run through the seed-dependent verify suites (su2,
# oracle) at the benchmark's commit.  All pass except 40, which fails
# simulation_quadrature_n1: the Monte Carlo checks are 3-sigma tests, so a
# seed now and then fails by chance.  The run seed indexes the vetted list.
VERIFY_SEEDS = tuple(s for s in range(64) if s != 40)


# Work items of a whole workload (all its parts): sweep rows, verify checks.
ITEMS = {
    "fig1-n4": FIG1_ROWS,
    "verify-all": VERIFY_CHECKS,
}


def verify_seed(seed: int) -> int:
    return VERIFY_SEEDS[seed % len(VERIFY_SEEDS)]


def parts(workload: str, seed: int, workdir: str) -> list[list[list[str]]]:
    """The qclass argument lists of each part of a workload.

    Each verify suite writes its report under one fixed name, because the
    report embeds its manifest's file name.
    """
    if workload == "fig1-n4":
        return [[["sweep", "fig1", "--n-max", str(FIG1_N_MAX), "--r-min", FIG1_R_MIN,
                  "--r-max", FIG1_R_MAX, "--steps", str(FIG1_STEPS), "--threads", "1",
                  "--out", f"{workdir}/fig1.csv"]]]
    if workload == "verify-all":
        return [[["verify", "--suite", suite, "--seed", str(verify_seed(seed)),
                  "--out", f"{workdir}/verify-{suite}.json"] for suite in group]
                for group in VERIFY_PARTS]
    raise ValueError(f"unknown workload {workload!r}")


# --- checks -------------------------------------------------------------------


def _grid_key(n: str | int, r: str | float) -> tuple[int, float]:
    """A sweep row's (n, r); r is rounded because the benchmark's grid and
    the reference grid can differ in r's last bits."""
    return int(n), round(float(r), 9)


def fig1_grid() -> set[tuple[int, float]]:
    lo, hi = float(FIG1_R_MIN), float(FIG1_R_MAX)
    return {_grid_key(n, lo + k * (hi - lo) / (FIG1_STEPS - 1))
            for n in range(1, FIG1_N_MAX + 1) for k in range(FIG1_STEPS)}


def _load_reference_sweep() -> dict[tuple[int, float], tuple[float, float]]:
    ref = {}
    lines = (HERE / "expected" / "fig1_n4.csv").read_text().splitlines()
    for line in lines[1:]:
        n, r, r_lm, r_opt, _, _ = line.split(",")
        ref[_grid_key(n, r)] = (float(r_lm), float(r_opt))
    return ref


def _sweep_row_ok(line: str, ref: dict) -> bool:
    fields = line.split(",")
    if len(fields) != 6:
        return False
    try:
        n, r = _grid_key(fields[0], fields[1])
        r_lm, r_opt, rel_gap, gap = (float(x) for x in fields[2:])
    except ValueError:
        return False
    if not all(math.isfinite(x) for x in (r, r_lm, r_opt, rel_gap, gap)):
        return False
    if (n, r) not in ref:
        return False
    ref_lm, ref_opt = ref[(n, r)]
    return (gap <= GAP_TOL
            and r_lm >= r_opt - FLOOR_SLACK
            and (n != 1 or abs(r_lm - r_opt) <= N1_TOL)
            and abs(r_lm - ref_lm) <= REF_LM_TOL
            and abs(r_opt - ref_opt) <= REF_OPT_TOL)


def check_sweep(csv_text: str | None, exit_code: int) -> tuple[int, int]:
    """(attempted, failed) rows of one fig1-n4 sweep CSV."""
    grid = fig1_grid()
    ref = {k: v for k, v in _load_reference_sweep().items() if k in grid}
    if exit_code != 0 or csv_text is None:
        return FIG1_ROWS, FIG1_ROWS
    lines = csv_text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return FIG1_ROWS, FIG1_ROWS
    rows = lines[1:]
    seen = set()
    failed = 0
    for line in rows:
        key = line.split(",")[:2]
        if not _sweep_row_ok(line, ref) or tuple(key) in seen:
            failed += 1
        seen.add(tuple(key))
    failed += max(0, FIG1_ROWS - len(rows))
    return FIG1_ROWS, min(failed, FIG1_ROWS)


def check_verify(stdout: str, exit_code: int, n_checks: int = VERIFY_CHECKS) -> tuple[int, int]:
    """(attempted, failed) verify checks from the report the CLI printed.

    ``n_checks`` is how many checks the report must hold.
    """
    try:
        report = json.loads(stdout)
        checks = [c for suite in report["suites"] for c in suite["checks"]]
        failed = sum(1 for c in checks if c["pass"] is not True)
        failed += max(0, n_checks - len(checks))
    except (ValueError, KeyError, TypeError):
        return n_checks, n_checks
    if failed == 0 and (exit_code != 0 or report.get("pass") is not True):
        failed = n_checks
    return n_checks, min(failed, n_checks)

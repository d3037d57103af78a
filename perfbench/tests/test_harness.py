"""Tests of the benchmark harness itself: span arithmetic, output checks, environment.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, None, {}],
        ["a", 1.0, 4.0, 0, {}],
        ["a.inner", 2.0, 3.0, 1, {}],
        ["b", 5.0, 6.5, 0, {}],
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 3.0 - 1.5, 2.0, 1.0, 1.5])
    assert tracing.self_time_by_name(spans) == pytest.approx(
        {"root": 5.5, "a": 2.0, "b": 1.5, "a.inner": 1.0})


def test_self_time_clips_children_to_parent():
    spans = [["p", 1.0, 2.0, None, {}], ["c", 0.5, 1.5, 0, {}]]
    assert tracing.self_times(spans) == pytest.approx([0.5, 1.0])


def test_merge_spans_shifts_parents():
    a = [["p", 0.0, 2.0, None, {}], ["c", 0.5, 1.0, 0, {}]]
    b = [["q", 3.0, 5.0, None, {}], ["d", 3.0, 4.0, 0, {}], ["e", 3.5, 3.6, 1, {}]]
    merged = tracing.merge_spans([a, b])
    assert [s[3] for s in merged] == [None, 0, None, 2, 3]
    assert tracing.self_times(merged) == pytest.approx([1.5, 0.5, 1.0, 0.9, 0.1])


def test_wrapper_records_nesting_and_exceptions():
    tracer = tracing.Tracer()

    def inner():
        raise ValueError("boom")

    traced_inner = tracer.wrap("inner", inner, annotate=lambda a, *_: a.update(seen=1))

    def outer():
        with pytest.raises(ValueError):
            traced_inner()
        return 3

    assert tracer.wrap("outer", outer)() == 3
    (o_name, o_start, o_end, o_parent, _), (i_name, i_start, i_end, i_parent, i_attrs) = tracer.spans
    assert (o_name, o_parent, i_name, i_parent) == ("outer", None, "inner", 0)
    assert o_start <= i_start <= i_end <= o_end
    assert i_attrs == {"seen": 1}


def test_layer_metrics_from_synthetic_spans():
    spans = [
        ["mixed.solve_lm", 0.0, 3.0, None, {"n": 1}],
        ["mixed.build_lm_problem", 0.0, 1.0, 0, {}],
        ["sdp.solve", 1.0, 3.0, 0, {"iterations": 100, "eigh_flops": 800}],
        ["mixed.solve_lm", 3.0, 4.0, None, {"n": 2}],
        ["sdp.solve", 3.0, 4.0, 3, {"iterations": 60, "failed": 1, "eigh_flops": 60}],
        ["mixed.mixed_programmable_risk", 4.0, 4.5, None, {"n": 2}],
    ]
    counts = {"cg_hits": 5, "cg_misses": 7, "w6j_hits": 0, "w6j_misses": 2}
    m = {k: v["value"] for k, v in tracing.layer_metrics(spans, counts, 0.05).items()}
    assert [k for k, _ in tracing.METRICS] == list(m)
    assert m["sdp.solve.calls"] == 2 and m["sdp.iterations"] == 160
    assert m["sdp.failures"] == 1 and m["sdp.eigh_flops_computed"] == 860
    assert m["sdp.solve.self_s"] == pytest.approx(3.0)
    assert m["sdp.s_per_iter"] == pytest.approx(3.0 / 160)
    assert m["mixed.build_lm_problem.self_s"] == pytest.approx(1.0)
    assert m["mixed.lane_s.max"] == pytest.approx(3.0)
    assert m["mixed.lane_s.sum"] == pytest.approx(4.5)
    assert m["su2.cg_computed"] == 7 and m["su2.cg_hits"] == 5
    assert m["oracle.simulate_lm.trials_per_s"] == 0.0
    assert m["trace.overhead_frac"] == 0.05


# --- output checks --------------------------------------------------------------


def _reference_csv() -> str:
    """The rows of the recorded sweep that lie on the benchmark's grid."""
    lines = (HERE / "expected" / "fig1_n4.csv").read_text().splitlines()
    grid = workloads.fig1_grid()
    rows = [ln for ln in lines[1:] if workloads._grid_key(*ln.split(",")[:2]) in grid]
    return "\n".join([lines[0]] + rows) + "\n"


def test_reference_sweep_passes():
    assert workloads.check_sweep(_reference_csv(), 0) == (workloads.FIG1_ROWS, 0)


@pytest.mark.parametrize("column, value", [
    (2, "nan"),         # R_lm not a number
    (5, "1e-3"),        # solver gap above tolerance
    (2, "0.0"),         # machine beats the floor
])
def test_corrupted_sweep_row_counts_as_failed(column, value):
    lines = _reference_csv().splitlines()
    fields = lines[7].split(",")
    fields[column] = value
    lines[7] = ",".join(fields)
    assert workloads.check_sweep("\n".join(lines) + "\n", 0) == (workloads.FIG1_ROWS, 1)


def test_missing_sweep_row_and_bad_exit():
    lines = _reference_csv().splitlines()
    assert workloads.check_sweep("\n".join(lines[:-1]) + "\n", 0) == (workloads.FIG1_ROWS, 1)
    assert workloads.check_sweep(_reference_csv(), 1) == (workloads.FIG1_ROWS,) * 2


def _verify_report(n_checks: int = workloads.VERIFY_CHECKS) -> dict:
    checks = [{"id": f"c{i}", "pass": True} for i in range(n_checks)]
    return {"seed": 7, "pass": True, "suites": [{"suite": "s", "pass": True, "checks": checks}]}


def test_verify_check_flipped_to_fail_counts():
    report = _verify_report()
    assert workloads.check_verify(json.dumps(report), 0) == (workloads.VERIFY_CHECKS, 0)
    report["suites"][0]["checks"][3]["pass"] = False
    report["pass"] = report["suites"][0]["pass"] = False
    assert workloads.check_verify(json.dumps(report), 3) == (workloads.VERIFY_CHECKS, 1)


def test_verify_missing_checks_or_bad_exit_fail():
    n = workloads.VERIFY_CHECKS
    assert workloads.check_verify(json.dumps(_verify_report(n - 2)), 0) == (n, 2)
    assert workloads.check_verify(json.dumps(_verify_report()), 1) == (n, n)
    assert workloads.check_verify("not json", 0) == (n, n)
    assert workloads.check_verify(json.dumps(_verify_report(7)), 0, 9) == (9, 2)


def test_verify_parts_run_every_suite_once():
    suites = [argv[argv.index("--suite") + 1]
              for part in workloads.parts("verify-all", 5, "w") for argv in part]
    assert sorted(suites) == sorted(workloads.VERIFY_SUITE_CHECKS)


def test_verify_seeds_are_vetted():
    assert 40 not in {workloads.verify_seed(s) for s in range(200)}


# --- environment ---------------------------------------------------------------


def test_child_environment_pins_blas_threads():
    env = run.child_env()
    assert all(env[v] == "1" for v in child.THREAD_VARS)


def test_environment_is_captured(monkeypatch):
    for v in child.THREAD_VARS:
        monkeypatch.setenv(v, "1")
    env = child.environment()
    assert set(env) == {"python", "numpy", "blas", "nproc", "cpu_count", "threads", "git_sha"}
    assert env["threads"] == {v: "1" for v in child.THREAD_VARS}
    assert env["nproc"] >= 1 and env["python"].count(".") == 2


def test_git_sha_reads_only_the_checkout(tmp_path):
    assert child.git_sha(tmp_path) == "unknown"
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text("# pack\n" + "ab" * 20 + " refs/heads/main\n")
    assert child.git_sha(tmp_path) == "ab" * 20
    (git / "refs" / "heads" / "main").write_text("cd" * 20 + "\n")
    assert child.git_sha(tmp_path) == "cd" * 20


def test_reference_sweep_is_complete():
    rows = (HERE / "expected" / "fig1_n4.csv").read_text().splitlines()[1:]
    assert len(rows) == workloads.FIG1_N_MAX * workloads.FIG1_REF_STEPS
    assert len(_reference_csv().splitlines()) == 1 + workloads.FIG1_ROWS
    assert all(math.isfinite(float(x)) for row in rows for x in row.split(",")[1:])

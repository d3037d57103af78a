"""qclass benchmark: end-to-end runs of the CLI, or one traced run per layer.

    python3 perfbench/run.py --workload fig1-n4 --seed 1 --seconds 60 --trace 0

Workloads (see perfbench/README.md for why each was chosen): fig1-n4 and
verify-all.  Each is one or two parts of 10-14 s.

--trace 0 spawns nine set-up-only interpreters, then repeats the workload's
parts in turn, one fresh interpreter per repetition so that caches start
cold as they do for a CLI user.  Every part runs at least once; after that
a repetition starts only if its part's last time says it ends within
--seconds (and never past the 170 s a run may take).  It prints the
end-to-end metrics: a time is the sum over parts of each part's median,
peak_rss_mb is the largest, setup_s the median over every spawn.
--trace 1 runs each part once untraced and once with spans around qclass's
public functions, and prints the per-layer metrics.  Both modes check every
output; the last line of standard output is one JSON object
{correct, attempted, failed, metrics}.
Any error of the harness itself (qclass missing, a child that crashes or
hangs) exits non-zero without that line.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from child import THREAD_VARS  # noqa: E402

SETUP_SPAWNS = 9
RUN_LIMIT_S = 170.0  # a run must end within 180 s; children still running then are killed
START = time.perf_counter()
OUT = HERE / "out"


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result line is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def _kill_group(pid: int) -> None:
    """Kill a child and any pool workers it started (they share its session)."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(args: list[str], tag: str) -> tuple[dict, float, float, float]:
    """Run child.py once; returns (result, spawn time, cpu seconds, peak RSS in MB).

    The child's end time is in the result as "t_exit".

    os.wait4 gives the child's own resource use together with that of every
    process it waited for, so pool workers count towards CPU and peak RSS.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    result_path = OUT / f"{tag}.result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path)] + args
    with open(OUT / f"{tag}.log", "w") as log:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(max(0.0, START + RUN_LIMIT_S - t_spawn), _kill_group,
                                (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        t_exit = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result_path.exists():
        tail = (OUT / f"{tag}.log").read_text()[-2000:]
        raise HarnessError(f"child {' '.join(args)} exited with {proc.returncode}:\n{tail}")
    result = json.loads(result_path.read_text())
    result["t_exit"] = t_exit
    return result, t_spawn, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def source_digest() -> str:
    """Digest of qclass's source, so stored output hashes follow the code."""
    h = hashlib.sha256()
    src = ROOT / "src" / "qclass"
    for path in sorted(p for p in src.rglob("*") if p.suffix in (".py", ".json")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def same_as_earlier_runs(key: str, data: bytes) -> bool:
    """True when ``data`` hashes the same as in every earlier run of this source.

    The first run of a source records the hash.
    """
    store = OUT / "sha256" / f"{source_digest()}-{key}"
    digest = hashlib.sha256(data).hexdigest()
    if store.exists():
        return store.read_text() == digest
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(digest)
    return True


def check_outputs(workload: str, seed: int, part: int, calls: list[dict]) -> tuple[int, int]:
    """(attempted, failed) items of one repetition of a part.

    A written file whose hash differs from earlier runs fails all its items.
    """
    workdir = OUT / workload
    if workload == "fig1-n4":
        csv_path = workdir / "fig1.csv"
        data = csv_path.read_bytes() if csv_path.exists() else None
        attempted, failed = workloads.check_sweep(
            data.decode() if data is not None else None, calls[0]["exit_code"])
        if data is not None and not same_as_earlier_runs("fig1-n4.csv", data):
            failed = attempted
        return attempted, failed
    attempted = failed = 0
    for c in calls:
        suite = c["argv"][c["argv"].index("--suite") + 1]
        a, f = workloads.check_verify(c["stdout"], c["exit_code"],
                                      workloads.VERIFY_SUITE_CHECKS[suite])
        report = workdir / f"verify-{suite}.json"
        key = f"verify-seed{workloads.verify_seed(seed)}-{suite}.json"
        if not report.exists() or not same_as_earlier_runs(key, report.read_bytes()):
            f = a
        attempted, failed = attempted + a, failed + f
    return attempted, failed


def run_rep(workload: str, seed: int, part: int, tag: str, trace: bool = False) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--part", str(part)]
    if trace:
        args.append("--trace")
    result, t_spawn, cpu_s, rss_mb = spawn(args, tag)
    attempted, failed = check_outputs(workload, seed, part, result["calls"])
    wall_s = sum(c["wall_s"] for c in result["calls"])
    return {"result": result, "setup_s": result["t_ready"] - t_spawn, "wall_s": wall_s,
            "span_s": result["t_exit"] - t_spawn, "cpu_s": cpu_s, "rss_mb": rss_mb,
            "attempted": attempted, "failed": failed}


def n_parts(workload: str) -> int:
    return len(workloads.parts(workload, 0, ""))


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[list[dict], dict]:
    setups = []
    for i in range(SETUP_SPAWNS):
        result, t_spawn, _, _ = spawn(["--setup-only"], f"{workload}.setup{i}")
        setups.append(result["t_ready"] - t_spawn)
    by_part: list[list[dict]] = [[] for _ in range(n_parts(workload))]
    start = time.perf_counter()
    for k in itertools.cycle(range(len(by_part))):
        if all(by_part):
            ends = time.perf_counter() + by_part[k][-1]["span_s"]
            if ends > start + seconds or ends > START + RUN_LIMIT_S:
                break
        by_part[k].append(run_rep(workload, seed, k, f"{workload}.part{k}.rep{len(by_part[k])}"))
    reps = [r for part in by_part for r in part]
    setups += [r["setup_s"] for r in reps]

    def sum_of_medians(key: str) -> float:
        return sum(statistics.median(r[key] for r in part) for part in by_part)

    wall_s = sum_of_medians("wall_s")
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall_s, "s"),
        "items_per_s": (workloads.ITEMS[workload] / wall_s, "1/s"),
        "cpu_s": (sum_of_medians("cpu_s"), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in reps), "MB"),
    }
    print(f"# repetitions per part: {[len(part) for part in by_part]}")
    return reps, {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(workload: str, seed: int) -> tuple[list[dict], dict]:
    parts = range(n_parts(workload))
    plain = [run_rep(workload, seed, k, f"{workload}.part{k}.untraced") for k in parts]
    traced = [run_rep(workload, seed, k, f"{workload}.part{k}.traced", trace=True)
              for k in parts]
    spans = tracing.merge_spans([t["result"]["spans"] for t in traced])
    counts = {key: sum(t["result"]["cache_counts"][key] for t in traced)
              for key in traced[0]["result"]["cache_counts"]}
    traced_s, plain_s = (sum(r["wall_s"] for r in reps) for reps in (traced, plain))
    print("# self_s by span:", json.dumps(
        {k: round(v, 4) for k, v in tracing.self_time_by_name(spans).items()}))
    print(f"# traced wall_s {traced_s:.4f}, untraced {plain_s:.4f}")
    return plain + traced, tracing.layer_metrics(spans, counts, traced_s / plain_s - 1.0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.ITEMS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM raises SystemExit, so spawn() kills the running child's group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "qclass" / "cli.py").is_file():
        print(f"error: no qclass source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            reps, metrics = per_layer(args.workload, args.seed)
        else:
            reps, metrics = end_to_end(args.workload, args.seed, args.seconds)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print("# env", json.dumps(reps[-1]["result"]["env"], sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} repetitions {len(reps)} "
          f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} items)")
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

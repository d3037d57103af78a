"""One repetition of one part of a workload in a fresh interpreter.

    python3 perfbench/child.py RESULT.json --setup-only
    python3 perfbench/child.py RESULT.json --workload NAME --seed N --part K [--trace]

Imports ``qclass.cli`` and builds its parser (the set-up that ``setup_s``
times), then runs the part's command lines through ``qclass.cli.main``
and writes a JSON result: the monotonic time at which set-up ended, each
call's exit code, wall time and standard output, the environment and, when
traced, the spans and su2 cache counters.  perf_counter is the system-wide
monotonic clock on Linux, so the parent can subtract its own spawn time.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha(root: Path = ROOT) -> str:
    """HEAD's commit from ``.git`` inside ``root`` only; "unknown" outside a clone."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = root / ".git" / name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    """What the timings depend on: interpreter, numpy and BLAS, cores, threads, commit."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": git_sha(),
    }


def run_calls(cli, argvs: list[list[str]]) -> list[dict]:
    calls = []
    for argv in argvs:
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails this call's items, not the run
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - t0
        calls.append({"argv": argv, "exit_code": code, "wall_s": wall, "stdout": out.getvalue()})
    return calls


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("result")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from qclass import cli
    cli.build_parser()
    t_ready = time.perf_counter()
    result = {"t_ready": t_ready}
    if not args.setup_only:
        import workloads
        workdir = HERE / "out" / args.workload
        workdir.mkdir(parents=True, exist_ok=True)
        argvs = workloads.parts(args.workload, args.seed,
                                str(workdir.relative_to(ROOT)))[args.part]
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        result["calls"] = run_calls(cli, argvs)
        if tracer is not None:
            from qclass import su2
            cg, w6 = su2._cg_doubled.cache_info(), su2._w6j_doubled.cache_info()
            result["spans"] = tracer.spans
            result["cache_counts"] = {"cg_hits": cg.hits, "cg_misses": cg.misses,
                                      "w6j_hits": w6.hits, "w6j_misses": w6.misses}
        result["env"] = environment()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

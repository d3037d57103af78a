"""Command-line surface: per-machine queries, sweeps, verification, dumps.

Exit codes: 0 success, 1 domain error, 2 usage, 3 verification failure.
Configuration precedence: flags > QCLASS_* environment variables > defaults;
the QCLASS_* defaults are read once per process, when the first parser is built.
"""
from __future__ import annotations

import argparse
import datetime
import errno
import functools
import math
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, blocks, machines, mixed, sdp, su2
from . import verify as verify_mod

EXIT_OK, EXIT_DOMAIN, EXIT_USAGE, EXIT_VERIFY = 0, 1, 2, 3


def dumps17(obj, indent: int = 0) -> str:
    """Deterministic JSON with every number rendered to 17 significant digits."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad_in}"{k}": {dumps17(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(x, (int, float, bool)) or x is None for x in seq)
        if flat:
            return "[" + ", ".join(dumps17(x) for x in seq) + "]"
        items = [f"{pad_in}{dumps17(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return {True: "true", False: "false", None: "null"}[obj]
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return f"{x:.17g}"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _env(name: str, kind: type, default):
    val = os.environ.get(name)
    if not val:
        return default
    try:
        return kind(val)
    except ValueError:
        raise ValueError(f"{name}={val!r} is not a valid {kind.__name__}") from None


def _environment() -> dict:
    """What a run's numbers and timings depend on: interpreter, numpy, BLAS and cores."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
    }


def _manifest(args: argparse.Namespace, config: dict, tolerances: dict) -> dict:
    return {
        "command": " ".join(["qclass", *args.argv]),
        "config": config,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "tolerances": tolerances,
        "environment": _environment(),
        "elapsed_s": time.perf_counter() - args.started,
    }


def _check_writable(path: str | None) -> None:
    """Raise the error writing ``path`` would raise, before any work is done."""
    if path is None:
        return
    out = Path(path)
    code = (errno.EISDIR if out.is_dir()
            else errno.ENOENT if not out.parent.exists()
            else errno.ENOTDIR if not out.parent.is_dir()
            else errno.EACCES if not os.access(out.parent, os.W_OK) else 0)
    if code:
        raise OSError(code, os.strerror(code), path)


def _write_with_manifest(path: str, content: str, manifest: dict) -> None:
    out = Path(path)
    out.write_text(content)
    side = out.with_name(out.name + ".manifest.json")
    side.write_text(dumps17(manifest) + "\n")


# ---------------------------------------------------------------------------


def cmd_machine(args) -> int:
    tol = args.tol
    sdp.check_tol(tol)
    unbalanced = args.nA is not None or args.nC is not None
    if unbalanced and (args.machine != "opt" or args.nA is None or args.nC is None):
        raise ValueError("--nA and --nC must be given together, and to the opt machine only")
    if args.r != 1.0 and (unbalanced or args.machine not in ("opt", "lm")):  # no mixed route
        raise ValueError("unbalanced training sets are supported for pure sources only"
                         if unbalanced else
                         f"the {args.machine} machine is implemented for pure sources only")
    if unbalanced:
        err = machines.programmable_error_unbalanced(args.nA, args.nC)
        report = machines.make_report("opt", max(args.nA, args.nC), err, nA=args.nA, nC=args.nC)
    elif args.r != 1.0:
        report = (mixed.mixed_programmable_risk(args.n, args.r) if args.machine == "opt"
                  else mixed.lm_risk(args.n, args.r, tol=tol))
    elif args.machine == "ed-n1":
        if args.n != 1:
            raise ValueError("the finite-outcome estimation machine is defined for --n 1")
        report = machines.make_report("ed_n1", 1, machines.ed_error_n1_optimal())
    else:  # report name and closed form of n of each machine at r = 1
        name, closed_form = {"opt": ("opt", machines.programmable_error_pure),
                             "lm": ("lm", machines.lm_error),
                             "ed": ("ed_continuous", machines.ed_error_continuous),
                             "reversed": ("reversed", machines.reversed_lm_error)}[args.machine]
        report = machines.make_report(name, args.n, closed_form(args.n))

    payload = report.to_json_dict()
    if args.json:
        payload["manifest"] = _manifest(args, {"machine": args.machine}, {"tol": tol})
        print(dumps17(payload))
    else:
        for key, val in payload.items():
            print(f"{key}: {val:.17g}" if isinstance(val, float) else f"{key}: {val}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    _check_writable(args.out)
    config = mixed.SweepConfig(
        n_values=tuple(range(1, args.n_max + 1)),
        r_min=args.r_min, r_max=args.r_max, steps=args.steps, tol=args.tol,
    )
    table = mixed.run_sweep(config, threads=args.threads)
    manifest = _manifest(
        args,
        {"preset": args.preset, "n_values": list(config.n_values), "r_min": config.r_min,
         "r_max": config.r_max, "steps": config.steps, "threads": args.threads,
         "failures": [f"n={row.n} r={row.r}: {row.error}" for row in table.failures()]},
        {"tol": config.tol},
    )
    _write_with_manifest(args.out, table.to_csv(), manifest)
    print(f"wrote {len(table.rows)} rows to {args.out}")
    if table.failures():
        print(f"{len(table.failures())} grid points failed to converge", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    names = list(verify_mod.SUITES) if args.suite == "all" else [args.suite]
    if args.seed < 0:  # the oracle suite's generator takes non-negative seeds only
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    _check_writable(args.out)
    report = verify_mod.run_suites(names, seed=args.seed)
    text = dumps17(report)
    print(text)
    if args.out:
        manifest = _manifest(args, {"suites": names}, {})  # each check prints its own tol
        report_file = dict(report)
        report_file["manifest"] = Path(args.out).name + ".manifest.json"
        _write_with_manifest(args.out, dumps17(report_file) + "\n", manifest)
    return EXIT_OK if report["pass"] else EXIT_VERIFY


def cmd_su2(args) -> int:
    if args.op == "cg":
        val = su2.clebsch_gordan(args.j1, args.m1, args.j2, args.m2, args.J, args.M)
    elif args.op == "w6j":
        val = su2.wigner_6j(args.j1, args.j2, args.j12, args.j3, args.J, args.j23)
    elif args.op == "overlap":
        val = su2.recoupling_overlap(args.n, args.j, +1 if args.sign == "+" else -1)
    elif args.op == "mult":
        val = su2.multiplicity(args.n, args.j)
    else:
        val = su2.dim(args.m)
    print(f"{val:.17g}" if isinstance(val, float) else val)
    return EXIT_OK


def cmd_dump(args) -> int:
    sdp.check_tol(args.tol)
    if args.what == "seed" and (args.jA is not None or args.jC is not None):
        raise ValueError("--jA and --jC pick the label of dump gamma only")
    _check_writable(args.out)
    if args.what == "gamma":
        ta = args.n if args.jA is None else su2.as_half(args.jA).twice_value
        tc = args.n if args.jC is None else su2.as_half(args.jC).twice_value
        label = blocks.BlockLabel(su2.HalfInteger(ta), su2.HalfInteger(tc))
        if args.n < 1 or any(t > args.n or (args.n - t) % 2 for t in (ta, tc)):
            raise ValueError(f"--n {args.n} has no block label (jA, jC) = ({label.jA}, {label.jC})")
        payload = mixed.gamma_up_mixed(label, args.r).to_json_dict()
    else:
        _, seed = mixed.solve_lm(args.n, args.r, tol=args.tol)
        payload = seed.to_json_dict()
    payload["manifest"] = _manifest(args, {"what": args.what, "n": args.n, "r": args.r},
                                    {"tol": args.tol})
    text = dumps17(payload) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    tol_default = _env("QCLASS_TOL", float, sdp.DEFAULT_TOL)
    seed_default = _env("QCLASS_SEED", int, 7)
    threads_default = _env("QCLASS_THREADS", int, 1)

    p = argparse.ArgumentParser(prog="qclass",
                                description="Training-based binary classification of qubit "
                                            "states: exact error rates, seed optimization, "
                                            "and numerical verification.")
    p.add_argument("--version", action="version", version=f"qclass {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    m = sub.add_parser("machine", help="error probability and excess risk of one machine")
    m.add_argument("machine", choices=("opt", "lm", "ed", "ed-n1", "reversed"))
    m.add_argument("--n", type=int, default=1, help="training qubits per side")
    m.add_argument("--r", type=float, default=1.0, help="source purity (Bloch length)")
    m.add_argument("--nA", type=int, default=None, help="side-A qubits (unbalanced)")
    m.add_argument("--nC", type=int, default=None, help="side-C qubits (unbalanced)")
    m.add_argument("--tol", type=float, default=tol_default)
    m.add_argument("--json", action="store_true")

    s = sub.add_parser("sweep", help="risk table over the (n, purity) grid")
    s.add_argument("preset", choices=("fig1",))
    s.add_argument("--n-max", type=int, default=5)
    s.add_argument("--r-min", type=float, default=0.1)
    s.add_argument("--r-max", type=float, default=1.0)
    s.add_argument("--steps", type=int, default=46)
    s.add_argument("--out", default="fig1.csv")
    s.add_argument("--tol", type=float, default=tol_default)
    s.add_argument("--threads", type=int, default=threads_default)

    v = sub.add_parser("verify", help="run module verification suites")
    v.add_argument("--suite", choices=verify_mod.SUITES + ("all",), default="all")
    v.add_argument("--seed", type=int, default=seed_default)
    v.add_argument("--out", default=None, help="also write the report to this file")

    w = sub.add_parser("su2", help="inspect coupling coefficients")
    wsub = w.add_subparsers(dest="op", required=True)
    cg = wsub.add_parser("cg")
    for name in ("j1", "m1", "j2", "m2", "J", "M"):
        cg.add_argument(f"--{name}", required=True)
    w6 = wsub.add_parser("w6j")
    for name in ("j1", "j2", "j12", "j3", "J", "j23"):
        w6.add_argument(f"--{name}", required=True)
    ov = wsub.add_parser("overlap")
    ov.add_argument("--n", type=int, required=True)
    ov.add_argument("--j", required=True)
    ov.add_argument("--sign", choices=("+", "-"), required=True)
    mu = wsub.add_parser("mult")
    mu.add_argument("--n", type=int, required=True)
    mu.add_argument("--j", required=True)
    dm = wsub.add_parser("dim")
    dm.add_argument("--m", type=int, required=True)

    d = sub.add_parser("dump", help="JSON dump of block operators or solved seeds")
    d.add_argument("what", choices=("gamma", "seed"))
    d.add_argument("--n", type=int, required=True)
    d.add_argument("--r", type=float, default=1.0)
    d.add_argument("--jA", default=None)
    d.add_argument("--jC", default=None)
    d.add_argument("--tol", type=float, default=tol_default)
    d.add_argument("--out", default=None)
    return p


def _glue_signed(argv: list[str]) -> list[str]:
    """``--m2 -1/2`` as ``--m2=-1/2``: argparse takes -1/2 for an option; su2 cg's m is signed."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--m1", "--m2", "--M") and re.fullmatch(r"-\d+/\d+", arg):
            arg = out.pop() + "=" + arg
        out.append(arg)
    return out


def main(argv=None) -> int:
    try:
        parser = build_parser()
    except ValueError as exc:  # a malformed QCLASS_* default
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_glue_signed(argv))
    args.argv = argv
    args.started = time.perf_counter()
    try:
        return globals()[f"cmd_{args.cmd}"](args)  # looked up at each call, so a rebound cmd_* runs
    except (ValueError, OSError, blocks.IntegrityError, sdp.InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except sdp.SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError as exc:
        print(f"error: out of memory ({str(exc) or type(exc).__name__})", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())

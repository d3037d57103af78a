"""Regenerate the recorded output the benchmark checks against.

    python3 perfbench/record_expected.py

Writes perfbench/expected/fig1_n4.csv: the fig1 sweep at n <= 4 over the
CLI's default grid, which holds every r the benchmark sweeps.  Run it only
at a commit whose numbers are trusted: later runs are checked against it.
"""
from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from qclass import cli  # noqa: E402


def main() -> int:
    csv_path = HERE / "expected" / "fig1_n4.csv"
    csv_path.parent.mkdir(exist_ok=True)
    argv = ["sweep", "fig1", "--n-max", str(workloads.FIG1_N_MAX),
            "--steps", str(workloads.FIG1_REF_STEPS), "--threads", "1", "--out", str(csv_path)]
    if cli.main(argv) != 0:
        return 1
    csv_path.with_name(csv_path.name + ".manifest.json").unlink()
    return 0


if __name__ == "__main__":
    sys.exit(main())

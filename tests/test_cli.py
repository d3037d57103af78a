import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qclass import cli, mixed, sdp, verify

jsonschema = pytest.importorskip("jsonschema")

# RefResolver still works for the local cross-file reference; quiet its notice
pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "src" / "qclass" / "schemas"


def load_schema(name):
    schema = json.loads((SCHEMA_DIR / name).read_text())
    resolver = jsonschema.RefResolver(base_uri=f"{SCHEMA_DIR.as_uri()}/", referrer=schema)
    return schema, resolver


def run_cli(*args, env=None):
    proc = subprocess.run([sys.executable, "-m", "qclass.cli", *args],
                          capture_output=True, text=True, env=env)
    return proc


class TestDumps17:
    def test_floats_have_17_digits(self):
        out = cli.dumps17({"x": 1 / 3})
        assert "0.33333333333333331" in out

    def test_roundtrip(self):
        obj = {"a": [1, 2.5, True, None], "b": {"c": "text \"quoted\""}, "d": []}
        assert json.loads(cli.dumps17(obj)) == obj

    def test_nan_and_inf(self):
        assert json.loads(cli.dumps17({"x": float("nan")}))["x"] == "nan"


class TestMachineCommand:
    def test_lm_n1(self):
        proc = run_cli("machine", "lm", "--n", "1")
        assert proc.returncode == 0
        assert "0.3556624327" in proc.stdout
        assert "0.1889957660" in proc.stdout  # excess risk (4 - sqrt 3)/12

    def test_reversed_n1(self):
        proc = run_cli("machine", "reversed", "--n", "1")
        assert proc.returncode == 0
        assert "0.4583333333" in proc.stdout

    def test_unbalanced(self):
        proc = run_cli("machine", "opt", "--nA", "3", "--nC", "1", "--json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert 1 / 6 < payload["error_probability"] < 0.5
        schema, resolver = load_schema("machine_report.schema.json")
        jsonschema.validate(payload, schema, resolver=resolver)

    def test_mixed_lm(self):
        proc = run_cli("machine", "lm", "--n", "1", "--r", "0.5", "--json")
        payload = json.loads(proc.stdout)
        assert payload["method"] == "sdp"
        assert payload["excess_risk"] == pytest.approx(
            0.5 / 3 - 0.25 / (4 * math.sqrt(3)), abs=1e-7)

    def test_solver_failure_names_what_is_counted(self, capsys):
        # the Newton steps of all solved labels are summed; the cap holds per label
        assert cli.main(["machine", "lm", "--n", "2", "--r", "0.5", "--tol", "1e-300"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("solver error: gap ") and "above tolerance 1.000e-300" in err
        assert err.rstrip().endswith(
            "after 1000 Newton steps summed over 3 solved labels, at most 500 each")

    def test_domain_error_exit_1(self):
        assert run_cli("machine", "lm", "--n", "0").returncode == 1
        assert run_cli("machine", "lm", "--n", "1", "--r", "0").returncode == 1

    def test_memory_error_exit_1(self, monkeypatch, capsys):
        def exhausted(args):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr(cli, "cmd_machine", exhausted)
        assert cli.main(["machine", "lm", "--n", "100000"]) == cli.EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("error:") and "74.5 GiB" in err

    def test_usage_error_exit_2(self):
        assert run_cli("machine", "bogus").returncode == 2
        assert run_cli("nonsense").returncode == 2

    def test_pure_only_machines_reject_purity(self):
        assert cli.main(["machine", "reversed", "--n", "1", "--r", "0.5"]) == 1
        assert cli.main(["machine", "ed", "--n", "2", "--r", "0.9"]) == 1

    @pytest.mark.parametrize("machine", ["lm", "ed", "ed-n1", "reversed"])
    def test_balanced_machines_reject_side_counts(self, machine, capsys):
        assert cli.main(["machine", machine, "--nA", "3", "--nC", "1"]) == cli.EXIT_DOMAIN
        assert cli.main(["machine", machine, "--nC", "1"]) == cli.EXIT_DOMAIN
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("name,value", [("QCLASS_TOL", "abc"), ("QCLASS_SEED", "1.5"),
                                            ("QCLASS_THREADS", "two")])
    def test_malformed_environment_exit_2(self, name, value):
        proc = run_cli("machine", "lm", env={**os.environ, name: value})
        assert proc.returncode == cli.EXIT_USAGE
        assert proc.stderr.startswith(f"error: {name}=") and "Traceback" not in proc.stderr


class TestSu2Command:
    def test_cg(self):
        proc = run_cli("su2", "cg", "--j1", "1", "--m1", "0", "--j2", "1/2",
                       "--m2", "1/2", "--J", "3/2", "--M", "1/2")
        assert proc.returncode == 0
        assert float(proc.stdout) == pytest.approx(math.sqrt(2 / 3), abs=1e-15)

    @pytest.mark.parametrize("args, want", [
        (("--j1", "1/2", "--m1", "1/2", "--j2", "1/2", "--m2", "-1/2", "--J", "1", "--M", "0"),
         "0.70710678118654757"),
        (("--j1", "1", "--m1", "-1", "--j2", "1/2", "--m2", "1/2", "--J", "1/2", "--M", "-1/2"),
         "-0.81649658092772603"),
    ], ids=["m2", "M"])
    def test_cg_negative_half_integer_token(self, args, want):
        proc = run_cli("su2", "cg", *args)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == want

    def test_mult(self):
        proc = run_cli("su2", "mult", "--n", "4", "--j", "1")
        assert proc.stdout.strip() == "3"


class TestDumpCommand:
    def test_gamma(self, tmp_path):
        out = tmp_path / "gamma.json"
        proc = run_cli("dump", "gamma", "--n", "1", "--out", str(out))
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        sec0 = next(s for s in payload["sectors"] if s["twice_m"] == 0)
        assert sec0["matrix"][0][1] == pytest.approx(1 / 12, abs=1e-14)

    @pytest.mark.parametrize("label", [["--jA", "1/2"], ["--jA", "5"], ["--jC", "-1"],
                                       ["--jA", "0", "--jC", "1/2"]],
                             ids=["parity", "above-n", "negative", "parity-jC"])
    def test_gamma_rejects_foreign_labels(self, label, capsys):
        args = ["dump", "gamma", "--n", "2", "--r", "0.5", *label]
        assert cli.main(args) == cli.EXIT_DOMAIN
        assert capsys.readouterr().err.startswith("error:")

    def test_gamma_accepts_every_label(self, capsys):
        for ta in (1, 3):
            for tc in (1, 3):
                assert cli.main(["dump", "gamma", "--n", "3", "--r", "0.5",
                                 "--jA", f"{ta}/2", "--jC", f"{tc}/2"]) == cli.EXIT_OK
        assert cli.main(["dump", "gamma", "--n", "0"]) == cli.EXIT_DOMAIN

    @pytest.mark.parametrize("label", [["--jA", "5"], ["--jC", "1/2"], ["--jA", "1", "--jC", "1"]],
                             ids=["jA", "jC", "both"])
    def test_seed_rejects_label_flags(self, label, monkeypatch, capsys):
        def not_reached(*args, **kwargs):
            raise AssertionError("dump seed solved although it takes no label")

        monkeypatch.setattr(mixed, "solve_lm", not_reached)
        assert cli.main(["dump", "seed", "--n", "1", "--r", "0.6", *label]) == cli.EXIT_DOMAIN
        assert capsys.readouterr().err.startswith("error:")

    def test_seed(self, tmp_path):
        out = tmp_path / "seed.json"
        proc = run_cli("dump", "seed", "--n", "1", "--r", "0.6", "--out", str(out))
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["constraint_residual"] <= 1e-8
        assert payload["gap"] <= 1e-8
        assert all(min(b["eigenvalues"]) >= -1e-9 for b in payload["blocks"])


@pytest.mark.parametrize("cmd", [["machine", "lm", "--n", "2", "--r", "0.5"],
                                 ["dump", "seed", "--n", "2", "--r", "0.5"],
                                 ["machine", "opt", "--n", "2", "--r", "0.5"],
                                 ["machine", "lm", "--n", "2", "--r", "1.0"],
                                 ["dump", "gamma", "--n", "2", "--r", "0.5"]],
                         ids=["machine-lm", "dump-seed", "machine-opt", "machine-lm-pure",
                              "dump-gamma"])
@pytest.mark.parametrize("tol", ["0", "-1e-8", "nan", "inf"])
def test_bad_tolerance_rejected_before_solving(monkeypatch, capsys, cmd, tol):
    def not_reached(*args, **kwargs):
        raise AssertionError("the solver ran with an unusable tolerance")

    monkeypatch.setattr(mixed, "build_lm_problem", not_reached)
    monkeypatch.setattr(sdp, "rank_one", not_reached)
    monkeypatch.setattr(sdp, "solve_many", not_reached)
    assert cli.main([*cmd, f"--tol={tol}"]) == cli.EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("error:") and "tolerance" in err


def test_verify_takes_no_tolerance(monkeypatch, capsys):
    # each check's tolerance is its own; no flag re-gates a suite
    def not_reached(*args, **kwargs):
        raise AssertionError("a suite ran under a --tol flag")

    monkeypatch.setattr(verify, "run_suites", not_reached)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["verify", "--suite", "su2", "--tol", "1e-3"])
    assert exit_info.value.code == cli.EXIT_USAGE
    assert "--tol" in capsys.readouterr().err


def test_negative_seed_rejected_before_verifying(monkeypatch, capsys):
    def not_reached(*args, **kwargs):
        raise AssertionError("a suite ran with a negative seed")

    monkeypatch.setattr(verify, "run_suites", not_reached)
    assert cli.main(["verify", "--suite", "su2", "--seed", "-1"]) == cli.EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--seed" in err
    # the environment default is checked as the flag is
    proc = run_cli("verify", "--suite", "su2", env={**os.environ, "QCLASS_SEED": "-1"})
    assert proc.returncode == cli.EXIT_DOMAIN and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "--seed" in proc.stderr


class TestVerifyCommand:
    def test_su2_suite_passes(self, tmp_path):
        out = tmp_path / "verify.json"
        proc = run_cli("verify", "--suite", "su2", "--out", str(out))
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["pass"] is True
        ids = [c["id"] for s in payload["suites"] for c in s["checks"]]
        assert "cg_orthonormality" in ids
        # the written report references its manifest sidecar
        file_payload = json.loads(out.read_text())
        assert file_payload["manifest"] == "verify.json.manifest.json"
        assert (tmp_path / "verify.json.manifest.json").exists()
        schema, resolver = load_schema("verify_report.schema.json")
        jsonschema.validate(payload, schema, resolver=resolver)
        manifest = json.loads((tmp_path / "verify.json.manifest.json").read_text())
        mschema, mresolver = load_schema("manifest.schema.json")
        jsonschema.validate(manifest, mschema, resolver=mresolver)

    def test_byte_identical_reports(self):
        a = run_cli("verify", "--suite", "blocks", "--seed", "7")
        b = run_cli("verify", "--suite", "blocks", "--seed", "7")
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0

    def test_machines_suite_named_check(self):
        proc = run_cli("verify", "--suite", "machines")
        payload = json.loads(proc.stdout)
        checks = {c["id"]: c for s in payload["suites"] for c in s["checks"]}
        assert checks["lm_equals_opt_n1_20"]["pass"] is True
        assert proc.returncode == 0

    def test_failed_check_exits_3(self, monkeypatch, capsys):
        from qclass import verify as verify_mod
        monkeypatch.setattr(verify_mod, "run_suites",
                            lambda *a, **k: {"seed": 0, "suites": [], "pass": False})
        assert cli.main(["verify", "--suite", "su2"]) == 3


class TestSweepCommand:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "table.csv"
        proc = run_cli("sweep", "fig1", "--n-max", "2", "--r-min", "0.3",
                       "--r-max", "0.9", "--steps", "4", "--out", str(out),
                       "--tol", "1e-7")
        assert proc.returncode == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,r,R_lm,R_opt,rel_gap,solver_gap"
        assert len(lines) == 9
        manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
        assert manifest["config"]["steps"] == 4
        mschema, mresolver = load_schema("manifest.schema.json")
        jsonschema.validate(manifest, mschema, resolver=mresolver)
        assert manifest["environment"]["numpy"] == np.__version__
        assert manifest["environment"]["cpu_count"] == os.cpu_count()
        assert manifest["elapsed_s"] > 0.0
        rows = [line.split(",") for line in lines[1:]]
        assert all(float(r[4]) >= -1e-7 for r in rows)

    def test_cold_run_never_imports_numpy_ma(self, tmp_path):
        # np.unique, np.union1d and np.isin import numpy.ma on first use, which
        # costs a fresh process more than the whole fig1 sweep at n <= 4 computes
        code = "\n".join([
            "import sys",
            "from qclass import cli",
            "assert cli.main(['sweep', 'fig1', '--n-max', '4', '--r-min', '0.12', '--r-max',"
            f" '1.0', '--steps', '23', '--threads', '1', '--out', {str(tmp_path / 'f.csv')!r}]) == 0",
            f"assert cli.main(['verify', '--suite', 'mixed', '--out', {str(tmp_path / 'v.json')!r}]) == 0",
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'",
        ])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert len((tmp_path / "f.csv").read_text().splitlines()) == 93

    def test_manifest_records_parsed_command(self, tmp_path):
        # an in-process call records its own argv, not the host process's
        argv = ["sweep", "fig1", "--n-max", "1", "--steps", "2", "--out", str(tmp_path / "t.csv")]
        assert cli.main(argv) == cli.EXIT_OK
        manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
        assert manifest["command"] == " ".join(["qclass", *argv])

    def test_empty_sweep_exit_1(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert cli.main(["sweep", "fig1", "--n-max", "0", "--out", str(out)]) == cli.EXIT_DOMAIN
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_bad_tolerance_exit_1(self, tmp_path, capsys, tol):
        out = tmp_path / "table.csv"
        assert cli.main(["sweep", "fig1", "--n-max", "2", "--steps", "3", f"--tol={tol}",
                         "--out", str(out)]) == cli.EXIT_DOMAIN
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_degenerate_grid_exit_1(self, tmp_path, capsys):
        # r_min == r_max with several steps would write the same rows steps times
        out = tmp_path / "table.csv"
        assert cli.main(["sweep", "fig1", "--n-max", "2", "--r-min", "0.5", "--r-max", "0.5",
                         "--steps", "3", "--out", str(out)]) == cli.EXIT_DOMAIN
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_1(self, tmp_path, capsys, threads):
        out = tmp_path / "table.csv"
        assert cli.main(["sweep", "fig1", "--n-max", "1", "--steps", "1",
                         "--threads", threads, "--out", str(out)]) == cli.EXIT_DOMAIN
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


@pytest.mark.parametrize("cmd", [["sweep", "fig1", "--n-max", "1", "--steps", "1"],
                                 ["dump", "gamma", "--n", "1"],
                                 ["verify", "--suite", "su2"]], ids=["sweep", "dump", "verify"])
def test_unwritable_out_exit_1(tmp_path, capsys, cmd):
    out = tmp_path / "missing" / "out.txt"
    assert cli.main([*cmd, "--out", str(out)]) == cli.EXIT_DOMAIN
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("cmd, module, name", [
    (["sweep", "fig1", "--n-max", "1", "--steps", "1"], mixed, "run_sweep"),
    (["verify", "--suite", "su2"], verify, "run_suites"),
    (["dump", "gamma", "--n", "1"], mixed, "gamma_up_mixed"),
    (["dump", "seed", "--n", "1"], mixed, "solve_lm"),
], ids=["sweep", "verify", "dump-gamma", "dump-seed"])
@pytest.mark.parametrize("where", ["missing-dir", "is-dir", "parent-is-file"])
def test_unwritable_out_fails_before_work(tmp_path, monkeypatch, capsys, cmd, module, name,
                                          where):
    def not_reached(*args, **kwargs):
        raise AssertionError(f"{name} ran although --out cannot be written")

    monkeypatch.setattr(module, name, not_reached)
    (tmp_path / "file").write_text("")
    out = {"missing-dir": tmp_path / "missing" / "out.txt", "is-dir": tmp_path,
           "parent-is-file": tmp_path / "file" / "out.txt"}[where]
    assert cli.main([*cmd, "--out", str(out)]) == cli.EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and str(out) in err
    with pytest.raises(OSError) as raised:
        out.write_text("")
    assert err == f"error: {raised.value}\n"

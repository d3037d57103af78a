"""The benchmark's traced run rebinds qclass functions by name; each must still exist."""
import importlib
import importlib.util
import inspect
from pathlib import Path

from qclass import cli, oracle, sdp, su2

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = load_perfbench("tracing")
    for mod_name, attr in tracing.TRACED:
        module = importlib.import_module(f"qclass.{mod_name}")
        assert callable(getattr(module, attr, None)), f"qclass.{mod_name}.{attr}"
    # the traced run reads the coefficient caches' hit and miss counts
    for cached in (su2._cg_doubled, su2._w6j_doubled):
        assert callable(getattr(cached, "cache_info", None)), cached.__name__


def test_simulate_lm_trials_position():
    # the traced run reads the trial count of oracle.simulate_lm as its 4th argument
    assert list(inspect.signature(oracle.simulate_lm).parameters)[3] == "trials"


def test_workloads_never_call_solve(monkeypatch, tmp_path, capsys):
    # the traced run's sdp.solve annotator reads problem.blocks, which an sdp.Bands
    # problem does not have; every workload command must run without reaching it
    workloads = load_perfbench("workloads")

    def refused(*args, **kwargs):
        raise AssertionError("a benchmark workload reached sdp.solve")

    monkeypatch.setattr(sdp, "solve", refused)
    for workload in workloads.ITEMS:
        for part in workloads.parts(workload, 1, str(tmp_path)):
            for argv in part:
                assert cli.main(argv) == cli.EXIT_OK, argv
                capsys.readouterr()

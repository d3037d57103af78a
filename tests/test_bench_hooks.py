"""The benchmark's traced run rebinds qclass functions by name; each must still exist."""
import importlib
import importlib.util
import inspect
from pathlib import Path

from qclass import oracle, su2

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for mod_name, attr in tracing.TRACED:
        module = importlib.import_module(f"qclass.{mod_name}")
        assert callable(getattr(module, attr, None)), f"qclass.{mod_name}.{attr}"
    # the traced run reads the coefficient caches' hit and miss counts
    for cached in (su2._cg_doubled, su2._w6j_doubled):
        assert callable(getattr(cached, "cache_info", None)), cached.__name__


def test_simulate_lm_trials_position():
    # the traced run reads the trial count of oracle.simulate_lm as its 4th argument
    assert list(inspect.signature(oracle.simulate_lm).parameters)[3] == "trials"

"""In-memory spans around calls into qclass's public functions.

The traced child process rebinds module attributes (``sdp.solve``,
``blocks.block_weights``, ...) to wrappers that record one span per call:
name, start, end, parent span and a few attributes.  Callers inside qclass
reach these functions through module globals or module attributes, so the
rebinding sees every call made in that process.  Nothing in ``src/`` is
changed, and the untraced runs never import this module.

Spans are kept in a list and written out once, when the workload ends.
``layer_metrics`` turns a span list into the per-layer metrics.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import time

# (module, attribute) pairs wrapped in a traced run; the span name is
# "<module>.<attribute>".
TRACED = (
    ("sdp", "solve"),
    ("mixed", "solve_lm"),
    ("mixed", "build_lm_problem"),
    ("mixed", "mixed_programmable_risk"),
    ("mixed", "block_trace_norm"),
    ("blocks", "block_weights"),
    ("blocks", "coupled_jz_sector"),
    ("blocks", "coupled_jz"),
    ("blocks", "trace_norm"),
    ("machines", "lm_error"),
    ("oracle", "simulate_lm"),
    ("oracle", "build_average_states"),
    ("oracle", "ed_error_finite"),
    ("verify", "su2_suite"),
    ("verify", "blocks_suite"),
    ("verify", "machines_suite"),
    ("verify", "mixed_suite"),
    ("verify", "oracle_suite"),
)

# Per-layer metric names, in the order BENCHMARK.json lists them.
METRICS = (
    ("sdp.solve.calls", "count"),
    ("sdp.solve.self_s", "s"),
    ("sdp.solve.p50_s", "s"),
    ("sdp.solve.p90_s", "s"),
    ("sdp.iterations", "count"),
    ("sdp.s_per_iter", "s"),
    ("sdp.failures", "count"),
    ("sdp.eigh_flops_computed", "flop"),
    ("mixed.solve_lm.calls", "count"),
    ("mixed.solve_lm.p50_s", "s"),
    ("mixed.solve_lm.p90_s", "s"),
    ("mixed.build_lm_problem.self_s", "s"),
    ("mixed.lane_s.max", "s"),
    ("mixed.lane_s.sum", "s"),
    ("mixed.block_trace_norm.calls", "count"),
    ("mixed.block_trace_norm.self_s", "s"),
    ("blocks.block_weights.calls", "count"),
    ("blocks.block_weights.self_s", "s"),
    ("blocks.coupled_jz_sector.calls", "count"),
    ("blocks.coupled_jz_sector.self_s", "s"),
    ("blocks.coupled_jz.self_s", "s"),
    ("blocks.trace_norm.self_s", "s"),
    ("su2.cg_computed", "count"),
    ("su2.cg_hits", "count"),
    ("su2.w6j_computed", "count"),
    ("su2.w6j_hits", "count"),
    ("machines.lm_error.total_s", "s"),
    ("oracle.simulate_lm.trials_per_s", "1/s"),
    ("oracle.build_average_states.total_s", "s"),
    ("oracle.ed_error_finite.total_s", "s"),
    ("verify.su2.total_s", "s"),
    ("verify.blocks.total_s", "s"),
    ("verify.machines.total_s", "s"),
    ("verify.mixed.total_s", "s"),
    ("verify.oracle.total_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class Tracer:
    """Records spans as [name, start, end, parent index, attrs] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, {}]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            result, exc = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if annotate is not None:
                    annotate(span[4], args, kwargs, result, exc)
        return traced

    def install(self) -> None:
        """Rebind every attribute in TRACED to a span-recording wrapper."""
        for mod_name, attr in TRACED:
            mod = importlib.import_module(f"qclass.{mod_name}")
            name = f"{mod_name}.{attr}"
            setattr(mod, attr, self.wrap(name, getattr(mod, attr), _ANNOTATORS.get(name)))


def _arg(args, kwargs, pos: int, key: str, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _annotate_solve(attrs, args, kwargs, result, exc):
    seed = result if exc is None else getattr(exc, "seed", None)
    if exc is not None:
        attrs["failed"] = 1
    if seed is not None:
        problem = _arg(args, kwargs, 0, "problem")
        attrs["iterations"] = seed.iterations
        attrs["eigh_flops"] = seed.iterations * sum(len(b.channels) ** 3
                                                    for b in problem.blocks)


def _annotate_n(attrs, args, kwargs, result, exc):
    attrs["n"] = _arg(args, kwargs, 0, "n")


def _annotate_trials(attrs, args, kwargs, result, exc):
    attrs["trials"] = _arg(args, kwargs, 3, "trials", 0)


_ANNOTATORS = {
    "sdp.solve": _annotate_solve,
    "mixed.solve_lm": _annotate_n,
    "mixed.mixed_programmable_risk": _annotate_n,
    "oracle.simulate_lm": _annotate_trials,
}


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part of it its child spans cover.

    Children of one span run one after another, so their covered time is
    the sum of their durations, each clipped to the parent's interval.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            _, p_start, p_end, _, _ = spans[parent]
            out[parent] -= max(0.0, min(end, p_end) - max(start, p_start))
    return out


def merge_spans(span_lists: list[list[list]]) -> list[list]:
    """One span list from the lists of several processes, parent indices shifted."""
    out: list[list] = []
    for spans in span_lists:
        base = len(out)
        out.extend([name, start, end, None if parent is None else parent + base, attrs]
                    for name, start, end, parent, attrs in spans)
    return out


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method), 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[list], cache_counts: dict, overhead_frac: float) -> dict:
    """Per-layer metrics from a traced run's spans and su2 cache counters."""
    selfs = self_times(spans)
    durations: dict[str, list[float]] = {}
    self_sum: dict[str, float] = {}
    for (name, start, end, _, _), s in zip(spans, selfs):
        durations.setdefault(name, []).append(end - start)
        self_sum[name] = self_sum.get(name, 0.0) + s

    def calls(name):
        return len(durations.get(name, ()))

    def total(name):
        return sum(durations.get(name, ()))

    solves = [attrs for name, *_, attrs in spans if name == "sdp.solve"]
    iterations = sum(a.get("iterations", 0) for a in solves)
    lanes: dict[int, float] = {}
    for name, start, end, _, attrs in spans:
        if name in ("mixed.solve_lm", "mixed.mixed_programmable_risk"):
            lanes[attrs["n"]] = lanes.get(attrs["n"], 0.0) + (end - start)
    trials = sum(attrs["trials"] for name, *_, attrs in spans if name == "oracle.simulate_lm")
    sim_s = total("oracle.simulate_lm")

    values = {
        "sdp.solve.calls": calls("sdp.solve"),
        "sdp.solve.self_s": self_sum.get("sdp.solve", 0.0),
        "sdp.solve.p50_s": _percentile(durations.get("sdp.solve", []), 50),
        "sdp.solve.p90_s": _percentile(durations.get("sdp.solve", []), 90),
        "sdp.iterations": iterations,
        "sdp.s_per_iter": total("sdp.solve") / iterations if iterations else 0.0,
        "sdp.failures": sum(a.get("failed", 0) for a in solves),
        "sdp.eigh_flops_computed": sum(a.get("eigh_flops", 0) for a in solves),
        "mixed.solve_lm.calls": calls("mixed.solve_lm"),
        "mixed.solve_lm.p50_s": _percentile(durations.get("mixed.solve_lm", []), 50),
        "mixed.solve_lm.p90_s": _percentile(durations.get("mixed.solve_lm", []), 90),
        "mixed.build_lm_problem.self_s": self_sum.get("mixed.build_lm_problem", 0.0),
        "mixed.lane_s.max": max(lanes.values(), default=0.0),
        "mixed.lane_s.sum": sum(lanes.values()),
        "mixed.block_trace_norm.calls": calls("mixed.block_trace_norm"),
        "mixed.block_trace_norm.self_s": self_sum.get("mixed.block_trace_norm", 0.0),
        "blocks.block_weights.calls": calls("blocks.block_weights"),
        "blocks.block_weights.self_s": self_sum.get("blocks.block_weights", 0.0),
        "blocks.coupled_jz_sector.calls": calls("blocks.coupled_jz_sector"),
        "blocks.coupled_jz_sector.self_s": self_sum.get("blocks.coupled_jz_sector", 0.0),
        "blocks.coupled_jz.self_s": self_sum.get("blocks.coupled_jz", 0.0),
        "blocks.trace_norm.self_s": self_sum.get("blocks.trace_norm", 0.0),
        "su2.cg_computed": cache_counts["cg_misses"],
        "su2.cg_hits": cache_counts["cg_hits"],
        "su2.w6j_computed": cache_counts["w6j_misses"],
        "su2.w6j_hits": cache_counts["w6j_hits"],
        "machines.lm_error.total_s": total("machines.lm_error"),
        "oracle.simulate_lm.trials_per_s": trials / sim_s if sim_s else 0.0,
        "oracle.build_average_states.total_s": total("oracle.build_average_states"),
        "oracle.ed_error_finite.total_s": total("oracle.ed_error_finite"),
        "verify.su2.total_s": total("verify.su2_suite"),
        "verify.blocks.total_s": total("verify.blocks_suite"),
        "verify.machines.total_s": total("verify.machines_suite"),
        "verify.mixed.total_s": total("verify.mixed_suite"),
        "verify.oracle.total_s": total("verify.oracle_suite"),
        "trace.overhead_frac": overhead_frac,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}


def self_time_by_name(spans: list[list]) -> dict[str, float]:
    """Summed self time of each span name, largest first."""
    out: dict[str, float] = {}
    for (name, *_), s in zip(spans, self_times(spans)):
        out[name] = out.get(name, 0.0) + s
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))

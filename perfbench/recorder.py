"""Span recorder for the traced benchmark pass.

The recorder wraps every public function of the epinet layers from outside:
each alias of the function in any `epinet.*` namespace is replaced, so calls
made through `cli` and `verify` are caught too. Spans (name, start, end,
parent, op id) stay in memory until the pass ends. Per-layer metrics are
derived from the spans and from a few counts read off returned objects.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("model_core", "mean_field", "exact_chain", "monte_carlo", "verify",
          "cli")

SUITES = ("ordering", "u-bound", "lp", "non-absorption", "linear", "jacobian",
          "stability-er", "mixing", "stationary", "fixed-point")

# Per-op times from the untraced passes of a traced run.
OP_METRICS = ("meanfield.sis-nia_s", "meanfield.sirs-weighted_s",
              "simulate.sirs_s", "simulate.sirs-weighted_s", "sweep.sis-nia_s",
              "exact.sirs-path8_s", "exact.siv-id-path7_s")

SELF_TIMED = ("model_core.generate", "model_core.parse_edge_list",
              "model_core.spectral_radius", "model_core.threshold_ratio",
              "mean_field.find_fixed_point", "mean_field.mf_step",
              "mean_field.mf_jacobian",
              "exact_chain.build_transition_matrix", "exact_chain.stationary",
              "exact_chain.mixing_time_exact", "exact_chain.mixing_time_bound",
              "exact_chain.lp_marginal_max",
              "monte_carlo.mc_ensemble", "monte_carlo.ensemble_to_csv")

CALL_COUNTED = ("model_core.spectral_radius", "mean_field.find_fixed_point",
                "mean_field.mf_step", "mean_field.mf_jacobian",
                "exact_chain.build_transition_matrix",
                "exact_chain.lp_marginal_max", "monte_carlo.mc_ensemble")

# name -> (unit, better)
METRICS: dict[str, tuple[str, str]] = {}
for _layer in LAYERS:
    METRICS[f"{_layer}.self_s"] = ("s", "lower")
    METRICS[f"{_layer}.errors"] = ("count", "lower")
for _fn in SELF_TIMED:
    METRICS[f"{_fn}.self_s"] = ("s", "lower")
for _fn in CALL_COUNTED:
    METRICS[f"{_fn}.calls"] = ("count", "lower")
METRICS.update({
    "model_core.power_iterations": ("count", "lower"),
    "mean_field.fp_iterations": ("count", "lower"),
    "mean_field.mf_step.mean_us": ("us", "lower"),
    "exact_chain.states": ("count", "lower"),
    "exact_chain.S_bytes_max": ("bytes", "lower"),
    "exact_chain.S_density": ("fraction", "higher"),
    "exact_chain.mixing_steps": ("count", "lower"),
    "monte_carlo.replicate_steps": ("count", "lower"),
    "monte_carlo.step_us": ("us", "lower"),
    "monte_carlo.live_frac": ("fraction", "higher"),
    "cli.commands": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
})
for _suite in SUITES:
    METRICS[f"verify.{_suite}.total_s"] = ("s", "lower")
    METRICS[f"verify.{_suite}.checks"] = ("count", "higher")
for _op in OP_METRICS:
    METRICS[_op] = ("s", "lower")

COUNT_METRICS = tuple(name for name, (unit, _) in METRICS.items()
                      if unit in ("count", "bytes", "fraction"))


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error", "info")

    def __init__(self, name: str, parent: int, op: str | None):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = time.perf_counter()
        self.end = self.start
        self.error = False
        self.info: dict | None = None

    def to_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


# Counts read off the objects that the wrapped functions return. Each takes
# the bound call arguments and the result.
def _iterations_info(args, rep):
    return {"iterations": rep.iterations}


def _matrix_info(args, S):
    return {"states": S.size, "bytes": S.entries.nbytes,
            "nnz": int(np.count_nonzero(S.entries))}


def _mixing_info(args, rep):
    return {"steps": args["cap"] if rep.t_mix is None else rep.t_mix}


def _ensemble_info(args, rep):
    t_max = len(rep.t) - 1
    steps = sum(t_max if a is None else a for a in rep.absorbed_steps)
    return {"replicate_steps": steps, "slots": rep.n_reps * t_max}


def _suite_info(args, res):
    return {"suite": res.suite, "checks": res.checks}


INFO = {
    "model_core.spectral_radius": _iterations_info,
    "mean_field.find_fixed_point": _iterations_info,
    "exact_chain.build_transition_matrix": _matrix_info,
    "exact_chain.mixing_time_exact": _mixing_info,
    "monte_carlo.mc_ensemble": _ensemble_info,
    "verify.run_suite": _suite_info,
}


def epinet_namespaces() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "epinet"
                                    or name.startswith("epinet."))]


class Recorder:
    """Install wrappers on the epinet layers, record spans, restore."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: str | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"epinet.{layer}"]
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{name}")
        for ns in epinet_namespaces():
            for attr, val in list(vars(ns).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None:
                    self._patched.append((ns, attr, val))
                    setattr(ns, attr, wrapper)

    def restore(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, fn, name: str):
        info = INFO.get(name)
        signature = inspect.signature(fn) if info else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                self._close(span)
            if info is not None:
                # Reading counts off the result is timed as a child span so
                # that it is not charged to the caller's self time.
                note = self._open("trace.info")
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info = info(bound.arguments, result)
                self._close(note)
            return result

        return wrapper

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1, self._op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id: str):
        """Context for one command: a root `cli.main` span tagged op_id."""
        self._op = op_id
        span = self._open("cli.main")
        try:
            yield span
        finally:
            self._close(span)
            self._op = None

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Self times, call counts and work counts per layer from the spans."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    errors: dict[str, int] = defaultdict(int)
    infos: dict[str, list[dict]] = defaultdict(list)
    suite_time: dict[str, float] = defaultdict(float)
    for span, children in zip(spans, child_time):
        layer = span.name.split(".", 1)[0]
        own = span.end - span.start - children
        self_time[span.name] += own
        self_time[layer] += own
        calls[span.name] += 1
        errors[layer] += span.error
        if span.info is not None:
            infos[span.name].append(span.info)
            if span.name == "verify.run_suite":
                suite_time[span.info["suite"]] += span.end - span.start

    def total(name: str, key: str) -> int:
        return sum(i[key] for i in infos[name])

    out: dict[str, float] = {name: 0 for name in METRICS}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_time[layer]
        out[f"{layer}.errors"] = errors[layer]
    for fn in SELF_TIMED:
        out[f"{fn}.self_s"] = self_time[fn]
    for fn in CALL_COUNTED:
        out[f"{fn}.calls"] = calls[fn]
    out["cli.commands"] = sum(1 for s in spans if s.parent < 0)
    out["model_core.power_iterations"] = total("model_core.spectral_radius",
                                               "iterations")
    out["mean_field.fp_iterations"] = total("mean_field.find_fixed_point",
                                            "iterations")
    if calls["mean_field.mf_step"]:
        out["mean_field.mf_step.mean_us"] = (
            1e6 * self_time["mean_field.mf_step"]
            / calls["mean_field.mf_step"])
    matrices = infos["exact_chain.build_transition_matrix"]
    if matrices:
        out["exact_chain.states"] = max(i["states"] for i in matrices)
        out["exact_chain.S_bytes_max"] = max(i["bytes"] for i in matrices)
        out["exact_chain.S_density"] = (
            sum(i["nnz"] for i in matrices)
            / sum(i["states"] ** 2 for i in matrices))
    out["exact_chain.mixing_steps"] = total("exact_chain.mixing_time_exact",
                                            "steps")
    steps = total("monte_carlo.mc_ensemble", "replicate_steps")
    out["monte_carlo.replicate_steps"] = steps
    if steps:
        out["monte_carlo.step_us"] = (
            1e6 * self_time["monte_carlo.mc_ensemble"] / steps)
        out["monte_carlo.live_frac"] = (
            steps / total("monte_carlo.mc_ensemble", "slots"))
    for info in infos["verify.run_suite"]:
        out[f"verify.{info['suite']}.checks"] += info["checks"]
    for suite, seconds in suite_time.items():
        out[f"verify.{suite}.total_s"] = seconds
    return out

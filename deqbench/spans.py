"""Spans around deqlab's public functions, recorded from outside the package.

``Tracer.install()`` replaces every public function of the traced modules
with a wrapper, under every name its callers look it up by.  deqlab modules
import with ``from .x import y``, so ``sample`` is reached as
``experiments.sample``, ``nonlinear_deq.sample`` and ``train_probe.sample``
as well as ``ensembles.sample``; ``numerics.*`` is looked up on the module
itself.  A wrapper keeps one span per call in memory (name, parent, start,
end, and the ``iterations``/``converged`` fields of a returned
``FixedPointResult`` or ``SelfConsistentState``); ``Tracer.dump`` writes them
out once the experiment has ended.

Spans nest through one stack, which holds because the benchmark runs deqlab
with ``--threads 1``.

``layer_metrics`` turns the spans of one traced run into the per-layer
metrics.  A span's self time is its duration minus that of its direct
children; a layer's ``self_s`` sums the self times of its spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types

TRACED_MODULES = (
    "ensembles",
    "numerics",
    "linear_deq",
    "nonlinear_deq",
    "train_probe",
    "experiments",
    "cli",
)

# Every module whose namespace may hold an imported alias of a traced function.
ALIAS_MODULES = TRACED_MODULES + ("analytic_moments", "freeprob")

# (layer, field) pairs reported by a traced run, in output order.  ``calls``,
# ``iterations`` and ``converged`` count spans whose name is the layer's;
# ``self_s`` sums the self time of every span the layer owns (see layer_of).
LAYER_METRICS = (
    ("ensembles.sample", "calls"),
    ("ensembles.sample", "self_s"),
    ("numerics.gram_inverse_sq_trace", "calls"),
    ("numerics.gram_inverse_sq_trace", "self_s"),
    ("numerics.spectral_radius_estimate", "calls"),
    ("numerics.spectral_radius_estimate", "self_s"),
    ("numerics.sym_spectrum", "calls"),
    ("numerics.sym_spectrum", "self_s"),
    ("numerics.solve_linear", "calls"),
    ("numerics.solve_linear", "self_s"),
    ("numerics.gauss_hermite_expect", "calls"),
    ("numerics.gauss_hermite_expect", "self_s"),
    ("nonlinear_deq.sigma_h_selfconsistent", "calls"),
    ("nonlinear_deq.sigma_h_selfconsistent", "iterations"),
    ("nonlinear_deq.predict_critical_v", "calls"),
    ("nonlinear_deq.predict_critical_v", "self_s"),
    ("nonlinear_deq.residual_sweep", "calls"),
    ("nonlinear_deq.residual_sweep", "self_s"),
    ("nonlinear_deq.iterate_h", "calls"),
    ("nonlinear_deq.iterate_h", "iterations"),
    ("nonlinear_deq.iterate_h", "converged"),
    ("nonlinear_deq.iterate_h", "self_s"),
    ("nonlinear_deq.radius_empirical", "self_s"),
    ("linear_deq.estimate_length_variance", "self_s"),
    ("train_probe.deq_forward", "calls"),
    ("train_probe.deq_forward", "iterations"),
    ("train_probe.deq_forward", "converged"),
    ("train_probe.deq_forward", "self_s"),
    ("train_probe.deq_vjp", "calls"),
    ("train_probe.deq_vjp", "self_s"),
    ("train_probe.train_stability_sweep", "self_s"),
    ("experiments.run", "self_s"),
    ("cli.write", "self_s"),
)

UNITS = {"calls": "count", "iterations": "count", "converged": "count", "self_s": "s"}


def layer_of(name: str) -> str:
    """The layer a span's self time is charged to.

    The Haar QR is part of sampling; every function of ``experiments`` (the
    runner and its per-cell functions) is the experiments layer; the CSV and the
    manifest writers are ``cli.write``.  Any other span is its own layer.
    """
    if name == "ensembles.haar_orthogonal":
        return "ensembles.sample"
    if name.startswith("experiments."):
        return "experiments.run"
    if name in ("cli.write_csv", "cli.write_manifest"):
        return "cli.write"
    return name


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # One entry per call, filled in when the call returns or raises.
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []

    def install(self) -> None:
        modules = {short: importlib.import_module(f"deqlab.{short}") for short in ALIAS_MODULES}
        wrapped: dict[int, object] = {}
        for short in TRACED_MODULES:
            module = modules[short]
            for attr, obj in list(vars(module).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    wrapped[id(obj)] = self._wrap(obj, f"{short}.{attr}")
        # Rebind every alias of a wrapped function, including the values of
        # module-level dicts such as experiments.EXPERIMENTS, which cli reads.
        for module in [importlib.import_module("deqlab"), *modules.values()]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and isinstance(obj, types.FunctionType):
                    setattr(module, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if isinstance(value, types.FunctionType) and id(value) in wrapped:
                            obj[key] = wrapped[id(value)]

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                iterations = getattr(result, "iterations", None)
                converged = getattr(result, "converged", None)
                spans[index] = (
                    name_id,
                    parent,
                    start,
                    end,
                    iterations if isinstance(iterations, int) else -1,
                    -1 if converged is None else int(bool(converged)),
                )

        return traced

    def dump(self, path: str, window: tuple[float, float]) -> None:
        """Write the spans and the untraced-equivalent window [start, end]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "window": list(window), "spans": self.spans}, fh)


def layer_metrics(trace: dict) -> tuple[dict[str, float], float]:
    """Per-layer metrics of one traced run, and the window's unlisted time.

    Only spans that start inside the window (the experiment proper) count.
    The second value is the window's duration minus the self time of every
    listed layer: functions the table does not name, plus the experiment
    code between traced calls.
    """
    names = trace["names"]
    start, end = trace["window"]
    live = {i: s for i, s in enumerate(trace["spans"]) if s[2] >= start}
    child_time = dict.fromkeys(live, 0.0)
    for s in live.values():
        if s[1] in child_time:
            child_time[s[1]] += s[3] - s[2]
    totals: dict[str, dict[str, float]] = {}

    def total(key: str) -> dict[str, float]:
        return totals.setdefault(key, {"calls": 0, "iterations": 0, "converged": 0, "self_s": 0.0})

    for index, s in live.items():
        name = names[s[0]]
        row = total(name)
        row["calls"] += 1
        row["iterations"] += max(s[4], 0)
        row["converged"] += max(s[5], 0)
        total(layer_of(name))["self_s"] += (s[3] - s[2]) - child_time[index]
    metrics = {}
    listed = {layer for layer, _ in LAYER_METRICS}
    for layer, field in LAYER_METRICS:
        metrics[f"{layer}.{field}"] = totals.get(layer, {}).get(field, 0)
    unlisted = (end - start) - sum(totals[layer]["self_s"] for layer in listed if layer in totals)
    return metrics, unlisted

"""Span tracing of svschemes from outside the package.

``Tracer.install`` replaces public functions of the svschemes modules
with wrappers that record one span per call: (name, start, end, parent
span, count). A function is replaced under every module name it is
bound to, so ``from .schemes import drift_and_mult`` in ``coupling``,
``pricing``, ``mlmc`` and ``analysis`` is traced as well. The model's
coefficient callables are traced by wrapping ``scott_model``, which
returns a spec whose callable fields are wrapped.

Spans stay in memory; ``layer_metrics`` reduces them to per-layer self
times and counts. A span's self time is its duration minus the
durations of its direct children. Single-threaded calls nest, so the
self times of all spans add up to the duration of the root span.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("rng", "models", "schemes", "coupling", "pricing", "mlmc", "analysis", "cli")

# (span name, module, attribute); a dotted attribute names a method.
# The layer of a span is the part of its name before the first dot.
# models.build wraps the spec's callables; mlmc.sampler names the spans
# of the samplers that the two factories return.
TARGETS = (
    ("rng.stream", "rng", "RngStream.__init__"),
    ("rng.normal", "rng", "RngStream.normal"),
    ("rng.uniform", "rng", "RngStream.uniform"),
    ("rng.uniform", "rng", "RngStream.uniform_open"),
    ("models.build", "models", "scott_model"),
    ("schemes.factor", "schemes", "draw_factor_paths"),
    ("schemes.brownian", "schemes", "draw_brownian_increments"),
    ("schemes.coarsen", "schemes", "coarsen_factor_draws"),
    ("schemes.drift_mult", "schemes", "drift_and_mult"),
    ("schemes.assemble", "schemes", "_assemble_x"),
    ("schemes.cmt", "schemes", "cmt_paths"),
    ("coupling.plain", "coupling", "plain_coupling_from_draws"),
    ("coupling.traj", "coupling", "traj_coupling_from_draws"),
    ("coupling.cmt", "coupling", "cmt_coupling_from_draws"),
    ("coupling.terminal", "coupling", "terminal_coupling_from_draws"),
    ("coupling.lookback_levels", "coupling", "coupled_lookback_levels"),
    ("coupling.lookback_payoffs", "coupling", "lookback_payoffs_from_draws"),
    ("coupling.lookback_single", "coupling", "lookback_single_level"),
    ("coupling.bridge", "coupling", "bridge_min"),
    ("pricing.romano_touzi", "pricing", "romano_touzi_call"),
    ("pricing.conditional", "pricing", "conditional_call_values"),
    ("pricing.bs_call", "pricing", "bs_call"),
    ("pricing.mc_estimate", "pricing", "_mc_estimate"),
    ("mlmc.driver", "mlmc", "mlmc_estimate"),
    ("mlmc.sampler", "mlmc", "lookback_level_sampler"),
    ("mlmc.sampler", "mlmc", "call_level_sampler"),
    ("analysis.conv", "analysis", "_conv_experiment"),
    ("analysis.mlmc_cost", "analysis", "run_mlmc_cost"),
    ("cli.main", "cli", "main"),
)


def _size(args, out):
    return int(np.size(out))


def _path_steps_of_drift(args, out):
    return int(np.size(out[0]))


def _path_steps_of_nodes(args, out):
    x = out[0]
    return int(np.size(x) - np.size(x[0]))


def _factor_batch(args, out):
    return int(np.size(out.dW))


# Count recorded with each span, by span name.
COUNTERS = {
    "rng.normal": _size,
    "rng.uniform": _size,
    "schemes.factor": _factor_batch,
    "schemes.drift_mult": _path_steps_of_drift,
    "schemes.cmt": _path_steps_of_nodes,
}


class Tracer:
    """Records spans of one run; ``install`` patches the loaded svschemes."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.missing: list[str] = []
        self.levels: set[int] = set()
        self._stack = [-1]

    def wrap(self, name: str, fn, counter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            out = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                count = counter(args, out) if counter is not None and out is not None else 0
                spans[index] = (name, start, end, parent, count)

        return traced

    def _wrap_spec(self, build):
        """Wrap a spec factory so every callable field of its spec is traced."""
        def traced_build(*args, **kwargs):
            spec = build(*args, **kwargs)
            fields = {
                f.name: self.wrap(f"models.coeff.{f.name}", getattr(spec, f.name), _size)
                for f in dataclasses.fields(spec) if callable(getattr(spec, f.name))
            }
            return dataclasses.replace(spec, **fields)
        return functools.wraps(build)(traced_build)

    def _wrap_factory(self, factory):
        """Wrap a level-sampler factory so each sampler call is a span."""
        def count_samples(args, out):
            self.levels.add(int(args[0]))
            return int(args[2])

        def traced_factory(*args, **kwargs):
            return self.wrap("mlmc.sampler", factory(*args, **kwargs), count_samples)
        return functools.wraps(factory)(traced_factory)

    def install(self):
        """Patch every target; record the ones that no longer exist."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "svschemes" or name.startswith("svschemes.")]
        for name, module_name, attr in TARGETS:
            try:
                module = importlib.import_module(f"svschemes.{module_name}")
            except ImportError:
                self.missing.append(f"svschemes.{module_name}")
                continue
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.missing.append(f"svschemes.{module_name}.{attr}")
                continue
            if name == "models.build":
                wrapped = self.wrap(name, self._wrap_spec(original))
            elif name == "mlmc.sampler":
                wrapped = self._wrap_factory(original)
            else:
                wrapped = self.wrap(name, original, COUNTERS.get(name))
            if owner_name:
                setattr(owner, method, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    def dump(self, path: str):
        """Write the spans once, at the end of the run."""
        fields = ("name", "start", "end", "parent", "count")
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "fields": fields, "spans": self.spans}, fh)


def self_times(spans) -> list[float]:
    """Self time of each span: duration minus its direct children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent, count in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (name, start, end, parent, count) in enumerate(spans)]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times and counts from the recorded spans."""
    spans = tracer.spans
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        self_s[name] += own
        calls[name] += 1
        counts[name] += span[4]

    def total(table, prefix):
        return sum(v for k, v in table.items() if k == prefix or k.startswith(prefix + "."))

    out = {f"{layer}.self_s": total(self_s, layer) for layer in LAYERS}
    out.update({
        "rng.normal_s": self_s["rng.normal"],
        "rng.normals": counts["rng.normal"],
        "rng.uniform_s": self_s["rng.uniform"],
        "rng.uniforms": counts["rng.uniform"],
        "rng.stream_s": self_s["rng.stream"],
        "rng.streams": calls["rng.stream"],
        "models.coeff_s": total(self_s, "models.coeff"),
        "models.coeff_calls": total(calls, "models.coeff"),
        "models.coeff_evals": total(counts, "models.coeff"),
        "schemes.factor_s": self_s["schemes.factor"],
        "schemes.coarsen_s": self_s["schemes.coarsen"],
        "schemes.drift_mult_s": self_s["schemes.drift_mult"],
        "schemes.assemble_s": self_s["schemes.assemble"],
        "schemes.cmt_s": self_s["schemes.cmt"],
        "schemes.path_steps": counts["schemes.drift_mult"] + counts["schemes.cmt"],
        "coupling.bridge_s": self_s["coupling.bridge"],
        "coupling.bridge_calls": calls["coupling.bridge"],
        "pricing.bs_call_s": self_s["pricing.bs_call"],
        "mlmc.driver_s": self_s["mlmc.driver"],
        "mlmc.batches": calls["mlmc.sampler"],
        "mlmc.samples": counts["mlmc.sampler"],
        "mlmc.levels": len(tracer.levels),
        "trace.spans": len(spans),
        "trace.self_sum_s": sum(self_s.values()),
    })
    out["schemes.largest_factor_batch"] = max(
        (s[4] for s in spans if s[0] == "schemes.factor"), default=0)
    return out

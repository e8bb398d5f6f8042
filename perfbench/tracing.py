"""Spans around calls into rbmlogic's public functions, kept in memory.

The tracer wraps module-level functions from the outside: every name in a
loaded ``rbmlogic`` module that is bound to a traced function is replaced
by a wrapper for as long as ``Tracer.installed()`` is active, so calls
made inside the package (``tasks.solve`` -> ``multistart``) are seen too.
Each span records its name, start, end, parent span and operation id.
Work counters for a span are computed from its arguments and result, at
the same boundary.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

# (module, function) pairs whose calls become spans named "module.function".
TRACED = (
    ("synthesis", "builtin_model"),
    ("merge", "compose"),
    ("cli", "save_model"),
    ("cli", "load_model"),
    ("tasks", "solve"),
    ("tasks", "model_interface"),
    ("sampler", "multistart"),
    ("training", "train"),
    ("training", "cd_step"),
    ("training", "evaluate_accuracy"),
    ("training", "reconstruction_error"),
    ("exact", "exact_visible_distribution"),
    ("model", "free_energy_batch"),
)
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)

# Counters accumulated at span boundaries by _count(), then ratios of them.
COUNTERS = (
    "sampler.chain_sweeps", "sampler.samples_recorded", "sampler.rng_draws",
    "sampler.flops", "sampler.bytes", "training.cd_rows", "training.cd_sweeps",
    "exact.states_enumerated", "cli.model_bytes",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, dict[str, float]] = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(float)))
    op: str = "setup"
    _stack: list[int] = field(default_factory=list)

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.op)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            if name in _COUNTED:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                _count(self.counts[self.op], name, call.arguments, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Route calls to the traced functions through span wrappers."""
        wrappers = {}
        for mod, fn in TRACED:
            target = getattr(importlib.import_module(f"rbmlogic.{mod}"), fn)
            wrappers[id(target)] = (target, self._wrap(f"{mod}.{fn}", target))
        patched = []
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "rbmlogic"]:
            for attr, value in list(vars(module).items()):
                target, wrapper = wrappers.get(id(value), (None, None))
                if target is not None and value is target:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def summary(self) -> dict[str, float]:
        """Per-layer calls, busy and self time, and counters, per operation.

        Set-up counts as one operation of its own: a value is the set-up
        total plus the mean over the traced operations.
        """
        n_ops = len({s.op for s in self.spans if s.op != "setup"}) or 1
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        totals = {"setup": defaultdict(float), "ops": defaultdict(float)}
        for i, s in enumerate(self.spans):
            bucket = totals["setup" if s.op == "setup" else "ops"]
            duration = s.end - s.start
            bucket[f"{s.name}.calls"] += 1
            bucket[f"{s.name}.self_s"] += duration - child_time[i]
            if not self._has_ancestor(i, s.name):
                bucket[f"{s.name}.busy_s"] += duration
        for op, counts in self.counts.items():
            bucket = totals["setup" if op == "setup" else "ops"]
            for key, value in counts.items():
                bucket[key] += value

        def per_op(key: str) -> float:
            return float(totals["setup"][key] + totals["ops"][key] / n_ops)

        out = {}
        for name in SPAN_NAMES:
            for suffix in ("calls", "busy_s", "self_s"):
                out[f"{name}.{suffix}"] = per_op(f"{name}.{suffix}")
        for key in COUNTERS:
            out[key] = per_op(key)
        out["sampler.record_ratio"] = _ratio(
            out["sampler.samples_recorded"], out["sampler.chain_sweeps"])
        out["sampler.free_ratio"] = _ratio(
            per_op("sampler.free_units"), per_op("sampler.visible_units"))
        out["sampler.gflops"] = _ratio(
            out["sampler.flops"], 1e9 * out["sampler.multistart.busy_s"])
        return out

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(
            [[s.name, s.start, s.end, s.parent, s.op] for s in self.spans]))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


_COUNTED = ("sampler.multistart", "training.cd_step",
            "exact.exact_visible_distribution", "cli.save_model")


def _count(counts, name, arguments, result) -> None:
    """Work done by one call, computed from its arguments and result."""
    if name == "sampler.multistart":
        from rbmlogic.merge import MergedModel

        model, clamp = arguments["model"], arguments["clamp"]
        rbm = model.rbm if isinstance(model, MergedModel) else model
        constants = model.constants if isinstance(model, MergedModel) else {}
        nv, nh = rbm.n_visible, rbm.n_hidden
        seeds, sweeps = arguments["seeds"], arguments["n_sweeps"]
        chains = len(seeds) if seeds is not None else arguments["n_chains"]
        chain_sweeps = chains * sweeps
        clamped = set(getattr(clamp, "assignments", clamp) or {}) | set(constants)
        counts["sampler.chain_sweeps"] += chain_sweeps
        counts["sampler.samples_recorded"] += result.total
        # Stream contract: n_visible initial draws per chain, then
        # n_hidden + n_visible uniforms per sweep, clamped or not.
        counts["sampler.rng_draws"] += chains * nv + chain_sweeps * (nh + nv)
        # Two (chains x nv x nh) matmuls per sweep, two flops per multiply-add.
        counts["sampler.flops"] += 4 * chain_sweeps * nv * nh
        # Computed, not measured: W read twice per sweep, plus four float64
        # arrays per layer per chain (activation, probability, uniform, state).
        counts["sampler.bytes"] += 8 * sweeps * (2 * nv * nh + 4 * chains * (nv + nh))
        counts["sampler.free_units"] += chain_sweeps * (nv - len(clamped))
        counts["sampler.visible_units"] += chain_sweeps * nv
    elif name == "training.cd_step":
        k = arguments["k"] or arguments["config"].k_initial
        rows = len(arguments["batch"])
        counts["training.cd_rows"] += rows
        counts["training.cd_sweeps"] += rows * k
    elif name == "exact.exact_visible_distribution":
        counts["exact.states_enumerated"] += len(result.probabilities)
    elif name == "cli.save_model":
        counts["cli.model_bytes"] += sum(Path(p).stat().st_size for p in result)

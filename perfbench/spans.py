"""Span tracing around the public functions of each semisplit module.

The benchmark patches each wrapped name wherever a caller looks it up: on
every ``semisplit`` module that bound the function by import, and on the
class for methods.  A wrapped call records a span (layer, start, end, parent
span, whether it raised); spans stay in memory and are reduced to per-layer
metrics when the job list ends.  No file of the package changes.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import sys
import time
from typing import Callable

import numpy as np


class CoverageError(RuntimeError):
    """A name the benchmark wraps no longer exists."""


# (layer, module, attribute path).  Two targets may feed one layer.  The
# module-level ``semigroups.evaluate`` only forwards to the methods below, so
# it is left unwrapped to avoid counting each evaluation twice.
TARGETS = (
    ("opnorm.opnorm_lower", "semisplit.opnorm", "opnorm_lower"),
    ("opnorm.opnorm_oracle", "semisplit.opnorm", "opnorm_oracle"),
    ("semigroups.evaluate", "semisplit.semigroups", "CubeNoiseSemigroup.evaluate"),
    ("semigroups.evaluate", "semisplit.semigroups", "DiagonalMultiplierSemigroup.evaluate"),
    ("splitter.split", "semisplit.splitter", "split"),
    ("spaces.OperatorMatrix.on", "semisplit.spaces", "OperatorMatrix.on"),
    ("geometry.harmonic_measure", "semisplit.geometry", "harmonic_measure"),
    ("geometry.brownian_exit_theta", "semisplit.geometry", "brownian_exit_theta"),
    ("ideals.generic_split", "semisplit.ideals", "generic_split"),
    # the factories are patched so that the gamma of every ideal they build is wrapped
    ("ideals.gamma", "semisplit.ideals", "make_gamma2"),
    ("ideals.gamma", "semisplit.ideals", "make_schatten_like"),
    ("subspaces.build_projection", "semisplit.subspaces", "build_projection"),
    ("subspaces.restricted_isomorphism_check", "semisplit.subspaces", "restricted_isomorphism_check"),
    ("cli.main", "semisplit.cli", "main"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

_IDEAL_FACTORIES = ("make_gamma2", "make_schatten_like")


class Tracer:
    """In-memory span recorder plus the counters measured at layer boundaries."""

    def __init__(self) -> None:
        # one tuple per call: (layer, start, end, parent index or -1, raised)
        self.spans: list[tuple[str, float, float, int, bool]] = []
        self._stack: list[int] = []
        self._seen_norm_calls: set[tuple] = set()
        self.norm_repeats = 0
        self.evaluate_bytes = 0
        # time spent in counter hooks; span clocks run without it, so hashing
        # operators for repeat_frac inflates no layer's time or self time
        self.hook_s = 0.0

    def _clock(self) -> float:
        return time.perf_counter() - self.hook_s

    def _hook(self, fn: Callable, *args) -> None:
        t = time.perf_counter()
        fn(*args)
        self.hook_s += time.perf_counter() - t

    def wrap(self, layer: str, fn: Callable, before=None, after=None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                self._hook(before, args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            start = self._clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = self._clock()
                stack.pop()
                spans[idx] = (layer, start, end, parent, raised)
            if after is not None:
                self._hook(after, result)
            return result

        return traced

    # --- counters ------------------------------------------------------------

    def _norm_key_hook(self, fn: Callable):
        sig = inspect.signature(fn)

        def before(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            op = a["A"]
            digest = hashlib.sha256(np.ascontiguousarray(op.entries))
            digest.update(np.ascontiguousarray(op.domain.weights))
            digest.update(np.ascontiguousarray(op.codomain.weights))
            key = (digest.digest(), op.entries.shape, a["p"], a["q"], a["restarts"], a["seed"])
            if key in self._seen_norm_calls:
                self.norm_repeats += 1
            else:
                self._seen_norm_calls.add(key)

        return before

    def _evaluate_bytes(self, result) -> None:
        # computed, not measured: one dense complex128 d x d matrix per call
        d = result.entries.shape[0]
        self.evaluate_bytes += 16 * d * d

    # --- patching ------------------------------------------------------------

    def install(self) -> None:
        """Patch every target; raise CoverageError if a wrapped name is gone."""
        modules = [m for name, m in list(sys.modules.items())
                   if (name == "semisplit" or name.startswith("semisplit.")) and m is not None]
        for layer, module_name, path in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                raise CoverageError(f"module {module_name} is not importable")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner):
                raise CoverageError(f"wrapped name {module_name}.{path} no longer exists")
            if owner_name:
                self._patch_method(layer, owner, attr)
            else:
                self._patch_function(layer, modules, getattr(module, attr))

    def _patch_method(self, layer: str, cls: type, attr: str) -> None:
        raw = vars(cls)[attr]
        after = self._evaluate_bytes if layer == "semigroups.evaluate" else None
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(layer, raw.__func__, after=after)))
        else:
            setattr(cls, attr, self.wrap(layer, raw, after=after))

    def _patch_function(self, layer: str, modules, fn: Callable) -> None:
        if fn.__name__ in _IDEAL_FACTORIES:
            replacement = self._wrap_ideal_factory(layer, fn)
        elif layer == "opnorm.opnorm_lower":
            replacement = self.wrap(layer, fn, before=self._norm_key_hook(fn))
        else:
            replacement = self.wrap(layer, fn)
        # rebind the name in every module that imported it, so each caller
        # looks up the wrapper
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, name, replacement)

    def _wrap_ideal_factory(self, layer: str, factory: Callable) -> Callable:
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            ideal = factory(*args, **kwargs)
            return dataclasses.replace(ideal, gamma=self.wrap(layer, ideal.gamma))

        return traced_factory

    # --- reduction -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Calls, inclusive and self seconds, and raised calls for every layer."""
        calls = dict.fromkeys(LAYERS, 0)
        total = dict.fromkeys(LAYERS, 0.0)
        child = dict.fromkeys(LAYERS, 0.0)
        errors = dict.fromkeys(LAYERS, 0)
        for layer, start, end, parent, raised in self.spans:
            calls[layer] += 1
            total[layer] += end - start
            errors[layer] += raised
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.s"] = total[layer]
            out[f"{layer}.self_s"] = total[layer] - child[layer]
            out[f"{layer}.errors"] = errors[layer]
        n = calls["opnorm.opnorm_lower"]
        out["opnorm.opnorm_lower.repeat_frac"] = self.norm_repeats / n if n else 0.0
        out["semigroups.evaluate.bytes"] = self.evaluate_bytes
        return out

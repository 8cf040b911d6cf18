"""Span tracing from outside the library, by wrapping its public functions.

Each traced function is found once, then every ``ghastates.*`` module
binding that refers to that same object is replaced by a wrapper, because
``cli`` and ``dynamics`` import functions by name.  Wrappers record spans
(name, start, end, parent, op id) in memory only while an op is open, so
the untimed correctness gate between ops is not attributed to any layer.
A function that no longer exists is reported as ``absent``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# layer span name -> candidate (module, function) pairs; the first present
# one is wrapped
SPANS = {
    "dynamics.trace": [("dynamics", "trace")],
    "dynamics.csv": [("dynamics", "write_trace_csv")],
    "algebra.build_rep": [("algebra", "build_rep")],
    "algebra.verify": [("algebra", "verify_algebra")],
    "states.build": [("states", "gha_coherent_state"),
                     ("states", "linear_coherent_state")],
    "series.weights": [("series", "moment_series")],
    "config": [("config", "load_key_values"), ("config", "parse_key_values"),
               ("config", "spectrum_from_config")],
    "kernel": [("_backend", "weighted_trig_sums"),
               ("_kernels_py", "weighted_trig_sums")],
}
# layers with a span per function listed (the others wrap the first found)
ALL_FUNCTIONS = {"states.build", "config"}
# per-level evaluations are too frequent for spans; they are only counted
COUNTED = {"spectrum.level_calls": [("spectrum", "energy"),
                                   ("spectrum", "next_energy"),
                                   ("spectrum", "ladder_coefficient")]}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    error: str | None = None


def _arguments(sig, args, kwargs) -> dict:
    """Call arguments by parameter name, or by position without a signature."""
    if sig is None:
        return {**dict(enumerate(args)), **kwargs}
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Collects spans and counters for the ops run between install/uninstall."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.layers: dict[str, str] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._op: int | None = None
        self._rep_dim: int | None = None

    # -- ops ---------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._stack.clear()
        self._rep_dim = None

    def end_op(self) -> None:
        self._op = None

    def errors_in(self, op_id: int) -> list[str]:
        """Exception class names raised out of spans of ``op_id``, in order."""
        return [s.error for s in self.spans if s.op == op_id and s.error]

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name: str, fn, on_exit=None):
        """Wrapper recording a span per call; ``on_exit(arguments, result)``
        runs after the span closes, with the call's bound arguments (result
        None if it raised)."""
        tracer = self
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):  # some compiled functions
            sig = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, 0.0,
                        tracer._stack[-1] if tracer._stack else None,
                        tracer._op)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if on_exit is not None:
                    on_exit(_arguments(sig, args, kwargs), result)

        return wrapper

    def _counting(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is not None:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _exit_hooks(self):
        """Counters read from each layer's arguments and results, keyed by
        span name; each hook gets the call's bound arguments."""
        counts = self.counts

        def rep(a, result):
            if result is not None:
                counts["algebra.rep_builds"] += 1
                counts["algebra.rep_dim_sum"] += result.dim
                self._rep_dim = result.dim

        def state(a, result):
            if result is not None:
                counts["states.builds"] += 1
                counts["states.dim_sum"] += result.dim

        def weights(a, result):
            if result is not None:
                counts["series.calls"] += 1
                counts["series.terms_sum"] += (len(result.mean_w)
                                               + len(result.cross_w))

        def kernel(a, result):
            counts["kernel.calls"] += 1
            counts["kernel.term_points"] += (len(a.get("weights", a.get(0)))
                                             * len(a.get("times", a.get(3))))

        def csv(a, result):
            dest = a.get("path", a.get(1))
            if not hasattr(dest, "write"):
                try:
                    counts["dynamics.csv_bytes"] += os.stat(dest).st_size
                except OSError:
                    pass

        def trace(a, result):
            # the oracle grid is dim^2 * T work whether or not trace returns
            if a.get("path", "oracle") in ("oracle", "both") and self._rep_dim:
                counts["dynamics.oracle_cells"] += (self._rep_dim ** 2
                                                    * a.get("n_points", 0))
            self._rep_dim = None

        return {"algebra.build_rep": rep, "states.build": state,
                "series.weights": weights, "kernel": kernel,
                "dynamics.csv": csv, "dynamics.trace": trace}

    # -- patching ----------------------------------------------------------

    def install(self, package: str = "ghastates") -> dict[str, str]:
        """Wrap every layer function; return each layer's status."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package
                                         or name.startswith(package + "."))]
        hooks = self._exit_hooks()
        for layer, candidates in {**SPANS, **COUNTED}.items():
            found = []
            for mod_name, attr in candidates:
                mod = sys.modules.get(f"{package}.{mod_name}")
                fn = getattr(mod, attr, None) if mod is not None else None
                if callable(fn) and fn not in found:
                    found.append(fn)
                    if layer in SPANS and layer not in ALL_FUNCTIONS:
                        break
            self.layers[layer] = "ok" if found else "absent"
            for fn in found:
                if layer in COUNTED:
                    wrapper = self._counting(layer, fn)
                else:
                    wrapper = self.wrap(layer, fn, hooks.get(layer))
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, name, wrapper)
                            self._patches.append((mod, name, fn))
        return dict(self.layers)

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._patches):
            setattr(mod, name, fn)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name: duration minus the time its
        direct children cover (spans nest strictly, one thread)."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s.name] += (s.end - s.start) - child[i]
        return dict(out)

    def write(self, path) -> None:
        """Spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start - t0, "end": s.end - t0,
                    "parent": s.parent, "op": s.op, "error": s.error}) + "\n")

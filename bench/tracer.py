"""Spans around the public functions of ``eulerian_bounds``, recorded from outside.

The tracer wraps every module-level binding, across the package, of each
function named in a layer module's ``__all__`` (``cli.main`` is one of
them).  Because modules call each other through those bindings, nested
calls give nested spans.  A span is ``[name, start, end, parent, run_id,
tag]``: ``parent`` is the index of the enclosing span (-1 at top level),
``run_id`` is the index of the benchmark item that caused it, and ``tag``
is a per-call observation for the few functions in ``TAGS``.  Spans stay
in memory; the caller writes them out once the pass has ended.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable

PACKAGE = "eulerian_bounds"
LAYERS = ("eulerian", "lform", "pencil", "enclosure", "spectra", "bounds", "cli")

# Per-call observations behind the ratio metrics.
TAGS: dict[str, Callable[[tuple, Any], Any]] = {
    "pencil.psd_certificate": lambda args, result: bool(result.is_psd),
    "spectra.psd_interval_left": lambda args, result: args[0].size,
}

STATS = ("calls", "self_s", "total_s")


def public_functions() -> dict[str, Callable]:
    """``layer.name`` -> function, for each function a layer module exports."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) == module.__name__:
                found[f"{layer}.{name}"] = obj
    return found


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = 0
        self.targets = public_functions()
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, tag = self.spans, self._stack, TAGS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.run_id, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if tag is not None:
                span[5] = tag(args, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self.targets.items()}
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def cache_hits(self) -> dict[str, list[int]]:
        """``[hits, misses]`` of every traced function that has an lru_cache."""
        return {name: [fn.cache_info().hits, fn.cache_info().misses]
                for name, fn in self.targets.items() if hasattr(fn, "cache_info")}


def per_function(spans: list[list]) -> dict[str, dict[str, Any]]:
    """Calls, self time and total time of each traced function.

    Self time is a span's duration minus its children's durations; total
    time counts only spans not nested inside a span of the same function,
    so recursion is not counted twice.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, Any]] = {}
    for i, (name, start, end, parent, _, tag) in enumerate(spans):
        st = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "tags": []})
        st["calls"] += 1
        st["self_s"] += end - start - child[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            st["total_s"] += end - start
        if tag is not None:
            st["tags"].append(tag)
    return out


def layer_metrics(spans: list[list], hits: dict[str, list[int]], wall_s: float) -> dict[str, float]:
    """Every per-layer metric one traced pass can give, by name."""
    funcs = per_function(spans)
    metrics: dict[str, float] = {"traced_wall_s": wall_s}
    for name, st in funcs.items():
        for stat in STATS:
            metrics[f"{name}.{stat}"] = st[stat]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            st["self_s"] for name, st in funcs.items() if name.split(".")[0] == layer)
    pil = funcs.get("spectra.psd_interval_left")
    metrics["spectra.psd_interval_left.distinct_frac"] = (
        len(set(pil["tags"])) / pil["calls"] if pil else 0.0)
    psd = funcs.get("pencil.psd_certificate")
    metrics["pencil.psd_certificate.psd_frac"] = (
        sum(psd["tags"]) / psd["calls"] if psd else 0.0)
    for name, (hit, miss) in hits.items():
        metrics[f"{name}.hit_frac"] = hit / (hit + miss) if hit + miss else 0.0
    top = sum(end - start for _, start, end, parent, _, _ in spans if parent < 0)
    metrics["untraced_frac"] = max(0.0, 1.0 - top / wall_s) if wall_s > 0 else 0.0
    return metrics


def metric_value(metrics: dict[str, float], name: str) -> float:
    """A metric by name; a function that was never called reads 0."""
    if name in metrics:
        return metrics[name]
    if name.rsplit(".", 1)[-1] in STATS + ("distinct_frac", "psd_frac", "hit_frac"):
        return 0.0
    raise KeyError(f"no per-layer metric {name!r}")

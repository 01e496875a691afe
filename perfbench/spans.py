"""Span tracing of the package's layers, installed from outside the package.

``Tracer.install`` wraps every public function and public method that a
wisealice module defines, and rebinds each module-level name that refers to
one, so a caller that did ``from wisealice.quantum import payoff_surface``
calls the wrapper.  A layer is the module that defines the function.

Each call records one span: function, start, end and parent span.  A
generator function records one span per ``next()``, since that is where its
body runs.  Private helpers are not wrapped, so their time counts toward the
public caller.  Spans stay in compact arrays until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from typing import Callable, Iterable

import numpy as np

LAYERS = ("cli", "scenario", "game", "classical", "quantum", "solver",
          "simulate", "lattice", "svg")
PACKAGE = "wisealice"


def self_times(span_function, span_parent, span_start, span_end,
               function_layer, layers: Iterable[str]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus its children's."""
    span_function = np.asarray(span_function, dtype=np.int64)
    parent = np.asarray(span_parent, dtype=np.int64)
    duration = np.asarray(span_end, dtype=float) - np.asarray(span_start, dtype=float)
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=duration[nested],
                             minlength=duration.size)
    layers = list(layers)
    layer_of = np.array([layers.index(layer) for layer in function_layer], dtype=np.int64)
    totals = np.bincount(layer_of[span_function], weights=duration - child_time,
                         minlength=len(layers))
    return {name: float(totals[i]) for i, name in enumerate(layers)}


class Tracer:
    """Records spans and per-layer call counts for wrapped functions."""

    def __init__(self) -> None:
        self.functions: list[str] = []      # qualified name per function id
        self.function_layer: list[str] = []
        self.invocations: list[int] = []    # per function id
        self.yields: list[int] = []         # per function id, generators only
        self.layer_calls = {layer: 0 for layer in LAYERS}
        self.span_function = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._layer_stack = [""]

    def install(self, observers: dict[str, Callable] | None = None) -> None:
        """Wrap the public functions of every imported wisealice layer module.

        ``observers`` maps a qualified name to ``f(args, kwargs, result)``,
        called after the span closes.
        """
        observers = observers or {}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        wrapped: dict[int, Callable] = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    qualname = f"{module.__name__}.{name}"
                    wrapped[id(obj)] = self.wrap(obj, qualname, layer, observers.get(qualname))
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(member):
                            qualname = f"{module.__name__}.{name}.{attr}"
                            setattr(obj, attr, self.wrap(member, qualname, layer,
                                                          observers.get(qualname)))
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    setattr(module, name, wrapped[id(obj)])

    def wrap(self, fn: Callable, qualname: str, layer: str,
             observer: Callable | None = None) -> Callable:
        """A traced stand-in for fn, counted as one function of ``layer``."""
        fid = len(self.functions)
        self.functions.append(qualname)
        self.function_layer.append(layer)
        self.invocations.append(0)
        self.yields.append(0)
        invocations, yields, layer_calls = self.invocations, self.yields, self.layer_calls
        names, parents = self.span_function, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, layer_stack = self._stack, self._layer_stack
        clock = time.perf_counter

        def count_call() -> None:
            invocations[fid] += 1
            if layer_stack[-1] != layer:
                layer_calls[layer] += 1

        def open_span() -> int:
            index = len(starts)
            names.append(fid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            layer_stack.append(layer)
            return index

        def close_span(index: int, start: float) -> None:
            ends[index] = clock()
            starts[index] = start
            stack.pop()
            layer_stack.pop()

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                count_call()
                inner = fn(*args, **kwargs)
                while True:
                    index = open_span()
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close_span(index, start)
                    yields[fid] += 1
                    yield item
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count_call()
            index = open_span()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(index, start)
            if observer is not None:
                observer(args, kwargs, result)
            return result
        return traced

    def calls_to(self, qualname: str) -> int:
        """Invocations of one function; 0 if the package has no such function."""
        if qualname not in self.functions:
            return 0
        return self.invocations[self.functions.index(qualname)]

    def yields_of(self, qualname: str) -> int:
        """Items a generator function produced; 0 if there is no such function."""
        if qualname not in self.functions:
            return 0
        return self.yields[self.functions.index(qualname)]

    def layer_self_times(self) -> dict[str, float]:
        return self_times(self.span_function, self.span_parent, self.span_start,
                          self.span_end, self.function_layer, LAYERS)

    def inclusive_time(self, qualname: str) -> float:
        """Total span time of one function, children included."""
        if qualname not in self.functions:
            return 0.0
        fid = self.functions.index(qualname)
        names = np.frombuffer(self.span_function, dtype=np.int32)
        duration = (np.frombuffer(self.span_end, dtype=float)
                    - np.frombuffer(self.span_start, dtype=float))
        return float(duration[names == fid].sum())

    def save(self, path) -> None:
        np.savez(
            path,
            functions=np.array(self.functions),
            function_layer=np.array(self.function_layer),
            span_function=np.frombuffer(self.span_function, dtype=np.int32),
            span_parent=np.frombuffer(self.span_parent, dtype=np.int32),
            span_start=np.frombuffer(self.span_start, dtype=float),
            span_end=np.frombuffer(self.span_end, dtype=float),
        )

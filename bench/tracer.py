"""Span tracing of qfrelay layers from outside the package.

``Tracer.install`` replaces each traced function with a wrapper that records
a span, wherever a qfrelay module binds that function: under its own module,
under every name another module imported with ``from ... import``, and on
the package itself.  The package source is not touched.

Spans live in flat in-memory arrays (layer, parent span, start, end) and are
written once, by ``Tracer.write``.  A layer's self time is the summed
duration of its spans minus the time their child spans cover.
"""

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


class TraceTargetError(RuntimeError):
    """A traced function is missing, renamed, or was never called."""


class Tracer:
    def __init__(self):
        self.layers = []
        self._layer_ids = {}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counters = defaultdict(int)
        self._stack = [-1]
        self._restore = []

    def layer_id(self, name):
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    def _wrap(self, fn, layer, count):
        """Wrapper recording one span per call of ``fn``.

        ``layer`` is a layer name, or a function of the call's positional
        arguments returning one.  ``count(counters, args, result)`` adds the
        call's work counters after the span has closed.
        """
        if callable(layer):
            def resolve(args):
                return self.layer_id(layer(args))
        else:
            fixed = self.layer_id(layer)

            def resolve(args):
                return fixed
        stack = self._stack
        span_layer, span_parent = self.span_layer, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        counters = self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(span_start)
            span_layer.append(resolve(args))
            span_parent.append(stack[-1])
            span_end.append(0)
            stack.append(span)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[span] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def install(self, targets):
        """Rebind every target; a missing or non-function target raises.

        ``targets`` holds (layer, "module.attr" or "module.Class.method",
        count) triples, with modules named relative to the qfrelay package.
        """
        for layer, path, count in targets:
            module_name, _, rest = path.partition(".")
            try:
                module = importlib.import_module(f"qfrelay.{module_name}")
            except ImportError as exc:
                raise TraceTargetError(f"trace target qfrelay.{path}: {exc}") from exc
            owner_name, _, method = rest.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                fn = vars(owner).get(method) if isinstance(owner, type) else None
                if not callable(fn):
                    raise TraceTargetError(f"trace target qfrelay.{path} not found")
                setattr(owner, method, self._wrap(fn, layer, count))
                self._restore.append((owner, method, fn))
                continue
            fn = getattr(module, rest, None)
            if not callable(fn) or isinstance(fn, type):
                raise TraceTargetError(f"trace target qfrelay.{path} not found")
            wrapper = self._wrap(fn, layer, count)
            for bound_module in _qfrelay_modules():
                for name, value in list(vars(bound_module).items()):
                    if value is fn:
                        setattr(bound_module, name, wrapper)
                        self._restore.append((bound_module, name, fn))

    def uninstall(self):
        for owner, name, fn in reversed(self._restore):
            setattr(owner, name, fn)
        self._restore.clear()

    def summary(self):
        """Per-layer (self seconds, calls), from the recorded spans."""
        layer = np.frombuffer(self.span_layer, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        duration = (
            np.frombuffer(self.span_end, dtype=np.int64)
            - np.frombuffer(self.span_start, dtype=np.int64)
        )
        nested = parent >= 0
        covered = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        self_ns = np.bincount(
            layer, weights=duration - covered, minlength=len(self.layers)
        )
        calls = np.bincount(layer, minlength=len(self.layers))
        return {
            name: (float(self_ns[i]) * 1e-9, int(calls[i]))
            for i, name in enumerate(self.layers)
        }

    def write(self, path):
        np.savez(
            path,
            layer_names=np.array(self.layers),
            layer=np.frombuffer(self.span_layer, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
        )


def _qfrelay_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "qfrelay" or name.startswith("qfrelay."))
    ]

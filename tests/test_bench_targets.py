"""The benchmark's copies of package names match the package.

``bench/layers.py`` lists the traced functions by dotted path relative to
the qfrelay package, and ``bench/workloads.py`` checks sweep CSVs against
its own copy of the column names.  Both are loaded here by file path and
only read: the benchmark's tracer is not installed and no workload runs.
A rename in the package then fails this suite, not only the benchmark's
own smoke test, and so does a bypass: each sweep workload's detector must
still call every engine, quantizer, channel and codebook function that the
benchmark expects its trace to reach.
"""

import functools
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from qfrelay import engine, sweep
from qfrelay.quantizers import AF, HAPQ, UAPQ, QuantizerSpec

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"qfrelay_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(path):
    """The function a "module.attr" or "module.Class.method" path names."""
    module_name, _, rest = path.partition(".")
    module = importlib.import_module(f"qfrelay.{module_name}")
    owner_name, _, name = rest.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        assert inspect.isclass(owner), f"qfrelay.{module_name}.{owner_name} is not a class"
        return vars(owner).get(name)
    return getattr(module, name, None)


def test_every_trace_target_is_a_package_function():
    targets = _load("layers").TARGETS
    assert targets
    for _, path, _ in targets:
        assert inspect.isfunction(_resolve(path)), f"trace target qfrelay.{path} not found"


def test_benchmark_csv_columns_match_the_sweep():
    assert tuple(_load("workloads").CSV_COLUMNS) == sweep.CSV_COLUMNS


UAPQ_SPEC = QuantizerSpec(UAPQ, total_bits=8, phase_bits=4)
HAPQ_SPEC = QuantizerSpec(HAPQ, phase_bits=4, group_size=2)


def _assert_reaches_every_traced_layer(monkeypatch, workload, detector, specs):
    """A traced ``count_errors`` run calls every in-package layer the workload expects."""
    layers = _load("layers")
    packages = ("engine", "quantizers", "channel", "codebook")
    expected = {
        layer for layer in layers.EXPECTED[workload]
        if layer.partition(".")[0] in packages
    }
    called = set()

    def wrap(fn, layer):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            called.add(layer(args) if callable(layer) else layer)
            return fn(*args, **kwargs)
        return recorded

    # rebind each function wherever a qfrelay module binds it, as the
    # benchmark's tracer does
    modules = [module for name, module in list(sys.modules.items())
               if module is not None and (name == "qfrelay" or name.startswith("qfrelay."))]
    for layer, path, _ in layers.TARGETS:
        if path.partition(".")[0] not in packages:
            continue
        fn = _resolve(path)
        module_name, _, rest = path.partition(".")
        owner_name, _, method = rest.rpartition(".")
        if owner_name:
            owner = getattr(importlib.import_module(f"qfrelay.{module_name}"), owner_name)
            monkeypatch.setattr(owner, method, wrap(fn, layer))
            continue
        wrapper = wrap(fn, layer)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, name, wrapper)
    engine.count_errors(4, 4, 4, 4, specs, 4.0, 0, 20260810, 0, 4, detector=detector)
    assert expected <= called, f"layers never called: {sorted(expected - called)}"


def test_marginalized_sweep_reaches_every_traced_layer(monkeypatch):
    _assert_reaches_every_traced_layer(monkeypatch, "sweep-marginalized", "marginalized",
                                       (UAPQ_SPEC, HAPQ_SPEC))


def test_mismatched_sweep_reaches_every_traced_layer(monkeypatch):
    _assert_reaches_every_traced_layer(monkeypatch, "sweep-mismatched", "mismatched",
                                       (UAPQ_SPEC, HAPQ_SPEC, QuantizerSpec(AF)))

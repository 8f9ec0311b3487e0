"""Every function the benchmark traces exists under the path it names.

``bench/layers.py`` lists the traced functions by dotted path relative to
the qfrelay package.  It is loaded here by file path and only read: the
tracer is not installed, so nothing is rebound.  A rename in the package
then fails this suite, not only the benchmark's own smoke test.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("qfrelay_bench_layers", LAYERS_PY)
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
    targets = _load_layers().TARGETS
    assert targets
    for _, path, _ in targets:
        assert inspect.isfunction(_resolve(path)), f"trace target qfrelay.{path} not found"

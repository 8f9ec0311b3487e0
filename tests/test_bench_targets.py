"""The benchmark's copies of package names match the package.

``bench/layers.py`` lists the traced functions by dotted path relative to
the qfrelay package, and ``bench/workloads.py`` checks sweep CSVs against
its own copy of the column names.  Both are loaded here by file path and
only read: the tracer is not installed, so nothing is rebound, and no
workload runs.  A rename in the package then fails this suite, not only
the benchmark's own smoke test.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from qfrelay import sweep

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

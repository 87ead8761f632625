"""Every layer the benchmark traces names a callable in the package.

``bench/tracing.py`` wraps each ``module.name`` or ``module.Class.method``
in ``LAYERS``; a name that no longer resolves is reported as absent and
its per-layer metrics drop out of the benchmark result.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", load_tracing().traced_names())
def test_traced_layer_resolves_to_a_callable(name):
    module_name, _, attr = name.partition(".")
    module = importlib.import_module(f"hierpower.{module_name}")
    owner, _, method = attr.rpartition(".")
    if owner:  # the tracer wraps a method only where its class defines it
        cls = getattr(module, owner, None)
        target = vars(cls).get(method) if isinstance(cls, type) else None
    else:
        target = getattr(module, attr, None)
    assert callable(target), f"{name} does not resolve in hierpower"

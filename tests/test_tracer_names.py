"""The names ``perfbench/tracer.py`` wraps exist in the package.

``Tracer.install`` looks every traced layer up by name, so a renamed or
deleted function makes ``perfbench/run.py --trace 1`` fail with
AttributeError.  The tracer module is only loaded here, never installed:
``install`` rebinds package globals for the rest of the process.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("mod", sorted(tracer.LAYERS))
def test_traced_layers_exist(mod):
    module = importlib.import_module(f"hecke_sphere.{mod}")
    for name in tracer.LAYERS[mod]:
        assert callable(getattr(module, name, None)), f"hecke_sphere.{mod}.{name}"


def test_r3_tables_are_lru_caches():
    quat = importlib.import_module("hecke_sphere.quat")
    for name in tracer.R3_TABLES:
        assert hasattr(getattr(quat, name, None), "cache_info"), name

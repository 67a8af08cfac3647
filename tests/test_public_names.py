"""Every name a mertenskit module exports in __all__ exists, and every
name the benchmark's tracer patches is still looked up by the package."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import mertenskit

MODULES = sorted(m.name for m in pkgutil.iter_modules(mertenskit.__path__))

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_module_attributes(name):
    module = importlib.import_module(f"mertenskit.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []


def _namespaces():
    """Attributes of every loaded mertenskit module and class, by owner."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if modname == "mertenskit" or modname.startswith("mertenskit."):
            out[modname] = dict(vars(module))
            for value in vars(module).values():
                if isinstance(value, type) and value.__module__ == modname:
                    out[f"{modname}.{value.__name__}"] = dict(vars(value))
    return out


def test_benchmark_tracer_installs_and_uninstalls():
    # Tracer.install raises RuntimeError when no module looks a patched
    # name up, so renaming or deleting such a name fails here.
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name in MODULES:
        importlib.import_module(f"mertenskit.{name}")
    before = _namespaces()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert _namespaces() != before
    finally:
        tracer.uninstall()
    assert _namespaces() == before

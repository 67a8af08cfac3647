"""Every name a mertenskit module exports in __all__ exists."""

import importlib
import pkgutil

import pytest

import mertenskit

MODULES = sorted(m.name for m in pkgutil.iter_modules(mertenskit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_module_attributes(name):
    module = importlib.import_module(f"mertenskit.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []


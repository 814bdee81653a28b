"""Every name a pklab module exports in ``__all__`` is defined there.

A stale entry breaks ``from pklab.<module> import *`` and the benchmark
tracer's wildcard probes, which expand ``__all__``.
"""

import importlib
import pkgutil

import pytest

import pklab

MODULES = ["pklab"] + [f"pklab.{m.name}" for m in pkgutil.iter_modules(pklab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_defined(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing

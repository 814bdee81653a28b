"""Every name a pklab module exports in ``__all__`` is defined there, and
no pklab module imports another's underscore names.

A stale entry breaks ``from pklab.<module> import *`` and the benchmark
tracer's wildcard probes, which expand ``__all__``.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import pklab

MODULES = ["pklab"] + [f"pklab.{m.name}" for m in pkgutil.iter_modules(pklab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_defined(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def _pklab_imports(path):
    """(line, imported name) of every ``from <pklab module> import name`` in a
    source file, relative imports included."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "pklab"
        ):
            yield from ((node.lineno, alias.name) for alias in node.names)


@pytest.mark.parametrize("path", sorted(Path(pklab.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_name(path):
    # a name another module needs is part of its owner's interface: give it a
    # public name rather than reach for the underscore one
    private = [f"line {line}: {name}" for line, name in _pklab_imports(path)
               if name.startswith("_")]
    assert not private

"""Every name a pklab module exports in ``__all__`` is defined there, no
pklab module imports another's underscore names, and no module or test
imports a name it never reads; the two derivative carriers share every
ring operation but the product.

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


def _unused_imports(path):
    """(line, name) of every name a source file imports and never reads, other
    than ``from __future__`` imports and the names its ``__all__`` exports."""
    tree = ast.parse(path.read_text())
    imported, exported = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(e.value for e in node.value.elts)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read and name not in exported)


def test_no_module_imports_an_unused_name():
    paths = sorted(Path(pklab.__file__).parent.glob("*.py")) + sorted(
        Path(__file__).parent.glob("*.py"))
    unused = [f"{path.name} line {line}: {name}"
              for path in paths for line, name in _unused_imports(path)]
    assert not unused


def test_only_fields_seeds_dual_batches():
    # fields is the one place that evaluates a rule over many points, so the
    # derivative carrier it evaluates on can change there alone
    importers = sorted(path.name for path in Path(pklab.__file__).parent.glob("*.py")
                       if {"DualBatch", "dual_point"} & {name for _, name in _pklab_imports(path)})
    assert importers == ["fields.py"]


def test_both_carriers_share_one_ring():
    # Jet and DualBatch define their product and nothing else of the ring:
    # sums, differences, negation, quotients and powers are written once
    tree = ast.parse((Path(pklab.__file__).parent / "jets.py").read_text())
    ring = {"__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
            "__truediv__", "__rtruediv__", "__pow__", "__mul__", "__rmul__"}
    defined = {}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name in ("Jet", "DualBatch"):
            names = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
            names |= {t.id for n in cls.body if isinstance(n, ast.Assign)
                      for t in n.targets if isinstance(t, ast.Name)}
            defined[cls.name] = sorted(names & ring)
    assert defined == {"Jet": ["__mul__", "__rmul__"], "DualBatch": ["__mul__", "__rmul__"]}

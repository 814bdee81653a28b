"""Workload definitions, set-up and one verification pass.

The benchmark drives pklab through its public API as ``pk-lab run`` does:
build a triple (``catalog.preset_triple`` / ``catalog.default_triple``,
the latter with ``exprs.compile_profile`` profiles), call
``suites.run_suite`` and serialize with ``VerificationReport.to_json``.
The workload seed reaches the program only as ``run_suite``'s ``seed``.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from types import SimpleNamespace

FAMILIES = (
    "real-liouville",
    "complex-liouville",
    "dim-d2-1",
    "dim-d2-2",
    "dim-d2-2neg",
    "dim-d2-4",
    "dim-d1",
    "dim-d1neg",
)

POINTWISE_CHECKS = ("parakahler", "benenti", "killing", "rank", "companion", "ricci-diff", "flatness")


@dataclass(frozen=True)
class TripleSpec:
    """One triple as the CLI would name it: family, preset or profile params."""

    family: str
    preset: str = ""
    params: tuple[tuple[str, str, tuple[str, ...]], ...] = ()  # (name, source, variables)

    @property
    def label(self) -> str:
        if self.preset:
            return f"{self.family}:{self.preset}"
        return self.family + ("".join(f":{n}={src}" for n, src, _ in self.params))


@dataclass(frozen=True)
class Workload:
    name: str
    triples: tuple[TripleSpec, ...]
    checks: tuple[str, ...] | None  # None means every check the suites define
    points: int


_EXPR_TRIPLE = TripleSpec(
    "real-liouville", params=(("rho", "x1^2", ("x1",)), ("sigma", "2*x2", ("x2",)))
)
_DEFAULTS = tuple(TripleSpec(f) for f in FAMILIES)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("einstein-all", (TripleSpec("real-liouville", "einstein-lambda1"),), None, 20),
        Workload("catalog-pointwise", _DEFAULTS + (_EXPR_TRIPLE,), POINTWISE_CHECKS, 4),
        Workload("geodesic-bundles", _DEFAULTS, ("geodesic",), 20),
    )
}

# Smoke-test sizes: the same triple kinds and checks, fewer points and triples.
REDUCED = {
    "einstein-all": Workload("einstein-all", WORKLOADS["einstein-all"].triples, None, 2),
    "catalog-pointwise": Workload(
        "catalog-pointwise", _DEFAULTS[:2] + (_EXPR_TRIPLE,), POINTWISE_CHECKS, 2
    ),
    "geodesic-bundles": Workload("geodesic-bundles", _DEFAULTS[:2], ("geodesic",), 2),
}


@dataclass
class Entry:
    """A built triple with the report label and config the CLI would echo."""

    label: str
    triple: object
    checks: list[str]
    config: dict


def import_pklab() -> SimpleNamespace:
    """Import pklab afresh, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "pklab" or n.startswith("pklab.")]:
        del sys.modules[name]
    return SimpleNamespace(
        catalog=importlib.import_module("pklab.catalog"),
        exprs=importlib.import_module("pklab.exprs"),
        suites=importlib.import_module("pklab.suites"),
    )


def build(pk: SimpleNamespace, workload: Workload, seed: int) -> list[Entry]:
    """Construct and certify every triple of the workload."""
    checks = list(workload.checks or pk.suites.CHECK_NAMES)
    entries = []
    for spec in workload.triples:
        if spec.preset:
            triple = pk.catalog.preset_triple(spec.preset)
        else:
            kwargs = {n: pk.exprs.compile_profile(src, vs) for n, src, vs in spec.params}
            triple = pk.catalog.default_triple(spec.family, **kwargs)
        config = {
            "family": spec.family,
            "preset": spec.preset,
            "params": {n: src for n, src, _ in sorted(spec.params)},
            "box": "",
            "checks": checks,
            "points": workload.points,
            "seed": seed,
            "tolerances": {},
        }
        entries.append(Entry(spec.label, triple, checks, config))
    return entries


@dataclass
class Outcome:
    label: str
    checks: list[str]
    report: object | None
    error: str | None
    text: str = ""


def run_pass(pk: SimpleNamespace, entries: list[Entry], points: int, seed: int) -> list[Outcome]:
    """One verification pass: run_suite and to_json for every triple."""
    outcomes = []
    for e in entries:
        try:
            report = pk.suites.run_suite(e.triple, e.checks, n_points=points, seed=seed)
        except Exception as exc:  # a raising check is a gate failure, not a crash
            outcomes.append(Outcome(e.label, e.checks, None, f"{type(exc).__name__}: {exc}"))
            continue
        report.label = e.label
        report.config = e.config
        outcomes.append(Outcome(e.label, e.checks, report, None, report.to_json()))
    return outcomes

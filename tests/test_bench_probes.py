"""The benchmark's tracer (``perfbench/tracer.py``) still finds every probe.

The tracer wraps pklab functions from the outside and refuses a probe
whose target is gone, so a refactor that moves or renames a probed name
breaks the benchmark.  This test runs that check with the library tests.

The benchmark imports pklab afresh (``workloads.import_pklab``), so each
test resolves the pklab modules when it runs, not at import time: a
reference taken earlier may name a copy the tracer no longer patches.
"""

import importlib
import os
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def pklab(name):
    """The loaded pklab module ``name``, which the tracer resolves its probes among."""
    return importlib.import_module(f"pklab.{name}")


@pytest.fixture
def bench(monkeypatch):
    """perfbench's ``run`` module; its import-time thread settings are undone.
    The modules the tracer probes by wildcard or name are loaded first."""
    for name in ("catalog", "exprs", "linalg", "suites"):
        pklab(name)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    saved = dict(os.environ)
    try:
        import run
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return run


def test_every_probe_resolves_and_every_figure_reads(bench):
    linalg, suites = pklab("linalg"), pklab("suites")
    mmul = linalg.mmul
    with bench.Tracer() as tracer:
        assert linalg.mmul is not mmul
        metrics = bench.layer_metrics(tracer, suites.CHECK_NAMES)
    assert linalg.mmul is mmul
    assert {f"suites.{c}_s" for c in suites.CHECK_NAMES} <= set(metrics)
    assert metrics["linalg.mmul_calls"] == 0


def test_the_geodesic_spray_is_traced(bench):
    # each Picard sweep runs through the companion's spray, and the planarity
    # check and its controls through g's spray
    triple = pklab("catalog").default_triple("real-liouville")
    with bench.Tracer() as tracer:
        assert pklab("suites").run_suite(triple, ["geodesic"]).all_passed
    assert tracer.calls("projective.companion_spray") > 0
    assert tracer.calls("curvature.geodesic_spray") > 0
    assert tracer.calls("curvature.christoffel_batch") == 0
    # a geodesic-only run evaluates no Jet: dual batches take their elementary
    # functions without passing through the probed Jet methods
    assert tracer.counts["jets.jet_elementary_calls"] == 0

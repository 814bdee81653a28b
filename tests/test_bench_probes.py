"""The benchmark's tracer (``perfbench/tracer.py``) still finds every probe.

The tracer wraps pklab functions from the outside and refuses a probe
whose target is gone, so a refactor that moves or renames a probed name
breaks the benchmark.  This test runs that check with the library tests.
"""

import os
from pathlib import Path

import pytest

# the tracer resolves its probes among the loaded pklab modules
import pklab.catalog
import pklab.exprs  # noqa: F401
import pklab.linalg
import pklab.suites

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """perfbench's ``run`` module; its import-time thread settings are undone."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    saved = dict(os.environ)
    try:
        import run
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return run


def test_every_probe_resolves_and_every_figure_reads(bench):
    mmul = pklab.linalg.mmul
    with bench.Tracer() as tracer:
        assert pklab.linalg.mmul is not mmul
        metrics = bench.layer_metrics(tracer, pklab.suites.CHECK_NAMES)
    assert pklab.linalg.mmul is mmul
    assert {f"suites.{c}_s" for c in pklab.suites.CHECK_NAMES} <= set(metrics)
    assert metrics["linalg.mmul_calls"] == 0


def test_the_geodesic_spray_is_traced(bench):
    # the Picard sweep and the planarity check run through geodesic_spray
    triple = pklab.catalog.default_triple("real-liouville")
    with bench.Tracer() as tracer:
        assert pklab.suites.run_suite(triple, ["geodesic"]).all_passed
    assert tracer.calls("curvature.geodesic_spray") > 0
    assert tracer.calls("curvature.christoffel_batch") == 0
    # a geodesic-only run evaluates no Jet: dual batches take their elementary
    # functions without passing through the probed Jet methods
    assert tracer.counts["jets.jet_elementary_calls"] == 0

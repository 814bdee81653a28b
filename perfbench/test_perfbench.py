"""Smoke tests of the benchmark itself (not part of the library's test suite).

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs at reduced size through the real command line; the
gate is exercised with synthetic results.
"""

from __future__ import annotations

import json
import math
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--reduced"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_reduced_run_emits_end_to_end_metrics(workload):
    _assert_metrics(_run(workload, trace=0), SPEC["end_to_end"])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counters_repeat_exactly(workload):
    first, second = _run(workload, trace=1), _run(workload, trace=1)
    _assert_metrics(first, SPEC["per_layer"])
    _assert_metrics(second, SPEC["per_layer"])
    counters = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "rows/call")]
    assert counters
    for name in counters:
        assert first["metrics"][name] == second["metrics"][name], name
    m = first["metrics"]
    if workload == "geodesic-bundles":
        assert m["jets.jet_mul_calls"]["value"] == 0
    if workload == "catalog-pointwise":
        assert m["curvature.christoffel_batch_calls"]["value"] == 0


@dataclass
class FakeResult:
    name: str
    residual: float
    tolerance: float = 1e-8
    points: int = 4
    identity: str = "an identity"
    flags: list = field(default_factory=list)


@dataclass
class FakeReport:
    checks: list


@dataclass
class FakeOutcome:
    label: str
    checks: list
    report: FakeReport | None
    error: str | None = None


def _gate(results, baseline=None, error=None, failures_seen=None, seed=5):
    baseline = baseline if baseline is not None else {"t": {r.name: 1e-15 for r in results}}
    report = None if error else FakeReport(results)
    tally = gate.GateTally()
    reference = gate.Baseline(baseline, failures_seen or {})
    gate.check_pass([FakeOutcome("t", ["c"], report, error)], reference, seed, tally)
    return tally


def test_gate_counts_nan_residual_as_failure():
    tally = _gate([FakeResult("c/ok", 1e-16), FakeResult("c/nan", float("nan"))])
    assert (tally.attempted, tally.verdict_failed, tally.failed) == (2, 1, 1)
    assert "non-finite" in tally.failures[0]
    assert tally.problems  # NaN is never within the baseline bound either


def _counts(tally):
    return tally.verdict_failed, tally.failed, len(tally.problems)


def test_gate_failure_modes():
    assert _counts(_gate([FakeResult("c/inf", float("inf"))])) == (1, 1, 2)
    assert _counts(_gate([FakeResult("c/tol", 2e-8)])) == (1, 1, 2)
    # above max(10 x baseline, 1e-12) while inside the tolerance
    assert _counts(_gate([FakeResult("c/drift", 5e-12)])) == (0, 1, 1)
    assert _counts(_gate([FakeResult("c/floor", 9e-13)])) == (0, 0, 0)
    assert _counts(_gate([FakeResult("c/new", 1e-16)], baseline={"t": {}})) == (0, 1, 1)
    flagged = FakeResult("c/x", 0.0, flags=["eval-error:JetDomainError"])
    assert _counts(_gate([flagged])) == (1, 1, 2)
    assert _counts(_gate([], baseline={"t": {"c/gone": 0.0}})) == (0, 0, 1)
    raised = _gate([], error="ValueError: boom")
    assert (raised.attempted, *_counts(raised)) == (1, 1, 1, 1)


def test_gate_accepts_only_reference_failures_at_their_seed():
    # a 0/1 result whose baseline maximum is 1: only the recorded seeds may fail
    neg = FakeResult("g/negative-control", 1.0, tolerance=0.5)
    baseline = {"t": {"g/negative-control": 1.0}}
    seen = {"t": {"g/negative-control": [3, 5]}}
    # a reference failure counts in the failure ratio but is not rejected
    assert _counts(_gate([neg], baseline, failures_seen=seen, seed=5)) == (1, 0, 0)
    assert _counts(_gate([neg], baseline, failures_seen=seen, seed=4)) == (1, 1, 1)
    assert _counts(_gate([neg], baseline, seed=5)) == (1, 1, 1)
    passing = FakeResult("g/negative-control", 0.0, tolerance=0.5)
    assert _counts(_gate([passing], baseline, failures_seen=seen, seed=5)) == (0, 0, 0)
    assert _counts(_gate([neg], {"t": {"g/negative-control": 0.0}}, seen, seed=5)) == (1, 1, 1)


def test_gate_skips_unchecked_results():
    skipped = FakeResult("c/skip", 0.0, points=0, identity="x (not checked: no data)")
    tally = _gate([skipped, FakeResult("c/ok", 1e-16)], baseline={"t": {"c/ok": 1e-16}})
    assert (tally.attempted, tally.failed, tally.skipped, tally.problems) == (1, 0, 1, [])


def test_speed_probe_scales_and_restores_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedProbe() as probe:
        _, wall, scaled = probe.time(time.sleep, 0.25)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert wall >= 0.25 and len(probe.samples) >= 2
    assert 0 < scaled < math.inf


def test_tracer_restores_originals(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    pk = workloads.import_pklab()
    jet = sys.modules["pklab.jets"].Jet
    original = jet.__mul__
    with tracer.Tracer() as tr:
        assert jet.__mul__ is not original
        triple = pk.catalog.default_triple("dim-d2-2")
        triple.g.values(triple.chart.center())
    assert jet.__mul__ is original
    assert tr.counts["jets.jet_mul_calls"] > 0 and tr.calls("fields.values") == 1
    with pytest.raises(KeyError):
        tr.calls("fields.gone")


@pytest.mark.parametrize("probe", [
    ("COUNTERS", ("pklab.jets", "Jet.gone", "jets.gone_calls")),
    ("COUNTERS", ("pklab.jets", "DualBatch.__repr__", "jets.repr_calls")),  # inherited
    ("SPANS", ("pklab.curves", "gone_*")),
    ("SPANS", ("pklab.gone", "f")),
])
def test_tracer_refuses_missing_probes(monkeypatch, probe):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    workloads.import_pklab()
    table, extra = probe
    monkeypatch.setattr(tracer, table, getattr(tracer, table) + (extra,))
    jet = sys.modules["pklab.jets"].Jet
    original = jet.__mul__
    with pytest.raises(tracer.ProbeError):
        with tracer.Tracer():
            pass
    assert jet.__mul__ is original


def test_directory_without_sources_fails(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (bench / "baseline.json").write_text((HERE / "baseline.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "einstein-all", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

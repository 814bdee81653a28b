"""pklab benchmark: end-to-end timings, correctness gate and per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload einstein-all --seed 0 --seconds 40 --trace 0

Workloads (see ``workloads.py``): ``einstein-all``, ``catalog-pointwise``,
``geodesic-bundles``.  Each is a closed loop of one client: this single
process calls into pklab and waits for every result before the next.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over repeats of a fresh import of pklab (numpy is
  already loaded) plus building and certifying every triple, profile
  compilation included;
* ``wall_s``: median wall time of one verification pass (run_suite and
  to_json over every triple);
* ``peak_rss_mb``: peak resident memory of this process.

Both times are scaled to the host's reference speed by ``hostspeed.py``,
so that the drift of a shared host's speed does not read as a change of
the program; the unscaled median pass time is printed above the result.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.py``, ``trace.overhead_ratio`` among them;
it also writes the span table to ``.bench_out/``.  Passes run until the
next one, at the median pass time so far, would end after ``--seconds``;
a run makes at least two untraced passes, and a traced run at least two
traced ones, so that reports and counters can be compared between them.

The seed is taken modulo 64: the recorded baseline knows the reference
verdict of every result at each of those seeds (see ``gate.py``).

Every pass goes through the correctness gate of ``gate.py``.  The last
line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: ``attempted`` counts check results over all
passes and ``failed`` the results the gate rejects.  The check failure
ratio, results failing their own verdict over ``attempted``, is printed
on the summary line above it; it includes the reference failures that
``baseline.json`` records, which the gate does not reject.  ``correct`` is
false when a result disagrees with the recorded baseline, a report
differs between repeats, or a traced counter differs between traced
passes.
"""

from __future__ import annotations

import os

# Pin the thread pools before numpy can load.
os.environ.pop("PKLAB_THREADS", None)
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402
from hostspeed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402

# set-up repeats: at least SETUP_MIN_REPEATS, more while under SETUP_BUDGET_S
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 15
SETUP_BUDGET_S = 2.0
MIN_UNTRACED_PASSES = 2
MIN_TRACED_PAIRS = 2


def environment() -> dict:
    import numpy

    sha = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        sha = out.stdout.strip() or sha
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "src_lines": src_lines,
    }


def setup_once(workload, seed):
    pk = workloads.import_pklab()
    return pk, workloads.build(pk, workload, seed)


def timed_setup(workload, seed):
    """Set up repeatedly; returns (pklab modules, entries, median reference seconds)."""
    times = []
    with SpeedProbe() as probe:
        while len(times) < SETUP_MIN_REPEATS or (
            sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX_REPEATS
        ):
            (pk, entries), _, ref = probe.time(setup_once, workload, seed)
            times.append(ref)
    return pk, entries, statistics.median(times)


def timed_pass(pk, entries, workload, seed):
    t0 = perf_counter()
    outcomes = workloads.run_pass(pk, entries, workload.points, seed)
    return outcomes, perf_counter() - t0


class Checker:
    """Gates every pass and compares its JSON reports with the first pass."""

    def __init__(self, baseline: gate.Baseline, seed: int):
        self.baseline = baseline
        self.seed = seed
        self.tally = gate.GateTally()
        self.first: list[str] | None = None

    def __call__(self, outcomes) -> None:
        gate.check_pass(outcomes, self.baseline, self.seed, self.tally)
        texts = [o.text for o in outcomes]
        if self.first is None:
            self.first = texts
        elif texts != self.first:
            self.tally.problems.append("JSON report differs between repeats of one seed")

    @property
    def correct(self) -> bool:
        return not self.tally.problems


def measure(workload, seed, seconds, checker):
    """End-to-end metrics from untraced passes."""
    pk, entries, setup_s = timed_setup(workload, seed)
    walls, refs = [], []
    start = perf_counter()
    with SpeedProbe() as probe:
        while True:
            outcomes, wall, ref = probe.time(
                workloads.run_pass, pk, entries, workload.points, seed
            )
            checker(outcomes)
            walls.append(wall)
            refs.append(ref)
            elapsed = perf_counter() - start
            if len(walls) >= MIN_UNTRACED_PASSES and elapsed + statistics.median(walls) > seconds:
                break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"passes={len(walls)} median_unscaled_s={statistics.median(walls):.4f} unscaled_s="
          + ",".join(f"{w:.4f}" for w in walls) + " scaled_s=" + ",".join(f"{r:.4f}" for r in refs))
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(refs), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def layer_metrics(tr: Tracer, checks) -> dict:
    """Per-layer figures of one traced pass (inclusive span times in seconds)."""
    c, calls, incl = tr.counts, tr.calls, tr.inclusive_s
    batch_calls = calls("curvature.christoffel_batch")
    out = {
        "jets.jet_mul_calls": c["jets.jet_mul_calls"],
        "jets.jet_elementary_calls": c["jets.jet_elementary_calls"],
        "jets.jet_derivative_calls": c["jets.jet_derivative_calls"],
        "jets.dual_mul_calls": c["jets.dual_mul_calls"],
        "linalg.minv_calls": calls("linalg.minv"),
        "linalg.minv_s": incl("linalg.minv"),
        "linalg.mdet_calls": c["linalg.mdet_calls"],
        "linalg.mmul_calls": c["linalg.mmul_calls"],
        "fields.components_calls": calls("fields.components"),
        "fields.batch_duals_calls": calls("fields.batch_duals"),
        "fields.batch_duals_rows": c["fields.batch_duals_rows"],
        "fields.self_s": tr.layer_self_s("fields"),
        "curvature.christoffel_jets_calls": calls("curvature.christoffel_jets"),
        "curvature.christoffel_jets_s": incl("curvature.christoffel_jets"),
        "curvature.riemann_calls": calls("curvature.riemann"),
        "curvature.self_s": tr.layer_self_s("curvature"),
        "curvature.christoffel_batch_calls": batch_calls,
        "curvature.christoffel_batch_rows_per_call": (
            c["curvature.christoffel_batch_rows"] / batch_calls if batch_calls else 0.0
        ),
        "curvature.christoffel_batch_s": incl("curvature.christoffel_batch"),
        "projective.companion_metric_calls": calls("projective.companion_metric"),
        "projective.family_metric_calls": calls("projective.family_metric"),
        "projective.einstein_family_constant_s": incl("projective.einstein_family_constant"),
        "projective.self_s": tr.layer_self_s("projective"),
        "parakahler.validate_s": incl("parakahler.validate"),
        "curves.integrate_geodesic_bundle_s": incl("curves.integrate_geodesic_bundle"),
        "curves.t_planarity_residual_s": incl("curves.t_planarity_residual"),
        "curves.kinetic_energy_s": incl("curves.kinetic_energy"),
        "curves.self_s": tr.layer_self_s("curves"),
        "report.to_json_s": incl("report.to_json"),
    }
    for check in checks:
        out[f"suites.{check}_s"] = incl(f"suites.{check}")
    return out


def unit_of(name: str) -> str:
    if name == "trace.overhead_ratio":
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "rows/call" if name.endswith("_per_call") else "count"


def trace_run(workload, seed, seconds, checker, env, out_path):
    """Per-layer metrics from traced passes, alternating with untraced ones.

    Set-up layers (catalog, exprs) come from one traced build after the
    untraced set-up; the other layers from the traced passes.  Counts must
    repeat exactly between traced passes; times are medians over them.
    """
    pk, entries, _ = timed_setup(workload, seed)
    tracer = Tracer()
    with tracer:
        entries = workloads.build(pk, workload, seed)
    builds = [s for s in tracer.spans if s.startswith("catalog.build_")]
    metrics = {
        "catalog.build_calls": sum(tracer.calls(s) for s in builds),
        "catalog.build_s": sum(tracer.inclusive_s(s) for s in builds),
        "exprs.compile_profile_s": tracer.inclusive_s("exprs.compile_profile"),
    }
    tally = checker.tally
    plain, traced, passes = [], [], []
    start = perf_counter()
    while True:
        outcomes, wall = timed_pass(pk, entries, workload, seed)
        checker(outcomes)
        plain.append(wall)
        tracer.reset()
        with tracer:
            outcomes, wall = timed_pass(pk, entries, workload, seed)
        traced.append(wall)
        attempted, failed = tally.attempted, tally.verdict_failed
        checker(outcomes)
        figures = layer_metrics(tracer, pk.suites.CHECK_NAMES)
        figures["suites.results_attempted"] = tally.attempted - attempted
        figures["suites.results_failed"] = tally.verdict_failed - failed
        passes.append(figures)
        elapsed = perf_counter() - start
        if len(traced) >= MIN_TRACED_PAIRS and (
            elapsed + statistics.median(plain) + statistics.median(traced) > seconds
        ):
            break
    for name in passes[0]:
        values = [p[name] for p in passes]
        if name.endswith("_s"):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                tally.problems.append(f"counter {name} differs between traced passes")
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    print(f"pairs={len(plain)} untraced_s=" + ",".join(f"{w:.4f}" for w in plain)
          + " traced_s=" + ",".join(f"{w:.4f}" for w in traced))
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump({
            "env": env,
            "counts": tracer.counts,
            "spans": {k: {"calls": v[0], "inclusive_s": v[1], "self_s": v[2]}
                      for k, v in sorted(tracer.spans.items())},
        }, fh, indent=1, sort_keys=True)
    return {k: (v, unit_of(k)) for k, v in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reduced", action="store_true",
                    help="smoke-test sizes: fewer points and triples")
    args = ap.parse_args(argv)

    if not (SRC / "pklab" / "__init__.py").is_file():
        print(f"pklab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the reference verdicts are recorded for these seeds only (see gate.py)
    seed = args.seed % len(gate.SEEDS)
    workload = (workloads.REDUCED if args.reduced else workloads.WORKLOADS)[args.workload]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    checker = Checker(gate.load_baseline(workload.name), seed)

    if args.trace:
        out = ROOT / ".bench_out" / f"trace-{workload.name}-seed{seed}.json"
        metrics = trace_run(workload, seed, args.seconds, checker, env, out)
    else:
        metrics = measure(workload, seed, args.seconds, checker)

    t = checker.tally
    ratio = t.verdict_failed / t.attempted if t.attempted else float("nan")
    print(f"{workload.name} seed={seed}: check_fail_ratio={ratio:.4g} "
          f"({t.verdict_failed} failed / {t.attempted} attempted, {t.skipped} skipped; "
          f"{t.failed} rejected by the gate)")
    for line in t.failures[:20]:
        print("FAILED " + line)
    for line in t.problems[:20]:
        print("PROBLEM " + line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": checker.correct and t.attempted > 0,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

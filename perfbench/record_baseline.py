"""Record the residual baseline that the correctness gate compares against.

For every workload and every seed in ``gate.SEEDS`` this runs one
verification pass and keeps, per triple label and result name, the
largest residual seen.  Results that fail their own tolerance at the
reference commit are listed with their seeds under ``failures_seen``; a
non-finite residual or an evaluation error stops the recording.  Run from
the repository root, once, at the commit whose residuals are the
reference:

    python3 perfbench/record_baseline.py

The gate then accepts a residual up to max(10 x baseline, 1e-12).
"""

from __future__ import annotations

import json
import math
import sys

import run  # first: pins the thread pools before numpy loads
import gate
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    pk = workloads.import_pklab()
    residuals: dict[str, dict[str, dict[str, float]]] = {}
    failures: dict[str, dict[str, dict[str, list[int]]]] = {}
    for name, workload in workloads.WORKLOADS.items():
        for seed in gate.SEEDS:
            entries = workloads.build(pk, workload, seed)
            for o in workloads.run_pass(pk, entries, workload.points, seed):
                if o.error is not None:
                    raise RuntimeError(f"{name} seed {seed} {o.label}: {o.error}")
                for r in o.report.checks:
                    if gate.is_skipped(r):
                        continue
                    if not math.isfinite(r.residual) or gate.eval_errors(r):
                        raise RuntimeError(f"{name} seed {seed} {o.label} {r.name}: {r}")
                    row = residuals.setdefault(name, {}).setdefault(o.label, {})
                    row[r.name] = max(row.get(r.name, 0.0), float(r.residual))
                    if gate.verdict_failure(r):
                        seeds = failures.setdefault(name, {}).setdefault(o.label, {})
                        seeds.setdefault(r.name, []).append(seed)
            print(f"{name} seed {seed} done", file=sys.stderr)
    with open(gate.BASELINE_PATH, "w") as fh:
        json.dump({
            "seeds": [gate.SEEDS[0], gate.SEEDS[-1]],
            "env": run.environment(),
            "residuals": residuals,
            "failures_seen": failures,
        }, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

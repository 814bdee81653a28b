"""Correctness gate applied to every verification pass of the benchmark.

It does not trust ``CheckResult.passed`` alone.  Each result of a pass is
judged twice:

* its verdict.  A result *fails* when its residual is not finite, is not
  below its tolerance, or carries an ``eval-error`` flag (``validate``
  records a raising sample point that way); a check whose run raised
  counts as one failed result.  A result with 0 points whose identity
  says "not checked" is skipped, neither passed nor failed.  failed /
  attempted is the check failure ratio.
* its agreement with the reference commit.  The residual must be finite
  and at most max(10 x the largest residual recorded for it in
  ``baseline.json``, 1e-12); a result missing from the baseline, a
  baseline result missing from the report, an evaluation error or a
  raising check is a *problem*.  A run is correct only without problems.

A failed verdict is a problem too, unless the reference commit fails the
same result at the same seed: ``baseline.json`` lists those under
``failures_seen``.  They still count in the failure ratio, but the gate
does not reject them: a result is *rejected* (counted in the benchmark's
``failed``) only when it has a problem.  The baseline
is recorded over every seed of ``SEEDS``, and the benchmark folds its
``--seed`` into that range, so the reference verdict of every run is known.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

BASELINE_PATH = Path(__file__).with_name("baseline.json")
BASELINE_FACTOR = 10.0
BASELINE_FLOOR = 1e-12
# the seeds baseline.json is recorded over
SEEDS = range(64)


@dataclass
class Baseline:
    """One workload's reference: label -> result name -> largest residual,
    and label -> result name -> seeds on which the verdict failed."""

    residuals: dict
    failures_seen: dict = field(default_factory=dict)

    def fails_at(self, label: str, name: str, seed: int) -> bool:
        return seed in self.failures_seen.get(label, {}).get(name, ())


def load_baseline(workload: str, path: Path = BASELINE_PATH) -> Baseline:
    with open(path) as fh:
        data = json.load(fh)
    if data["seeds"] != [SEEDS[0], SEEDS[-1]]:
        raise ValueError(f"{path} records seeds {data['seeds']}, not {SEEDS}")
    return Baseline(data["residuals"][workload], data["failures_seen"].get(workload, {}))


def is_skipped(result) -> bool:
    return result.points == 0 and "not checked" in result.identity


def eval_errors(result) -> list[str]:
    return [f for f in result.flags if f.startswith("eval-error")]


def verdict_failure(result) -> str | None:
    """Why a non-skipped CheckResult fails, or None if it passes."""
    errors = eval_errors(result)
    if errors:
        return f"evaluation raised at a sample point ({', '.join(errors)})"
    r = float(result.residual)
    if not math.isfinite(r):
        return f"non-finite residual {r}"
    if not r < float(result.tolerance):
        return f"residual {r:.3e} not below tolerance {result.tolerance:.1e}"
    return None


def baseline_problem(result, baseline_residual: float | None) -> str | None:
    """Why a non-skipped CheckResult disagrees with the reference, or None."""
    if eval_errors(result):
        return "evaluation raised at a sample point"
    if baseline_residual is None:
        return "no baseline residual recorded"
    r = float(result.residual)
    limit = max(BASELINE_FACTOR * baseline_residual, BASELINE_FLOOR)
    if not r <= limit:  # also true for NaN
        return f"residual {r:.3e} above max(10 x baseline {baseline_residual:.3e}, 1e-12)"
    return None


@dataclass
class GateTally:
    """Counts over gated results.

    ``verdict_failed`` counts results that fail their own verdict, the
    reference failures of ``failures_seen`` included: it is the numerator
    of the check failure ratio.  ``failed`` counts results the gate
    rejects, the ones that make the run incorrect.
    """

    attempted: int = 0
    verdict_failed: int = 0
    failed: int = 0
    skipped: int = 0
    failures: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def check_pass(outcomes, baseline: Baseline, seed: int, tally: GateTally) -> None:
    """Gate one pass at ``seed``.

    ``outcomes`` holds one object per triple with ``label``, ``checks``,
    ``report`` and ``error`` (the exception text when run_suite raised).
    """
    for o in outcomes:
        label = o.label
        if o.error is not None:
            for check in o.checks:
                tally.attempted += 1
                tally.verdict_failed += 1
                tally.failed += 1
                tally.failures.append(f"{label} {check}: raised {o.error}")
            tally.problems.append(f"{label}: run_suite raised {o.error}")
            continue
        expected = baseline.residuals.get(label, {})
        seen = set()
        for result in o.report.checks:
            if is_skipped(result):
                tally.skipped += 1
                continue
            seen.add(result.name)
            tally.attempted += 1
            problems = []
            reason = verdict_failure(result)
            if reason:
                tally.verdict_failed += 1
                tally.failures.append(f"{label} {result.name}: {reason}")
                if not baseline.fails_at(label, result.name, seed):
                    problems.append(f"{reason}; the reference passes it at seed {seed}")
            problem = baseline_problem(result, expected.get(result.name))
            if problem:
                problems.append(problem)
            if problems:
                tally.failed += 1
                tally.problems.extend(f"{label} {result.name}: {p}" for p in problems)
        for name in sorted(set(expected) - seen):
            tally.problems.append(f"{label} {name}: result missing from the report")

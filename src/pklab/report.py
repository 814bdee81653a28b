"""Verification report containers and deterministic JSON serialization.

Reports are strict JSON (RFC 8259): a residual that is not finite, which
only a result that failed closed has, is written as null.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

SCHEMA_VERSION = 1


def worst(residuals: Iterable[float]) -> float:
    """Largest of per-point residuals, 0.0 for none.

    A NaN anywhere propagates, so an unevaluable point cannot pass.  Python's
    max() would not do: max(0.0, nan) is 0.0, as it keeps the first operand
    when a comparison fails.
    """
    arr = np.fromiter(residuals, dtype=float)
    return float(np.max(arr)) if arr.size else 0.0


@dataclass
class CheckResult:
    """One named residual with its tolerance and verdict.

    ``identity`` is a short plain-language statement of what was checked
    (the equation or property), so reports are self-describing.
    """

    name: str
    residual: float
    tolerance: float
    points: int = 0
    identity: str = ""
    flags: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.residual < self.tolerance)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": float(self.residual) if math.isfinite(self.residual) else None,
            "tolerance": float(self.tolerance),
            "passed": self.passed,
            "points": int(self.points),
            "identity": self.identity,
            "flags": sorted(self.flags),
        }


@dataclass
class VerificationReport:
    label: str = ""
    config: dict = field(default_factory=dict)
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, result: CheckResult) -> CheckResult:
        self.checks.append(result)
        return result

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> dict:
        passed = sum(1 for c in self.checks if c.passed)
        return {
            "passed": passed,
            "failed": len(self.checks) - passed,
            "total": len(self.checks),
        }

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "label": self.label,
            "config": self.config,
            "checks": [c.to_dict() for c in sorted(self.checks, key=lambda c: c.name)],
            "summary": self.summary(),
        }

    def to_json(self) -> str:
        # sorted keys and fixed separators keep equal-config runs byte-identical
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False
        ) + "\n"

    def format_human(self, runtime: float | None = None) -> str:
        lines = []
        if self.label:
            lines.append(f"== {self.label}")
        width = max((len(c.name) for c in self.checks), default=4)
        for c in sorted(self.checks, key=lambda c: c.name):
            mark = "PASS" if c.passed else "FAIL"
            flags = f"  [{','.join(sorted(c.flags))}]" if c.flags else ""
            lines.append(
                f"{mark}  {c.name:<{width}}  residual={c.residual:.3e}"
                f"  tol={c.tolerance:.1e}  points={c.points}{flags}"
            )
        s = self.summary()
        tail = f"{s['passed']}/{s['total']} checks passed"
        if runtime is not None:
            tail += f"  ({runtime:.2f}s)"
        lines.append(tail)
        return "\n".join(lines)

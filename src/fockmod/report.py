"""Verification reports: named residual checks with thresholds and pass/fail."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Check:
    name: str
    anchor: str           # the identity or law being verified, as a formula string
    residual: float
    threshold: float
    passed: bool
    details: dict = field(default_factory=dict)

    @property
    def margin(self):
        """residual / threshold, or None for a zero threshold (every
        add_bool check) and for a quotient that is not finite."""
        if not self.threshold:
            return None
        ratio = self.residual / self.threshold
        return ratio if math.isfinite(ratio) else None

    def as_dict(self):
        """Strict-JSON form: a non-finite residual or threshold is written
        as null and named, with its value, under "nonfinite"."""
        out = {
            "name": self.name,
            "anchor": self.anchor,
            "residual": self.residual,
            "threshold": self.threshold,
            "margin": self.margin,
            "passed": self.passed,
            "details": self.details,
        }
        nonfinite = {key: repr(out[key]) for key in ("residual", "threshold")
                     if not math.isfinite(out[key])}
        if nonfinite:
            out.update(dict.fromkeys(nonfinite))
            out["nonfinite"] = nonfinite
        return out


@dataclass
class VerificationReport:
    suite: str
    parameters: dict = field(default_factory=dict)
    seed: int | None = None
    checks: list[Check] = field(default_factory=list)

    def add(self, name, anchor, residual, threshold, **details):
        residual = float(abs(residual))
        check = Check(name, anchor, residual, float(threshold),
                      residual <= threshold, details)
        self.checks.append(check)
        return check

    def add_bool(self, name, anchor, passed, **details):
        # degenerate residual: 0.0 for pass, inf for fail
        check = Check(name, anchor, 0.0 if passed else float("inf"),
                      0.0, bool(passed), details)
        self.checks.append(check)
        return check

    def merge(self, other: "VerificationReport"):
        self.checks.extend(other.checks)
        return self

    @property
    def passed(self) -> bool:
        """At least one check, and every check passed."""
        return bool(self.checks) and all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def as_dict(self):
        return {
            "suite": self.suite,
            "parameters": self.parameters,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
        }

    def to_text(self):
        lines = [f"suite: {self.suite}"]
        if self.parameters:
            lines.append("parameters: " + json.dumps(self.parameters, default=_jsonable))
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"[{status}] {c.name}: residual {c.residual:.3e}"
                         f" (tol {c.threshold:.1e})  # {c.anchor}")
        lines.append(f"result: {'all passed' if self.passed else 'FAILURES'}"
                     f" ({len(self.checks)} checks)")
        return "\n".join(lines)


def _jsonable(obj):
    """json.dumps default for values outside the JSON types."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    try:
        return float(obj)
    except (TypeError, ValueError):
        return str(obj)

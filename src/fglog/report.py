"""Pass/fail reports with defect payloads.

All verification entry points (Hopf axioms, group axioms, cocycle conditions,
the logarithm equation) return a Report instead of raising, so callers can
inspect every defect; raising is reserved for operations whose output would
be meaningless on failure.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Violation:
    axiom: str
    defect: object = None  # Series, TensorElement or None
    detail: str = ""

    def __str__(self):
        msg = self.axiom
        if self.detail:
            msg += f": {self.detail}"
        if self.defect is not None:
            msg += f" [defect: {self.defect}]"
        return msg


@dataclass(frozen=True)
class Report:
    passed: bool
    violations: tuple = ()
    certified_order: object = None  # int or math.inf when meaningful
    checks: tuple = ()  # names of the checks that ran

    @classmethod
    def ok(cls, certified_order=None, checks=()):
        return cls(True, (), certified_order, tuple(checks))

    @classmethod
    def fail(cls, violations, certified_order=None, checks=()):
        return cls(False, tuple(violations), certified_order, tuple(checks))

    def __bool__(self):
        return self.passed

    def __str__(self):
        if self.passed:
            extra = ""
            if self.certified_order is not None:
                extra = f" (certified through order {self.certified_order})"
            return "pass" + extra
        lines = ["fail"]
        lines += [f"  - {v}" for v in self.violations]
        return "\n".join(lines)

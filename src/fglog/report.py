"""Pass/fail reports with defect payloads.

All verification entry points (Hopf axioms, group axioms, cocycle conditions,
the logarithm equation) return a Report instead of raising, so callers can
inspect every defect; raising is reserved for operations whose output would
be meaningless on failure.

Both types are immutable records, equal when their fields are equal
(`namedtuple` subclasses, which cost nothing like the import of
`dataclasses`).
"""

from collections import namedtuple


class Violation(namedtuple("Violation", "axiom defect detail",
                           defaults=(None, ""))):
    """One failed axiom: its name, the defect (Series, TensorElement or
    None) and a detail line."""

    __slots__ = ()

    def __str__(self):
        msg = self.axiom
        if self.detail:
            msg += f": {self.detail}"
        if self.defect is not None:
            msg += f" [defect: {self.defect}]"
        return msg


class Report(namedtuple("Report", "passed violations certified_order",
                        defaults=((), None))):
    """Verdict, violations, and the certified order (int or math.inf) when
    meaningful."""

    __slots__ = ()

    @classmethod
    def ok(cls, certified_order=None):
        return cls(True, (), certified_order)

    @classmethod
    def fail(cls, violations, certified_order=None):
        return cls(False, tuple(violations), certified_order)

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

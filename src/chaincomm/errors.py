"""Failure taxonomy for witness constructions.

Mathematical obstructions (the input provably lacks the property) are kept
apart from construction limitations (this tool cannot decide or build a
witness, typically over a small finite field).  The CLI maps the former to
exit code 2 and the latter to exit code 3.
"""

from __future__ import annotations

from typing import Any

from .fields import render


class WitnessError(Exception):
    """Base class for all witness-construction failures."""

    def describe(self) -> dict[str, Any]:
        return {"error": type(self).__name__, "message": str(self)}


class MathematicalObstruction(WitnessError):
    """The requested property provably fails for the given input."""


class TraceObstruction(MathematicalObstruction):
    """A degreewise or cohomology trace that must vanish does not."""

    def __init__(self, degree: int, kind: str, value):
        self.degree = degree
        self.kind = kind  # "degree" or "cohomology"
        self.value = value
        super().__init__(f"nonzero {kind} trace {render(value)} at degree {degree}")

    def describe(self) -> dict[str, Any]:
        return {
            "error": "TraceObstruction",
            "degree": self.degree,
            "kind": self.kind,
            "value": render(self.value),
            "message": str(self),
        }


class StretchObstruction(MathematicalObstruction):
    """An alternating trace sum over a stretch that must vanish does not."""

    def __init__(self, start: int, end: int, value):
        self.start = start
        self.end = end
        self.value = value
        super().__init__(f"nonzero alternating trace sum {render(value)} over stretch [{start}, {end}]")

    def describe(self) -> dict[str, Any]:
        return {
            "error": "StretchObstruction",
            "stretch": [self.start, self.end],
            "value": render(self.value),
            "message": str(self),
        }


class ConstructionLimitation(WitnessError):
    """The construction cannot proceed; no claim is made about the input."""


class FieldTooSmall(ConstructionLimitation):
    """The field has too few elements for the decomposition algorithm."""


class SelectionExhausted(ConstructionLimitation):
    """Every candidate scalar shift fails a required invertibility condition
    (possible only over a finite field)."""

    def __init__(self, stage: str, index: int):
        self.stage = stage
        self.index = index
        super().__init__(f"no scalar shift satisfies the {stage} condition at index {index}")

    def describe(self) -> dict[str, Any]:
        return {
            "error": "SelectionExhausted",
            "stage": self.stage,
            "index": self.index,
            "message": str(self),
        }


class ValueTooLong(ConstructionLimitation):
    """A constructed value has a numerator or denominator of more digits than
    a document may carry."""


class FiniteFieldUnsupported(ConstructionLimitation):
    """Nothing raises this any more: every construction runs on every field.
    It stays importable for callers that catch it."""


class BlockStructureError(RuntimeError):
    """A conjugated chain map failed to be block upper-triangular; this means
    an invalid chain map slipped past validation and is surfaced, never
    silently zeroed."""

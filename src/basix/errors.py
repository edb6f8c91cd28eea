"""Exception types shared across the engine.

Every verdict the engine produces is exact; whenever exactness cannot be
maintained (irrational data where rational is required, caps exceeded) the
computation aborts with :class:`Unsupported` instead of approximating.
"""

from __future__ import annotations


class BasixError(Exception):
    """Base class for all engine errors."""


class Unsupported(BasixError):
    """Raised when a computation would leave exact rational arithmetic.

    ``reason`` is a stable machine-readable code, e.g.
    ``NonRationalSingularPoint``, ``NonRationalShearNeeded``, ``DepthCap``,
    ``TruncationCap``, ``VerticalComponent``.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)


class SceneError(BasixError):
    """Invalid scene declaration (hard validation failure)."""


class NotSquarefree(SceneError):
    def __init__(self, factor: str):
        self.factor = factor
        super().__init__(f"factor {factor!r} is not squarefree")


class SharedComponent(SceneError):
    def __init__(self, factor_a: str, factor_b: str):
        self.factors = (factor_a, factor_b)
        super().__init__(f"factors {factor_a!r} and {factor_b!r} share a component")


class DegreeZero(BasixError):
    """Resultant requested in a variable the polynomial does not contain."""


class ZeroPolynomial(BasixError):
    """Operation undefined for the zero polynomial."""


class ParseError(BasixError):
    """Scene DSL syntax error with position information."""

    def __init__(self, line: int, column: int, expected: str):
        self.line = line
        self.column = column
        self.expected = expected
        super().__init__(f"line {line}, column {column}: expected {expected}")


class InternalError(BasixError):
    """An internal invariant failed: a bug in the engine, not in the input."""


class CountMismatch(InternalError):
    """Internal consistency sentinel: a constructed witness failed re-verification."""

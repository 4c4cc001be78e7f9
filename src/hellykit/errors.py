"""Exception hierarchy shared across the toolkit.

Every failure mode a caller can act on gets its own class; the CLI maps them
onto distinct exit codes (input problems -> 4, budget overruns -> 3).
"""

from __future__ import annotations


class HellykitError(Exception):
    """Base class for all toolkit errors."""


class InputError(HellykitError):
    """Malformed or inconsistent input (bad schema, bad rational literal, ...)."""


class DimensionError(InputError):
    """Objects with mismatched or out-of-range ambient dimensions."""


class ScaleError(HellykitError):
    """A configured desk-scale budget was exceeded.

    Carries enough structure for a caller to report (or raise) a precise
    message without string parsing.
    """

    def __init__(self, budget_name: str, limit: int, actual: int, detail: str = ""):
        self.budget_name = budget_name
        self.limit = limit
        self.actual = actual
        self.detail = detail
        msg = f"budget {budget_name!r} exceeded: {actual} > {limit}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class GenerationError(HellykitError):
    """A verified construction search failed; names the first violated condition."""


class PreconditionError(InputError):
    """An operation's documented hypothesis fails on the given input.

    `witness` optionally carries the refuting object (a common point where
    emptiness was required, an index pair that fails to meet, ...)."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class TheoremViolationError(HellykitError):
    """Something mathematically impossible was observed (an internal bug trap)."""

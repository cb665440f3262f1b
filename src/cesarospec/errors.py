"""Exception types shared across the package."""

from __future__ import annotations


class CesaroError(Exception):
    """Base class for package-specific errors."""


class RepresentationError(CesaroError):
    """A requested value cannot be represented in the chosen arithmetic mode."""


class PreconditionError(CesaroError):
    """An operation was invoked outside its documented domain."""


class InternalConsistencyError(CesaroError):
    """Two independent computations of the same quantity disagree.

    Raised instead of silently preferring one route: a disagreement means a
    bug, not a borderline numerical outcome.
    """


class SkEmptyError(CesaroError):
    """No convergent exponent was found up to the search cap.

    Carries the per-exponent verdicts gathered during the search so callers
    can report the evidence.
    """

    def __init__(self, k: int, cap: float, probed: tuple = ()):
        self.k = k
        self.cap = cap
        self.probed = probed
        super().__init__(
            f"series diverges for every probed exponent s <= {cap} at k={k}"
        )


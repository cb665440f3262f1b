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
    """The level-k exponent set S_k is empty: the lower end of the s0(k)
    bracket is decisively unbounded.

    Carries that end's failing verdict as the evidence.
    """

    def __init__(self, k: int, verdict):
        self.k = k
        self.verdict = verdict
        super().__init__(
            f"no exponent converges at k={k}: "
            f"{verdict.params['quantity']} is unbounded "
            f"(witness {verdict.witness})"
        )

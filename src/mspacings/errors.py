"""Exception types raised across the package, and its one integer check.

Every error carries enough context to locate the offending input (index of a
bad observation, window position of a domain violation, position of the
largest summand of an overflowing sum, replication number of an aborted
simulation) so callers can report precisely.  Integer arguments
are all checked by :func:`checked_index`.
"""

from __future__ import annotations

import operator


def checked_index(name: str, value) -> int:
    """``value`` as an int; a TypeError naming ``name`` if it is no integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


class MSpacingsError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInput(MSpacingsError):
    """The observation list was empty."""


class ValueOutOfRange(MSpacingsError):
    """An observation fell outside the half-open unit interval [0, 1)."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"observation {index} is {value!r}, outside [0, 1)")


class OrderTooLarge(MSpacingsError):
    """The spacing order m is too large for the sample size."""


class NonPositiveArgument(MSpacingsError):
    """A special function was called outside its domain."""


class ArgumentTooSmall(MSpacingsError):
    """An integer argument was below the supported minimum."""


class ZeroSpacing(MSpacingsError):
    """A statistic needing strictly positive spacings hit a tied observation."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"spacing {index} is zero (tied observations)")


class DomainViolation(MSpacingsError):
    """A tuple function was evaluated outside its declared domain."""

    def __init__(self, index: int, detail: str = ""):
        self.index = index
        msg = f"tuple function undefined at window {index}"
        super().__init__(f"{msg}: {detail}" if detail else msg)


class SummandOverflow(MSpacingsError):
    """Finite summands of a statistic whose sum overflows; carries the
    position and value of the summand of largest magnitude."""

    def __init__(self, index: int, value: float, count: int):
        self.index = index
        self.value = value
        super().__init__(f"the sum of {count} finite summands overflows; the largest is "
                         f"summand {index}, {value!r}")


class FamilyLengthMismatch(MSpacingsError):
    """A function family's length does not match the number of summands."""


class UnsupportedKind(MSpacingsError):
    """The requested operation has no formula for this statistic kind."""


class DegenerateVariance(MSpacingsError):
    """A standardization was attempted with non-positive variance."""


class NonFiniteSample(MSpacingsError):
    """A Monte Carlo evaluation produced a non-finite value."""


class SimulationAborted(MSpacingsError):
    """A null-distribution replication failed; carries the replication index."""

    def __init__(self, replication: int, cause: Exception):
        self.replication = replication
        self.cause = cause
        super().__init__(f"replication {replication} aborted: {cause}")

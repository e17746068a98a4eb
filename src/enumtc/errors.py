"""Exception types shared across the library.

Every failure mode that callers are expected to catch has its own class so
that verification code can distinguish "the computation says no" from "the
computation could not be carried out".
"""


class EnumTCError(Exception):
    """Base class for all library errors."""


class DivisionByZero(EnumTCError):
    """Division by the zero element of a field."""


class InvalidField(EnumTCError):
    """Field mismatch or an unusable field parameter (e.g. composite p)."""


class InexactDivision(EnumTCError):
    """Exact polynomial division requested but the divisor does not divide."""


class GradingViolation(EnumTCError):
    """A substitution or map does not respect the declared weights."""


class IncompleteMap(EnumTCError):
    """A variable substitution is missing an image for some variable."""


class InvalidIndex(EnumTCError):
    """An index is out of range."""


class InvalidInput(EnumTCError):
    """Malformed input that is not a field or grading problem."""


class UnsupportedLength(EnumTCError):
    """A sequence length outside what the certificate method supports."""


class CollapseHypothesisUnmet(EnumTCError):
    """A spectral-sequence style collapse hypothesis failed, so the
    requested series cannot be formed."""


class InvalidLine(EnumTCError):
    """A purported line in P^3 is degenerate (rank < 2)."""


class NotInvariant(EnumTCError):
    """A group element does not map the configured point set to itself."""


class CollisionAtTolerance(EnumTCError):
    """Two objects have the same image under a group element."""


class CheckFailed(EnumTCError):
    """An exact check of a claimed property came out false."""


class InconsistentEvidence(EnumTCError):
    """Two independent computations of the same quantity disagree."""


class UnknownClaim(EnumTCError):
    """A claim identifier not present in the registry."""


class GeneratorCheckFailure(EnumTCError):
    """A proposed generating set fails to span the computed kernel."""

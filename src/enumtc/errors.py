"""Exception types and the immutable-record base shared by the library.

Every failure mode that callers are expected to catch has its own class so
that verification code can distinguish "the computation says no" from "the
computation could not be carried out".
"""


class Frozen:
    """Immutable record: __init__ sets the fields named in _fields once,
    through _set or object.__setattr__, and any later assignment raises
    AttributeError.  == holds only between instances of one class with
    equal fields, the hash is that of the field tuple, and copies and
    pickles rebuild through __init__."""

    __slots__ = ()
    _fields = ()

    def _set(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: "
                             f"cannot change {name!r}")

    def __delattr__(self, name):
        self.__setattr__(name, None)

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({args})"


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

"""Exact coefficient fields.

Prime fields F_p, rationals (stdlib Fraction), number fields Q[t]/(m(t)),
and their complex embeddings for handing exact values to the numeric
solvers.  All values are immutable and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import (
    DivisionByZero,
    InvalidField,
    InvalidIndex,
    InvalidInput,
    NumericFailure,
)


def is_prime(p: int) -> bool:
    """Deterministic trial division; moduli in this library are tiny."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """The field F_p for a prime modulus p."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise InvalidField(f"modulus {p} is not prime")
        self.p = p
        self.tag = f"Fp:{p}"

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def zero(self):
        return FpElement(self, 0)

    def one(self):
        return FpElement(self, 1)

    def from_int(self, n: int):
        return FpElement(self, n % self.p)

    def element_to_str(self, a: "FpElement") -> str:
        return f"{a.residue} mod {self.p}"


@dataclass(frozen=True)
class FpElement:
    field: PrimeField
    residue: int

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.field != self.field:
                raise InvalidField("mixed prime fields")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.field, (self.residue + o.residue) % self.field.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.field, (self.residue - o.residue) % self.field.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.field, (self.residue * o.residue) % self.field.p)

    __rmul__ = __mul__

    def __neg__(self):
        return FpElement(self.field, (-self.residue) % self.field.p)

    def inverse(self):
        if self.residue == 0:
            raise DivisionByZero(f"inverse of 0 in F_{self.field.p}")
        return FpElement(self.field, pow(self.residue, -1, self.field.p))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return FpElement(self.field, pow(self.residue, n, self.field.p))

    def __bool__(self):
        return self.residue != 0

    def __repr__(self):
        return f"{self.residue} mod {self.field.p}"


class RationalField:
    """Q, with stdlib Fraction as the element type."""

    tag = "QQ"

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n: int):
        return Fraction(n)

    def element_to_str(self, a: Fraction) -> str:
        return str(a)


QQ = RationalField()


def _qpoly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _qpoly_divmod(a, b):
    # a, b: Fraction coefficient lists, low to high; b nonzero.
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv_lead
        if c == 0:
            continue
        q[i] = c
        for j, bj in enumerate(b):
            a[i + j] -= c * bj
    return q, _qpoly_trim(a)


class NumberField:
    """Q[t]/(m(t)) for a monic polynomial m with rational coefficients.

    Irreducibility is not verified up front; a nontrivial factor surfaces
    as InvalidField during inversion.
    """

    def __init__(self, minpoly, name: str = "t"):
        coeffs = tuple(Fraction(c) for c in minpoly)
        if len(coeffs) < 3 or coeffs[-1] != 1:
            raise InvalidField("minpoly must be monic of degree >= 2")
        self.minpoly = coeffs
        self.degree = len(coeffs) - 1
        self.name = name
        self.tag = "NF:" + ",".join(str(c) for c in coeffs)
        self._roots = None

    def __repr__(self):
        return f"NumberField(deg {self.degree}, {self.name})"

    def __eq__(self, other):
        return isinstance(other, NumberField) and other.minpoly == self.minpoly

    def __hash__(self):
        return hash(("NumberField", self.minpoly))

    def element(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            raise InvalidInput("coefficient vector longer than field degree")
        cs += [Fraction(0)] * (self.degree - len(cs))
        return NumberFieldElement(self, tuple(cs))

    def zero(self):
        return self.element([])

    def one(self):
        return self.element([1])

    def gen(self):
        return self.element([0, 1])

    def from_int(self, n: int):
        return self.element([n])

    def from_fraction(self, q: Fraction):
        return self.element([q])

    def element_to_str(self, a: "NumberFieldElement") -> str:
        return ",".join(str(c) for c in a.coeffs)

    def _reduce(self, coeffs):
        # coeffs: Fraction list, any length; reduce mod the monic minpoly.
        coeffs = list(coeffs)
        for i in range(len(coeffs) - 1, self.degree - 1, -1):
            c = coeffs[i]
            if c == 0:
                continue
            coeffs[i] = Fraction(0)
            for j in range(self.degree):
                coeffs[i - self.degree + j] -= c * self.minpoly[j]
        coeffs = coeffs[: self.degree]
        coeffs += [Fraction(0)] * (self.degree - len(coeffs))
        return tuple(coeffs)

    def embedding_roots(self):
        """Complex roots of the minpoly, sorted lexicographically by (re, im)."""
        if self._roots is None:
            with mpmath.workdps(60):
                poly = [mpmath.mpf(c.numerator) / c.denominator
                        for c in reversed(self.minpoly)]
                try:
                    roots = mpmath.polyroots(poly, maxsteps=200, extraprec=120)
                except mpmath.libmp.NoConvergence as exc:
                    raise NumericFailure(f"root finding failed: {exc}") from exc
                roots = sorted((mpmath.mpc(r) for r in roots),
                               key=lambda r: (r.real, r.imag))
            self._roots = tuple(roots)
        return self._roots


@dataclass(frozen=True)
class NumberFieldElement:
    field: NumberField
    coeffs: tuple

    def _coerce(self, other):
        if isinstance(other, NumberFieldElement):
            if other.field != self.field:
                raise InvalidField("mixed number fields")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, Fraction):
            return self.field.from_fraction(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return NumberFieldElement(
            self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return NumberFieldElement(
            self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = self.field.degree
        prod = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                if b != 0:
                    prod[i + j] += a * b
        return NumberFieldElement(self.field, self.field._reduce(prod))

    __rmul__ = __mul__

    def __neg__(self):
        return NumberFieldElement(self.field, tuple(-c for c in self.coeffs))

    def inverse(self):
        if not self:
            raise DivisionByZero("inverse of 0 in a number field")
        # Extended Euclid on (a, m) over Q[t]: s·a + t·m = gcd.
        m = list(self.field.minpoly)
        r0, r1 = m, _qpoly_trim(list(self.coeffs))
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r = _qpoly_divmod(r0, r1)
            s = list(s0)
            s += [Fraction(0)] * (len(q) + len(s1) - 1 - len(s))
            for i, qi in enumerate(q):
                if qi == 0:
                    continue
                for j, sj in enumerate(s1):
                    s[i + j] -= qi * sj
            r0, r1, s0, s1 = r1, r, s1, _qpoly_trim(s)
        if len(r0) != 1:
            raise InvalidField("minpoly is reducible: nontrivial gcd found")
        inv_gcd = 1 / r0[0]
        return self.field.element([c * inv_gcd for c in s0])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __bool__(self):
        return any(c != 0 for c in self.coeffs)

    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def __repr__(self):
        t = self.field.name
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*{t}")
            else:
                parts.append(f"{c}*{t}^{i}")
        return " + ".join(parts) if parts else "0"


def cyclotomic_field(p: int, name: str = "z") -> NumberField:
    """Q(zeta_p) for prime p, with minpoly 1 + t + ... + t^(p-1)."""
    if not is_prime(p):
        raise InvalidField(f"{p} is not prime")
    return NumberField([1] * (p - 1) + [1], name=name)


def nf_embed_complex(a, root_index: int = 0) -> complex:
    """Embed a field element into C as a double-precision complex.

    For a NumberFieldElement the generator goes to the root of the minpoly
    selected by root_index under the (re, im) lexicographic root order,
    and the element is evaluated at 60 digits before rounding.  Rationals
    and F_p elements do not need a root choice.
    """
    if isinstance(a, (int, Fraction)):
        return complex(float(a))
    if isinstance(a, FpElement):
        return complex(float(a.residue))
    if isinstance(a, NumberFieldElement):
        if a.is_rational():
            return complex(float(a.coeffs[0]))
        roots = a.field.embedding_roots()
        if not 0 <= root_index < len(roots):
            raise InvalidIndex(f"root_index {root_index} out of range")
        with mpmath.workdps(60):
            t = roots[root_index]
            acc = mpmath.mpc(0)
            for c in reversed(a.coeffs):
                acc = acc * t + mpmath.mpf(c.numerator) / c.denominator
            return complex(float(acc.real), float(acc.imag))
    raise InvalidInput(f"cannot embed {type(a).__name__}")


def field_inverse(a):
    """Multiplicative inverse in whichever supported field a lives in."""
    if isinstance(a, Fraction):
        if a == 0:
            raise DivisionByZero("inverse of 0 in Q")
        return 1 / a
    if isinstance(a, int):
        if a == 0:
            raise DivisionByZero("inverse of 0 in Q")
        return Fraction(1, a)
    if isinstance(a, (FpElement, NumberFieldElement)):
        return a.inverse()
    raise InvalidInput(f"no inverse for {type(a).__name__}")

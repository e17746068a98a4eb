"""Exact coefficient fields.

Prime fields F_p, rationals (stdlib Fraction) and number fields
Q[t]/(m(t)) for a monic integer m, whose elements are int vectors over one
denominator.  Q(zeta_p) embeds into C at t = exp(2 pi i/p), for the floats
a report shows (displacements and deviations); no other number field
embeds.  All values are immutable and all operations are pure; a
NumberField memoises the inverses it has computed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .errors import DivisionByZero, Frozen, InvalidField, InvalidInput


# Miller-Rabin on the primes to 41 decides primality below this bound.
PRIMALITY_BOUND = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic: Miller-Rabin on the primes to 41 decides p below
    PRIMALITY_BOUND, about 3.3e24 (Sorenson and Webster, Math. Comp. 86,
    2017).  A larger p raises InvalidInput: no test here decides it in
    bounded time."""
    if p >= PRIMALITY_BOUND:
        raise InvalidInput(f"primality is decided only below "
                           f"{PRIMALITY_BOUND}")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if p < 2 or any(p % a == 0 for a in bases):
        return p in bases
    r = ((p - 1) & (1 - p)).bit_length() - 1   # p - 1 = 2^r * odd
    for a in bases:
        chain = [pow(a, (p - 1) >> r, p)]
        for _ in range(r - 1):
            chain.append(chain[-1] ** 2 % p)
        if chain[0] != 1 and p - 1 not in chain:
            return False
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


class _FieldElement(Frozen):
    """Operators shared by FpElement and NumberFieldElement, built on
    their _coerce, _add (self + sign * other), *, inverse and field.one()."""

    __slots__ = ()

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

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


class FpElement(_FieldElement):
    _fields = ("field", "residue")

    def __init__(self, field: PrimeField, residue: int):
        self._set(field, residue)

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.field != self.field:
                raise InvalidField("mixed prime fields")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    def _add(self, other, sign):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.field,
                         (self.residue + sign * o.residue) % self.field.p)

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


class NumberField:
    """Q[t]/(m(t)) for a monic polynomial m with integer coefficients.

    m must be integral so that products reduce modulo m on Python ints
    (see NumberFieldElement).  Irreducibility is not verified up front; a
    nontrivial factor surfaces as InvalidField during inversion.
    """

    def __init__(self, minpoly, name: str = "t"):
        coeffs = tuple(Fraction(c) for c in minpoly)
        if (len(coeffs) < 3 or coeffs[-1] != 1
                or any(c.denominator != 1 for c in coeffs)):
            raise InvalidField("minpoly must be monic and integral, of "
                               "degree >= 2")
        self.minpoly = tuple(int(c) for c in coeffs)
        self.degree = len(coeffs) - 1
        self.name = name
        self.tag = "NF:" + ",".join(str(c) for c in self.minpoly)
        self._zeros = (0,) * (self.degree - 1)
        self._inverses = {}

    def __repr__(self):
        return f"NumberField(deg {self.degree}, {self.name})"

    def __eq__(self, other):
        return self is other or (isinstance(other, NumberField)
                                 and other.minpoly == self.minpoly)

    def __hash__(self):
        return hash(("NumberField", self.minpoly))

    def element(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            raise InvalidInput("coefficient vector longer than field degree")
        den = math.lcm(*(c.denominator for c in cs))
        num = [c.numerator * (den // c.denominator) for c in cs]
        num += [0] * (self.degree - len(num))
        return _normal(self, num, den)

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def gen(self):
        return self.element([0, 1])

    def from_int(self, n: int):
        return NumberFieldElement(self, (n,) + self._zeros, 1)

    def element_to_str(self, a: "NumberFieldElement") -> str:
        return ",".join(str(c) for c in a.coeffs)

    def _reduce(self, coeffs):
        """Reduce an int list of length >= degree mod the minpoly, in
        place; returns the list cut to length degree."""
        n = self.degree
        for i in range(len(coeffs) - 1, n - 1, -1):
            c = coeffs[i]
            if c:
                # subtract c * t^(i-n) * m below index i; index i is cut
                for j, m in enumerate(self.minpoly[:-1], i - n):
                    coeffs[j] -= c * m
        del coeffs[n:]
        return coeffs


def _normal(field, num, den):
    """sum num[i] t^i / den for den > 0, with gcd(den, *num) divided out."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return NumberFieldElement(field, tuple(num), den)


class NumberFieldElement(_FieldElement):
    """(num[0] + num[1] t + ... + num[n-1] t^(n-1)) / den in a NumberField.

    num holds degree ints, den > 0 and gcd(den, *num) == 1.  Every
    operation returns this normal form, so == and hash, which compare
    (field, num, den), are exact.  Build elements through NumberField,
    not this constructor.
    """

    __slots__ = _fields = ("field", "num", "den")

    # Frozen's _set and _values unrolled: every Q(zeta_p) operation runs them
    def __init__(self, field: NumberField, num: tuple, den: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def _values(self):
        return self.field, self.num, self.den

    @property
    def coeffs(self):
        """The coefficients of 1, t, ..., t^(n-1) as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def _coerce(self, other):
        if isinstance(other, NumberFieldElement):
            if other.field is not self.field and other.field != self.field:
                raise InvalidField("mixed number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return NumberFieldElement(
                self.field, (other.numerator,) + self.field._zeros,
                other.denominator)
        return None

    def _add(self, other, sign):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, e = self.den, o.den
        if d == e:
            return _normal(self.field,
                           [a + sign * b for a, b in zip(self.num, o.num)], d)
        return _normal(self.field, [a * e + sign * b * d
                                    for a, b in zip(self.num, o.num)], d * e)

    def __mul__(self, other):
        same = other.__class__ is NumberFieldElement and \
            other.field is self.field
        o = other if same else self._coerce(other)
        if o is None:
            return NotImplemented
        field, x, y, den = self.field, self.num, o.num, self.den * o.den
        # most products in the exact geometry have a rational factor
        for r, v in ((x, y), (y, x)):
            if not any(r[1:]):
                return _normal(field, [a * r[0] for a in v], den)
        prod = [0] * (2 * field.degree - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y, i):
                    prod[j] += a * b
        return _normal(field, field._reduce(prod), den)

    __rmul__ = __mul__

    def __neg__(self):
        return NumberFieldElement(self.field, tuple(-c for c in self.num),
                                  self.den)

    def inverse(self):
        """1 / self, memoised per field, since the exact geometry inverts
        the same few elements again and again; a failure is not kept."""
        key, memo = (self.num, self.den), self.field._inverses
        if key not in memo:
            memo[key] = self._invert()
        return memo[key]

    def _invert(self):
        if not self:
            raise DivisionByZero("inverse of 0 in a number field")
        # Solve M x = e_0, where column j of M holds num * t^j, by
        # fraction-free Gauss-Jordan elimination on ints (each division is
        # exact).  It ends with the last pivot d = +-det M on the diagonal
        # and d * x in the right-hand column.
        field, n = self.field, self.field.degree
        cols = [list(self.num)]
        for _ in range(n - 1):
            cols.append(field._reduce([0] + cols[-1]))
        A = [[col[i] for col in cols] + [int(i == 0)] for i in range(n)]
        prev = 1
        for k in range(n):
            p = next((r for r in range(k, n) if A[r][k]), None)
            if p is None:
                raise InvalidField("minpoly is reducible: zero divisor found")
            A[k], A[p] = A[p], A[k]
            pivot_row, pivot = A[k], A[k][k]
            for i in range(n):
                f = A[i][k]
                if i != k:
                    A[i] = [(pivot * a - f * b) // prev
                            for a, b in zip(A[i], pivot_row)]
            prev = pivot
        if prev < 0:
            return _normal(field, [-self.den * row[n] for row in A], -prev)
        return _normal(field, [self.den * row[n] for row in A], prev)

    def __bool__(self):
        return any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

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


_CYCLOTOMIC = {}


def cyclotomic_field(p: int) -> NumberField:
    """Q(zeta_p) for prime p, with minpoly 1 + z + ... + z^(p-1).

    One shared instance per p: field checks on elements reduce to an
    identity test.
    """
    field = _CYCLOTOMIC.get(p)
    if field is None:
        if not is_prime(p):
            raise InvalidField(f"{p} is not prime")
        field = _CYCLOTOMIC[p] = NumberField([1] * p, name="z")
    return field


# Fixed-point bits of an embedding table entry, and the guard bits below
# them that absorb the rounding of the series.
_EMBED_BITS = 256
_GUARD_BITS = 32


@cache
def _zeta_table(p: int):
    """(cos, sin) of 2 pi i/p for i = 0, ..., p-2 as ints scaled by
    2^_EMBED_BITS: pi by Machin's formula, then Taylor series, on ints.
    Rounding to the nearest int makes the rational entries (1, 0, -1/2)
    exact."""
    one, half = 1 << (_EMBED_BITS + _GUARD_BITS), 1 << (_GUARD_BITS - 1)

    def arctan_inv(x):
        total, power, k = 0, one // x, 1
        while power:
            total += power // k if k % 4 == 1 else -(power // k)
            power //= x * x
            k += 2
        return total

    pi = 16 * arctan_inv(5) - 4 * arctan_inv(239)
    table = []
    for i in range(p - 1):
        theta = 2 * pi * i // p
        parts, term, n = [0, 0], one, 0
        while term:
            parts[n % 2] += -term if n % 4 > 1 else term
            n += 1
            term = term * theta // (n * one)
        table.append(tuple((c + half) >> _GUARD_BITS for c in parts))
    return tuple(table)


def nf_embed_complex(a) -> complex:
    """Embed a field element into C as a double-precision complex.

    An element sum num_i t^i / den of Q(zeta_p), p prime, goes to
    sum num_i r^i / den at r = exp(2 pi i/p), summed exactly over
    _zeta_table and rounded once, by int division, to each double.  Any
    other number field raises InvalidField; rationals embed as themselves,
    and anything else, an F_p element included, raises InvalidInput.
    """
    if isinstance(a, (int, Fraction)):
        return complex(float(a))
    if isinstance(a, NumberFieldElement):
        p = a.field.degree + 1
        if a.field.minpoly != (1,) * p or not is_prime(p):
            raise InvalidField(f"only Q(zeta_p) embeds, not {a.field.tag}")
        if a.is_rational():
            return complex(float(a.coeffs[0]))
        table = _zeta_table(p)
        scale = a.den << _EMBED_BITS
        return complex(sum(c * re for c, (re, _) in zip(a.num, table)) / scale,
                       sum(c * im for c, (_, im) in zip(a.num, table)) / scale)
    raise InvalidInput(f"cannot embed {type(a).__name__}")


def field_inverse(a):
    """Multiplicative inverse in whichever supported field a lives in."""
    if isinstance(a, (int, Fraction)):
        if a == 0:
            raise DivisionByZero("inverse of 0 in Q")
        return 1 / Fraction(a)
    if isinstance(a, (FpElement, NumberFieldElement)):
        return a.inverse()
    raise InvalidInput(f"no inverse for {type(a).__name__}")

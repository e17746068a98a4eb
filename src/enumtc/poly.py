"""Weighted-graded multivariate polynomials over exact fields.

Sparse term maps keyed by exponent tuples, with a graded reverse
lexicographic canonical order used for printing, hashing of term lists,
leading terms, and JSON output.  Also houses univariate machinery:
Sylvester resultants via fraction-free Bareiss determinants, and the
monic gcd over a field that the exact contact checks use.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import add

from .errors import (
    DivisionByZero,
    Frozen,
    GradingViolation,
    IncompleteMap,
    InexactDivision,
    InvalidIndex,
    InvalidInput,
)


class VariableTable(Frozen):
    """Ordered variable names with positive integer weights."""

    _fields = ("names", "weights")

    def __init__(self, names: tuple, weights: tuple):
        self._set(names, weights)
        if len(self.names) != len(set(self.names)):
            raise InvalidInput("variable names must be distinct")
        if len(self.names) != len(self.weights):
            raise InvalidInput("names and weights must align")
        if any(w < 1 for w in self.weights):
            raise InvalidInput("weights must be >= 1")

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InvalidInput(f"no variable named {name!r}") from None

    def weighted_degree(self, exps) -> int:
        return sum(e * w for e, w in zip(exps, self.weights))


def make_table(names, weights=None) -> VariableTable:
    names = tuple(names)
    if weights is None:
        weights = (1,) * len(names)
    return VariableTable(names, tuple(weights))


def _grevlex_key(table, exps):
    return (table.weighted_degree(exps), tuple(-e for e in reversed(exps)))


class Polynomial:
    """Sparse polynomial: exponent tuple -> nonzero coefficient."""

    __slots__ = ("table", "field", "terms")

    def __init__(self, table: VariableTable, field, terms: dict):
        self.table = table
        self.field = field
        self.terms = {e: c for e, c in terms.items() if c}

    # ----- constructors -----

    @classmethod
    def zero(cls, table, field):
        return cls(table, field, {})

    @classmethod
    def constant(cls, c, table, field):
        return cls(table, field, {(0,) * len(table): c})

    @classmethod
    def one(cls, table, field):
        return cls.constant(field.one(), table, field)

    @classmethod
    def variable(cls, name, table, field):
        i = table.index(name)
        e = [0] * len(table)
        e[i] = 1
        return cls(table, field, {tuple(e): field.one()})

    @classmethod
    def monomial(cls, exps, coeff, table, field):
        if len(exps) != len(table):
            raise InvalidInput("exponent vector does not match table")
        return cls(table, field, {tuple(exps): coeff})

    # ----- predicates and views -----

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        z = (0,) * len(self.table)
        return self.terms.get(z, self.field.zero())

    def weighted_degree(self):
        """Max weighted degree of any term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(self.table.weighted_degree(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {self.table.weighted_degree(e) for e in self.terms}
        return len(degs) <= 1

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda ec: _grevlex_key(self.table, ec[0]),
                      reverse=True)

    def leading_term(self):
        if not self.terms:
            raise InvalidInput("zero polynomial has no leading term")
        e = max(self.terms, key=lambda e: _grevlex_key(self.table, e))
        return e, self.terms[e]

    def degree_in(self, name: str) -> int:
        i = self.table.index(name)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    # ----- arithmetic -----

    def _check_compat(self, other):
        if other.table != self.table or other.field != self.field:
            raise InvalidInput("polynomials live in different rings")

    def _coerce_scalar(self, c):
        if isinstance(c, int):
            return self.field.from_int(c)
        return c

    def _as_poly(self, other):
        if isinstance(other, Polynomial):
            self._check_compat(other)
            return other
        return Polynomial.constant(self._coerce_scalar(other),
                                   self.table, self.field)

    def __add__(self, other):
        other = self._as_poly(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c if e in terms else c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Polynomial(self.table, self.field, terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._as_poly(other))

    def __rsub__(self, other):
        return self._as_poly(other) + (-self)

    def __neg__(self):
        return Polynomial(self.table, self.field,
                          {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_compat(other)
            terms = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(map(add, e1, e2))
                    s = terms.get(e)
                    terms[e] = c1 * c2 if s is None else s + c1 * c2
            return Polynomial(self.table, self.field, terms)
        c = self._coerce_scalar(other)
        return Polynomial(self.table, self.field,
                          {e: c0 * c for e, c0 in self.terms.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if n < 0:
            raise InvalidInput("negative polynomial power")
        result = Polynomial.one(self.table, self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.table == other.table and self.field == other.field
                and self.terms == other.terms)

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for name, ei in zip(self.table.names, e):
                if ei == 1:
                    factors.append(name)
                elif ei > 1:
                    factors.append(f"{name}^{ei}")
            lead = repr(c) if not isinstance(c, Fraction) else str(c)
            if factors:
                parts.append(f"({lead})*" + "*".join(factors))
            else:
                parts.append(f"({lead})")
        return " + ".join(parts)

    # ----- calculus and evaluation -----

    def partial(self, name: str):
        i = self.table.index(name)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            nc = c * e[i]
            if nc:
                terms[tuple(ne)] = nc
        return Polynomial(self.table, self.field, terms)

    # ----- exact division -----

    def exact_div(self, other: "Polynomial"):
        """Quotient when other divides self exactly, else InexactDivision."""
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self._coerce_scalar(other),
                                        self.table, self.field)
        self._check_compat(other)
        if not other:
            raise DivisionByZero("polynomial division by zero")
        lt_e, lt_c = other.leading_term()
        rem = dict(self.terms)
        quot = {}
        while rem:
            r_e = max(rem, key=lambda e: _grevlex_key(self.table, e))
            r_c = rem[r_e]
            if any(a < b for a, b in zip(r_e, lt_e)):
                raise InexactDivision("leading term does not divide")
            q_e = tuple(a - b for a, b in zip(r_e, lt_e))
            q_c = r_c / lt_c
            quot[q_e] = quot.get(q_e, self.field.zero()) + q_c
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(q_e, e2))
                s = rem.get(e, self.field.zero()) - q_c * c2
                if s:
                    rem[e] = s
                else:
                    rem.pop(e, None)
        return Polynomial(self.table, self.field, quot)


def substitute(f: Polynomial, images: dict,
               check_grading: bool = False) -> Polynomial:
    """Apply to f the ring homomorphism given by variable images.

    images maps every variable name of f to a Polynomial in the target
    ring; coefficients of f enter the target ring unchanged.  With
    check_grading set, each image must be zero or homogeneous of its
    variable's weight.
    """
    missing = [n for n in f.table.names if n not in images]
    if missing:
        raise IncompleteMap(f"no image for {', '.join(missing)}")
    sample = next(iter(images.values()))
    ttable, tfield = sample.table, sample.field
    for name, img in images.items():
        if img.table != ttable or img.field != tfield:
            raise InvalidInput("images live in different rings")
        if check_grading and img:
            w = f.table.weights[f.table.index(name)]
            if not img.is_homogeneous() or img.weighted_degree() != w:
                raise GradingViolation(
                    f"image of {name} is not homogeneous of weight {w}")
    # powers[i][k - 1] is the i-th variable's image ** k, each built once
    # from the last
    powers = [[images[name]] for name in f.table.names]
    one = Polynomial.one(ttable, tfield)
    terms = {}
    for e, c in f.terms.items():
        prod = one
        for i, k in enumerate(e):
            if k:
                ps = powers[i]
                while len(ps) < k:
                    ps.append(ps[-1] * ps[0])
                prod = ps[k - 1] if prod is one else prod * ps[k - 1]
        for te, tc in prod.terms.items():
            s = terms.get(te)
            terms[te] = c * tc if s is None else s + c * tc
    return Polynomial(ttable, tfield, terms)


def elementary_symmetric(k: int, table: VariableTable, field) -> Polynomial:
    """Sum of all squarefree degree-k monomials; k=0 gives 1."""
    n = len(table)
    if not 0 <= k <= n:
        raise InvalidIndex(f"k={k} out of range for {n} variables")
    terms = {}
    for combo in combinations(range(n), k):
        e = [0] * n
        for i in combo:
            e[i] = 1
        terms[tuple(e)] = field.one()
    return Polynomial(table, field, terms)


def monomials_of_weighted_degree(table: VariableTable, d: int):
    """All exponent tuples of weighted degree exactly d, canonical order.

    The enumeration is cached per (table, d); each call returns a new
    list.
    """
    return list(_monomials(table, d))


@lru_cache(maxsize=1024)
def _monomials(table: VariableTable, d: int):
    n = len(table)
    out = []

    def rec(i, remaining, current):
        if i == n:
            if remaining == 0:
                out.append(tuple(current))
            return
        w = table.weights[i]
        for e in range(remaining // w + 1):
            current[i] = e
            rec(i + 1, remaining - e * w, current)
        current[i] = 0

    rec(0, d, [0] * n)
    out.sort(key=lambda e: _grevlex_key(table, e), reverse=True)
    return tuple(out)


def hessian_det(F: Polynomial) -> Polynomial:
    """Determinant of the 3x3 matrix of second partials."""
    if len(F.table) != 3:
        raise InvalidInput("hessian_det expects a ternary polynomial")
    if not F.is_homogeneous():
        raise GradingViolation("input is not homogeneous")
    if F.weighted_degree() < 3:
        raise InvalidInput("degree must be at least 3")
    names = F.table.names
    H = [[F.partial(a).partial(b) for b in names] for a in names]
    return (H[0][0] * (H[1][1] * H[2][2] - H[1][2] * H[2][1])
            - H[0][1] * (H[1][0] * H[2][2] - H[1][2] * H[2][0])
            + H[0][2] * (H[1][0] * H[2][1] - H[1][1] * H[2][0]))


# ----- univariate views, resultants, gcd -----

def univariate_coeffs(f: Polynomial, var: str):
    """Coefficient list in var, low to high, entries free of var."""
    i = f.table.index(var)
    if not f.terms:
        return []
    top = max(e[i] for e in f.terms)
    coeffs = [Polynomial.zero(f.table, f.field) for _ in range(top + 1)]
    for e, c in f.terms.items():
        ne = list(e)
        d = ne[i]
        ne[i] = 0
        coeffs[d] = coeffs[d] + Polynomial.monomial(ne, c, f.table, f.field)
    return coeffs


def _ring_exact_div(a, b):
    if isinstance(a, Polynomial):
        return a.exact_div(b)
    return a / b


def bareiss_determinant(rows, zero, one):
    """Fraction-free determinant; entries need *, -, and exact division."""
    n = len(rows)
    if n == 0:
        return one
    M = [list(r) for r in rows]
    sign = 1
    prev = one
    for k in range(n - 1):
        if not M[k][k]:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return zero
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = M[i][j] * M[k][k] - M[i][k] * M[k][j]
                M[i][j] = _ring_exact_div(num, prev)
            M[i][k] = zero
        prev = M[k][k]
    det = M[n - 1][n - 1]
    return det if sign == 1 else -det


def _declared_coeff_lists(f, g, var, deg_f, deg_g):
    fc = univariate_coeffs(f, var)
    gc = univariate_coeffs(g, var)
    m = len(fc) - 1 if fc else -1
    n = len(gc) - 1 if gc else -1
    deg_f = m if deg_f is None else deg_f
    deg_g = n if deg_g is None else deg_g
    if deg_f < m or deg_g < n:
        raise InvalidInput("declared degree below actual degree")
    zero = Polynomial.zero(f.table, f.field)
    fc = fc + [zero] * (deg_f + 1 - len(fc))
    gc = gc + [zero] * (deg_g + 1 - len(gc))
    return fc, gc, deg_f, deg_g


def _shift_rows(coeffs_high_first, shifts, width, zero):
    rows = []
    for i in range(shifts):
        row = [zero] * i + coeffs_high_first
        row += [zero] * (width - len(row))
        rows.append(row)
    return rows


def resultant(f: Polynomial, g: Polynomial, var: str,
              deg_f: int = None, deg_g: int = None):
    """Sylvester resultant in var at the declared degrees, f-rows first."""
    fc, gc, m, n = _declared_coeff_lists(f, g, var, deg_f, deg_g)
    if m <= 0 and n <= 0:
        raise InvalidInput("both inputs constant in the variable")
    zero = Polynomial.zero(f.table, f.field)
    one = Polynomial.one(f.table, f.field)
    rows = _shift_rows(list(reversed(fc)), n, m + n, zero)
    rows += _shift_rows(list(reversed(gc)), m, m + n, zero)
    return bareiss_determinant(rows, zero, one)


def _field_univ_coeffs(f: Polynomial, var: str):
    """Field coefficients of f in var, low to high; the last is nonzero."""
    i = f.table.index(var)
    coeffs = {}
    for e, c in f.terms.items():
        if sum(e) != e[i]:
            raise InvalidInput("polynomial involves other variables")
        coeffs[e[i]] = c
    zero = f.field.zero()
    return [coeffs.get(d, zero) for d in range(max(coeffs, default=-1) + 1)]


def univariate_gcd(f: Polynomial, g: Polynomial, var: str) -> Polynomial:
    """Monic gcd over the coefficient field by the Euclidean algorithm."""
    from .fields import field_inverse

    a = _field_univ_coeffs(f, var)
    b = _field_univ_coeffs(g, var)
    if not a and not b:
        raise InvalidInput("gcd of two zero polynomials")
    while b:
        # a mod b, in place on a copy of a
        r = list(a)
        inv_lead = field_inverse(b[-1])
        for i in range(len(r) - len(b), -1, -1):
            c = r[i + len(b) - 1] * inv_lead
            if not c:
                continue
            for k, bk in enumerate(b):
                r[i + k] = r[i + k] - c * bk
        while r and not r[-1]:
            r.pop()
        a, b = b, r
    inv_lead = field_inverse(a[-1])
    i = f.table.index(var)
    e = (0,) * len(f.table)
    return Polynomial(f.table, f.field, {e[:i] + (d,) + e[i + 1:]: c * inv_lead
                                         for d, c in enumerate(a)})


# ----- JSON -----

def polynomial_to_json(f: Polynomial) -> dict:
    return {
        "vars": [{"name": n, "weight": w}
                 for n, w in zip(f.table.names, f.table.weights)],
        "field": f.field.tag,
        "terms": [{"exp": list(e), "coeff": f.field.element_to_str(c)}
                  for e, c in f.sorted_terms()],
    }

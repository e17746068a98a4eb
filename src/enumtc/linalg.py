"""Exact dense linear algebra over the coefficient fields.

Every rank a claim takes is of rows of plain Python ints, built straight
from the claim's data, never of field element objects:

- ``rank_mod_p`` ranks int rows over F_p by forward elimination alone.
- ``rank_int`` ranks rows over Q by clearing each row's denominators and
  running fraction-free (Bareiss) forward elimination on ints.
- ``int_entry`` writes a coefficient of QQ or F_p as an int-row entry,
  and ``rank_over`` sends int rows to the kernel of their field.  Both
  raise InvalidField for any other field: no claim ranks over a number
  field.

``Matrix`` is the generic reduced row echelon form on field elements
(QQ, F_p, Q(zeta_m)), with the kernel basis and the rank it gives.  No
claim of ``enumtc verify`` reaches it; tests use it as the reference for
the int-row kernels and the rows the claims build.

All three eliminations update a row only from the pivot column onward,
since the pivot row is zero left of it; ``rank_mod_p`` and ``rref`` also
leave an entry alone where the pivot row is zero.
"""

from __future__ import annotations

from math import lcm

from .errors import InvalidField, InvalidInput
from .fields import PrimeField, RationalField, field_inverse


def rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of a matrix given as rows of ints.

    Entries may be any ints; they are reduced mod p into a copy, so the
    caller's rows are left as they were.
    """
    rows = [[e % p for e in row] for row in rows]
    width = len(rows[0]) if rows else 0
    rank = 0
    for c in range(width):
        for i, row in enumerate(rows):
            if row[c]:
                break
        else:
            continue
        pivot = rows.pop(i)
        rank += 1
        if not rows:
            break
        inv = pow(pivot[c], -1, p)
        tail = pivot[c + 1:]
        for row in rows:
            if row[c]:
                f = row[c] * inv % p
                row[c + 1:] = [(a - f * b) % p if b else a
                               for a, b in zip(row[c + 1:], tail)]
    return rank


def rank_int(rows) -> int:
    """Rank over Q of rows of ints or Fractions, computed on ints.

    Rows are scaled by the lcm of their denominators into copies.  Then
    Bareiss (Math. Comp. 22, 1968): after k pivots each entry is a
    (k+1)-minor, so dividing by the k-th pivot is exact.
    """
    scaled = []
    for row in rows:
        den = lcm(*(e.denominator for e in row))
        scaled.append([e.numerator * (den // e.denominator) for e in row])
    rows = scaled
    width = len(rows[0]) if rows else 0
    rank, prev = 0, 1
    for c in range(width):
        for i, row in enumerate(rows):
            if row[c]:
                break
        else:
            continue
        pivot = rows.pop(i)
        rank += 1
        if not rows:
            break
        a, tail = pivot[c], pivot[c + 1:]
        for row in rows:
            f = row[c]
            row[c + 1:] = [(a * x - f * b) // prev
                           for x, b in zip(row[c + 1:], tail)]
        prev = a
    return rank


def int_entry(field, c):
    """c in F_p as its residue; c in Q as an int if integral, else as
    the Fraction, which ``rank_int`` also reads."""
    if isinstance(field, PrimeField):
        return c.residue
    if isinstance(field, RationalField):
        return c.numerator if c.denominator == 1 else c
    raise InvalidField(f"no int rows over {field!r}")


def rank_over(field, rows) -> int:
    """Rank of int rows over F_p (``rank_mod_p``) or Q (``rank_int``)."""
    if isinstance(field, PrimeField):
        return rank_mod_p(rows, field.p)
    if isinstance(field, RationalField):
        return rank_int(rows)
    raise InvalidField(f"no int-row rank over {field!r}")


class Matrix:
    """Row-major exact matrix of elements of one declared field."""

    __slots__ = ("rows", "cols", "entries", "field")

    def __init__(self, rows: int, cols: int, entries, field):
        if len(entries) != rows * cols:
            raise InvalidInput("entry count does not match dimensions")
        self.rows = rows
        self.cols = cols
        self.entries = list(entries)
        self.field = field

    @classmethod
    def from_rows(cls, row_lists, field, cols: int = None):
        rows = len(row_lists)
        if rows == 0:
            if cols is None:
                raise InvalidInput("empty matrix needs an explicit width")
            return cls(0, cols, [], field)
        width = len(row_lists[0])
        if any(len(r) != width for r in row_lists):
            raise InvalidInput("ragged rows")
        if cols is not None and width != cols:
            raise InvalidInput(f"rows have width {width}, need {cols}")
        flat = [e for r in row_lists for e in r]
        return cls(rows, width, flat, field)

    def at(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def row_lists(self):
        return [self.row(i) for i in range(self.rows)]

    def rref(self):
        """Reduced row echelon form and the list of pivot columns."""
        M = [self.row(i) for i in range(self.rows)]
        pivots = []
        r = 0
        for c in range(self.cols):
            pivot_row = None
            for i in range(r, self.rows):
                if M[i][c]:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            M[r], M[pivot_row] = M[pivot_row], M[r]
            inv = field_inverse(M[r][c])
            tail = [inv * e for e in M[r][c:]]
            M[r][c:] = tail
            for i in range(self.rows):
                if i != r and M[i][c]:
                    factor = M[i][c]
                    M[i][c:] = [a - factor * b if b else a
                                for a, b in zip(M[i][c:], tail)]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        flat = [e for row in M for e in row]
        return Matrix(self.rows, self.cols, flat, self.field), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self):
        """Basis of the right null space, one vector per free column."""
        R, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        zero, one = self.field.zero(), self.field.one()
        for fc in free:
            v = [zero] * self.cols
            v[fc] = one
            for r_i, pc in enumerate(pivots):
                v[pc] = -R.at(r_i, fc)
            basis.append(v)
        return basis

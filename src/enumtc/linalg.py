"""Exact dense linear algebra over the coefficient fields.

Three elimination kernels, all with first-nonzero pivoting; every field
here is exact, so there is no conditioning to worry about.

- ``rank_mod_p`` ranks rows of plain Python ints over F_p by forward
  elimination alone.  ``Matrix.rank`` sends every prime-field matrix
  here, so Koszul and Macaulay ranks do no arithmetic on field element
  objects.
- ``rank_int`` ranks rows over Q by clearing each row's denominators
  and running fraction-free (Bareiss) forward elimination on ints.
  ``Matrix.rank`` sends every QQ matrix here, so QQ ranks do no
  Fraction arithmetic.
- ``Matrix.rref`` is the generic reduced row echelon form on field
  elements (QQ, F_p, Q(zeta_m)); ``Matrix.kernel_basis`` and ranks over
  number fields use it.  No claim of ``enumtc verify`` reaches it.

All three update a row only from the pivot column onward, since the
pivot row is zero left of it; ``rank_mod_p`` and ``rref`` also leave an
entry alone where the pivot row is zero.
"""

from __future__ import annotations

from math import lcm

from .errors import InvalidInput
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


class Matrix:
    """Row-major exact matrix over one declared field."""

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

    @classmethod
    def from_columns(cls, images, basis, field):
        """Column j holds images[j], a {basis key: coefficient} map.

        Rows follow basis; keys absent from an image are zero.
        """
        index = {key: r for r, key in enumerate(basis)}
        cols = len(images)
        entries = [field.zero()] * (len(basis) * cols)
        for j, image in enumerate(images):
            for key, c in image.items():
                entries[index[key] * cols + j] = c
        return cls(len(basis), cols, entries, field)

    def at(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def row_lists(self):
        return [self.row(i) for i in range(self.rows)]

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise InvalidInput("dimension mismatch")
        zero = self.field.zero()
        right = other.row_lists()
        ents = []
        for i in range(self.rows):
            acc = [zero] * other.cols
            for a, brow in zip(self.row(i), right):
                if a:
                    for j, b in enumerate(brow):
                        if b:
                            acc[j] = acc[j] + a * b
            ents.extend(acc)
        return Matrix(self.rows, other.cols, ents, self.field)

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
        if isinstance(self.field, PrimeField):
            return rank_mod_p([[e.residue for e in self.row(i)]
                               for i in range(self.rows)], self.field.p)
        if isinstance(self.field, RationalField):
            return rank_int([self.row(i) for i in range(self.rows)])
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

"""Exact dense linear algebra over the coefficient fields.

Every rank a claim takes is of rows of plain Python ints, built straight
from the claim's data, never of field element objects:

- ``rank_mod_p`` ranks int rows over F_p, a prime checked once per p,
  by forward elimination on packed rows (below).
- ``rank_int`` ranks int rows over Q by fraction-free (Bareiss)
  forward elimination.

Each caller knows its field and calls its kernel: the Koszul and
Macaulay ranks and the restriction grid call ``rank_mod_p``, the nabla
kernels ``rank_int`` and ``rank_mod_p``.  No claim ranks over a number
field.

``rank_mod_p`` packs each row into one int, column j in the w-bit slot
at bit j*w.  With b = p.bit_length(), w is 4b rounded up to whole bytes
and s = w - b, so p^3 < 2^s.  An update x + (p - f) * pivot, pivot
scaled to a leading 1, leaves every slot below p^2, and
x - p * ((x * m >> s) & qmask), m = ceil(2^s / p), qmask the low b bits
of each slot, reduces all slots mod p at once: each v * m < 2^w, and
floor(v * m / 2^s) = floor(v / p) for v < p^2 as p^3 < 2^s.  A matrix
with more rows than columns is ranked as its transpose.

``Matrix`` is the generic reduced row echelon form on field elements
(QQ, F_p, Q(zeta_m)), with the kernel basis and the rank it gives.  No
claim of ``enumtc verify`` reaches it; tests use it as the reference for
the int-row kernels and the rows the claims build.

``rank_int`` and ``rref`` update a row only from the pivot column
onward, since the pivot row is zero left of it; ``rref`` also leaves an
entry alone where the pivot row is zero.
"""

from __future__ import annotations

from functools import cache

from .errors import InvalidInput
from .fields import field_inverse, is_prime


@cache
def _slots(p: int):
    """(bytes per slot, slot bits w, shift s, multiplier m, b-bit mask)
    for packed rows mod p; refuses a p that is not prime."""
    if not isinstance(p, int) or not is_prime(p):
        raise InvalidInput(f"rank modulo {p!r}: the modulus is not prime")
    b = p.bit_length()
    k = (4 * b + 7) // 8
    s = 8 * k - b
    return k, 8 * k, s, -(-(1 << s) // p), (1 << b) - 1


def rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of a matrix given as rows of ints.

    Entries may be any ints; they are packed mod p into new ints, so the
    caller's rows are left as they were.
    """
    k, w, s, m, low = _slots(p)
    if rows and len(rows) > len(rows[0]):
        rows = list(zip(*rows))
    width = len(rows[0]) if rows else 0
    qmask = int.from_bytes(low.to_bytes(k, "little") * width, "little")
    top = (1 << w) - 1
    zero, pivots = bytes(k), {}
    for row in rows:
        x = int.from_bytes(b"".join([(e % p).to_bytes(k, "little") if e
                                     else zero for e in row]), "little")
        while x:
            c = ((x & -x).bit_length() - 1) // w
            f = (x >> c * w) & top
            pivot = pivots.get(c)
            if pivot is None:
                x *= pow(f, -1, p)
                pivots[c] = x - p * ((x * m >> s) & qmask)
                break
            x += (p - f) * pivot
            x -= p * ((x * m >> s) & qmask)
    return len(pivots)


def rank_int(rows) -> int:
    """Rank over Q of rows of ints, on copies of the rows.

    Bareiss (Math. Comp. 22, 1968): after k pivots each entry is a
    (k+1)-minor, so dividing by the k-th pivot is exact.
    """
    rows = [list(row) for row in rows]
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

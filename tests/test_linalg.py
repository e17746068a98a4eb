import random
from fractions import Fraction

import pytest

from enumtc.errors import InvalidField, InvalidInput
from enumtc.fields import QQ, PrimeField, cyclotomic_field, field_inverse
from enumtc.linalg import Matrix, int_entry, rank_int, rank_mod_p, rank_over


def qmat(rows):
    return Matrix.from_rows([[Fraction(e) for e in r] for r in rows], QQ)


def identity(n, field):
    return Matrix.from_rows([[field.one() if i == j else field.zero()
                              for j in range(n)] for i in range(n)], field)


def annihilates(M, v):
    """M v = 0, checked exactly entry by entry."""
    return all(not sum((a * b for a, b in zip(row, v)), M.field.zero())
               for row in M.row_lists())


def deficient_rows(rng, n_rows, n_cols, draw):
    """Random rows, then duplicated and combined rows to force deficiency."""
    rows = [[draw() for _ in range(n_cols)] for _ in range(n_rows)]
    if rows:
        rows.append(list(rng.choice(rows)))
        a, b = rng.choice(rows), rng.choice(rows)
        c = draw()
        rows.insert(rng.randrange(len(rows) + 1),
                    [x + c * y for x, y in zip(a, b)])
    return rows


def full_width_rref(rows, field):
    """Gauss-Jordan over the whole row width, for reference."""
    M = [list(r) for r in rows]
    width = len(M[0]) if M else 0
    pivots, r = [], 0
    for c in range(width):
        hit = next((i for i in range(r, len(M)) if M[i][c]), None)
        if hit is None:
            continue
        M[r], M[hit] = M[hit], M[r]
        inv = field_inverse(M[r][c])
        M[r] = [inv * e for e in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    return M, pivots


def test_rank_mod_p_matches_rref_rank():
    rng = random.Random(29)
    for p in (2, 3, 5, 7):
        F = PrimeField(p)
        for _ in range(40):
            n_rows, n_cols = rng.randrange(1, 8), rng.randrange(1, 9)
            rows = deficient_rows(rng, n_rows, n_cols,
                                  lambda: rng.randrange(p))
            M = Matrix.from_rows([[F.from_int(e) for e in r] for r in rows], F)
            expected = len(M.rref()[1])
            assert expected < len(rows)
            assert rank_mod_p(rows, p) == expected
            assert M.rank() == expected


def test_rank_mod_p_degenerate_shapes():
    assert rank_mod_p([], 3) == 0
    assert rank_mod_p([[], [], []], 3) == 0
    assert rank_mod_p([[0, 0, 0], [0, 0, 0]], 5) == 0
    assert rank_mod_p([[0, 0], [0, 7]], 7) == 0
    F3 = PrimeField(3)
    assert Matrix(0, 4, [], F3).rank() == 0
    assert Matrix(3, 0, [], F3).rank() == 0


def test_rank_mod_p_reduces_any_int():
    # mod 3: [[0, 0, 1], [2, 2, 0], [1, 1, 1]], rank 2
    assert rank_mod_p([[3, -6, 4], [-1, 5, 9], [7, -2, -5]], 3) == 2
    assert rank_mod_p([[-1, 10**30], [1, -10**30]], 7) == 1
    rng = random.Random(5)
    for _ in range(30):
        rows = [[rng.randrange(-50, 50) for _ in range(5)] for _ in range(4)]
        reduced = [[e % 5 for e in r] for r in rows]
        assert rank_mod_p(rows, 5) == rank_mod_p(reduced, 5)
    # the caller's rows are left as they were
    rows = [[4, 8], [2, 4]]
    assert rank_mod_p(rows, 11) == 1 and rows == [[4, 8], [2, 4]]


def test_rank_int_matches_rref_rank():
    rng = random.Random(31)
    shapes = [(0, 0), (0, 3), (1, 1), (3, 0)] + \
        [(rng.randrange(1, 7), rng.randrange(1, 7)) for _ in range(296)]
    for k, (n_rows, n_cols) in enumerate(shapes):
        if k % 2:
            def draw():
                return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        else:
            def draw():
                return rng.choice([0, 0, 1, -1, rng.randint(-10**6, 10**6)])
        rows = deficient_rows(rng, n_rows, n_cols, draw)
        if rows and k % 3 == 0:
            rows.insert(rng.randrange(len(rows) + 1), [0] * n_cols)
        M = Matrix.from_rows([[Fraction(e) for e in r] for r in rows], QQ,
                             cols=n_cols)
        expected = len(M.rref()[1])
        assert M.rank() == expected
        if k % 2 == 0:
            before = [list(r) for r in rows]
            assert rank_int(rows) == expected
            assert rows == before


def test_rank_int_small_cases():
    assert rank_int([]) == 0
    assert rank_int([[], []]) == 0
    assert rank_int([[0]]) == 0 and rank_int([[-7]]) == 1
    # the second pivot divides by the first; a skipped column keeps it
    assert rank_int([[2, 4, 1], [4, 8, 3], [6, 12, 5]]) == 2
    assert rank_int([[3, 1], [6, 2], [9, 4]]) == 2
    assert qmat([[Fraction(1, 2), Fraction(1, 3)],
                 [Fraction(3, 2), 1]]).rank() == 1


@pytest.mark.parametrize("field", [QQ, cyclotomic_field(3)],
                         ids=["QQ", "Q(zeta_3)"])
def test_rref_matches_full_width_elimination(field):
    rng = random.Random(13)
    gen = field.gen() if field is not QQ else Fraction(1, 2)
    for _ in range(25):
        n_rows, n_cols = rng.randrange(1, 6), rng.randrange(1, 7)

        def draw():
            return (field.from_int(rng.randrange(-3, 4))
                    + field.from_int(rng.randrange(-2, 3)) * gen)

        rows = deficient_rows(rng, n_rows, n_cols, draw)
        R, pivots = Matrix.from_rows(rows, field).rref()
        expected, expected_pivots = full_width_rref(rows, field)
        assert pivots == expected_pivots
        assert R.row_lists() == expected
        # reduced echelon form: unit pivot columns, zeros left of pivots
        for r, c in enumerate(pivots):
            assert [R.at(i, c) for i in range(R.rows)] == \
                [field.one() if i == r else field.zero()
                 for i in range(R.rows)]
            assert not any(R.at(r, j) for j in range(c))
        assert not any(R.at(i, j) for i in range(len(pivots), R.rows)
                       for j in range(R.cols))


def test_identity_rank():
    assert identity(3, QQ).rank() == 3


def test_zero_matrix_rank():
    M = Matrix(3, 4, [Fraction(0)] * 12, QQ)
    assert M.rank() == 0
    assert len(M.kernel_basis()) == 4


def test_rank_over_picks_the_kernel_of_its_field():
    rng = random.Random(41)
    Q3 = cyclotomic_field(3)
    for field in (QQ, PrimeField(2), PrimeField(5)):
        for _ in range(30):
            rows = [[field.from_int(rng.randrange(-3, 4)) for _ in range(4)]
                    for _ in range(rng.randrange(4))]
            if field == QQ and rows:
                rows[0][0] = Fraction(rng.randrange(1, 9), 3)
            ints = [[int_entry(field, c) for c in row] for row in rows]
            for row, int_row in zip(rows, ints):
                assert [field.from_int(e) if isinstance(e, int) else e
                        for e in int_row] == row
            assert rank_over(field, ints) == \
                Matrix.from_rows(rows, field, cols=4).rank()
    assert int_entry(QQ, Fraction(6, 3)) == 2
    assert type(int_entry(QQ, Fraction(6, 3))) is int
    with pytest.raises(InvalidField):
        int_entry(Q3, Q3.gen())
    with pytest.raises(InvalidField):
        rank_over(Q3, [[1, 0], [0, 1]])


def test_kernel_of_identity_empty():
    assert identity(4, QQ).kernel_basis() == []


def test_kernel_f2():
    F2 = PrimeField(2)
    M = Matrix.from_rows([[F2.one(), F2.one()]], F2)
    ker = M.kernel_basis()
    assert len(ker) == 1
    assert ker[0] == [F2.one(), F2.one()]
    assert annihilates(M, ker[0])


def test_degree8_differential_matrix():
    # Differential on degree-8 monomials {c1^4, c1^2 c2, c2^2, c1 c3, c4}
    # for n=4, written in the degree-6 basis (c1^3, c1 c2, c3).
    cols = [(16, 0, 0), (3, 8, 0), (0, 6, 0), (0, 2, 4), (0, 0, 1)]
    rows = [[Fraction(cols[j][i]) for j in range(5)] for i in range(3)]
    M = Matrix.from_rows(rows, QQ)
    assert M.rank() == 3
    ker = M.kernel_basis()
    assert len(ker) == 2
    v = [Fraction(3), Fraction(-16), Fraction(0), Fraction(64), Fraction(-256)]
    assert annihilates(M, v)
    # v lies in the span of the kernel basis: adding it keeps the rank
    assert Matrix.from_rows(ker + [v], QQ).rank() == \
        Matrix.from_rows(ker, QQ).rank() == 2


def test_kernel_vectors_annihilated_exactly():
    rng = random.Random(3)
    for _ in range(20):
        rows = [[Fraction(rng.randrange(-5, 6)) for _ in range(6)]
                for _ in range(4)]
        M = qmat(rows)
        ker = M.kernel_basis()
        assert M.rank() + len(ker) == 6
        for v in ker:
            assert annihilates(M, v)


def test_rank_invariant_under_row_ops():
    rng = random.Random(17)
    F5 = PrimeField(5)
    for _ in range(20):
        rows = [[F5.from_int(rng.randrange(5)) for _ in range(4)]
                for _ in range(4)]
        M = Matrix.from_rows(rows, F5)
        r = M.rank()
        # random row operation: add a multiple of one row to another
        i, j = rng.randrange(4), rng.randrange(4)
        if i == j:
            continue
        c = F5.from_int(rng.randrange(1, 5))
        rows2 = [list(row) for row in rows]
        rows2[i] = [a + c * b for a, b in zip(rows2[i], rows2[j])]
        assert Matrix.from_rows(rows2, F5).rank() == r


def test_shape_validation():
    with pytest.raises(InvalidInput):
        Matrix(2, 2, [Fraction(1)], QQ)
    with pytest.raises(InvalidInput):
        Matrix.from_rows([[Fraction(1)], [Fraction(1), Fraction(2)]], QQ)


def test_from_rows_checks_a_stated_width():
    with pytest.raises(InvalidInput, match="width 3, need 4"):
        Matrix.from_rows([[Fraction(1), Fraction(0), Fraction(0)]], QQ,
                         cols=4)
    assert Matrix.from_rows([[Fraction(1)] * 4], QQ, cols=4).cols == 4
    assert Matrix.from_rows([], QQ, cols=4).cols == 4

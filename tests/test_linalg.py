import random
import signal
from fractions import Fraction

import pytest

from enumtc.errors import InvalidInput
from enumtc.fields import QQ, PrimeField, cyclotomic_field, field_inverse
from enumtc.linalg import Matrix, rank_int, rank_mod_p


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


# 2^61 - 1 needs slots wider than 64 bits
WIDE_PRIMES = (2, 3, 29, 2**31 - 1, 2**61 - 1)


@pytest.fixture(autouse=True)
def deadline():
    """Fail, rather than hang, an elimination that stops making progress."""
    def expire(signum, frame):
        raise TimeoutError("rank_mod_p did not finish within 20 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def fp_rref_rank(rows, p, n_cols):
    F = PrimeField(p)
    return len(Matrix.from_rows([[F.from_int(e) for e in r] for r in rows],
                                F, cols=n_cols).rref()[1])


def assert_rank_as_rref(rows, p, n_cols):
    before = [list(r) for r in rows]
    rank = rank_mod_p(rows, p)
    assert rank == fp_rref_rank(rows, p, n_cols)
    assert rows == before
    return rank


@pytest.mark.parametrize("p", WIDE_PRIMES)
def test_rank_mod_p_matches_rref_on_tall_and_wide_shapes(p):
    rng = random.Random(p % 1009)
    # residues, the slot-filling p - 1 and -1, and big signed ints
    draws = (lambda: rng.randrange(p),
             lambda: rng.choice((0, 1, -1, p - 1, 1 - p)),
             lambda: rng.randrange(-10**30, 10**30))
    shapes = [(1, 1), (2, 1), (9, 2), (13, 4), (3, 11), (1, 7), (6, 6)] + \
        [(rng.randrange(1, 14), rng.randrange(1, 14)) for _ in range(24)]
    for k, (n_rows, n_cols) in enumerate(shapes):
        rows = deficient_rows(rng, n_rows, n_cols, draws[k % 3])
        assert_rank_as_rref(rows, p, n_cols)
        assert_rank_as_rref([list(c) for c in zip(*rows)], p, len(rows))


@pytest.mark.parametrize("p", WIDE_PRIMES)
def test_rank_mod_p_matches_rref_on_sparse_deficient_matrices(p):
    rng = random.Random(4060 + p % 997)

    def draw():
        if rng.random() < 0.9:
            return 0
        return rng.choice((rng.randrange(1, p), -1, 10**30 + 1))

    for _ in range(2):
        rows = deficient_rows(rng, 38, 60, draw)   # 40 x 60
        assert len(rows) == 40
        assert assert_rank_as_rref(rows, p, 60) < 40
        # the transpose, 60 x 40, is ranked on its columns
        assert_rank_as_rref([list(c) for c in zip(*rows)], p, 40)


def test_rank_mod_p_reads_a_tall_matrix_by_columns():
    log = []

    class Row(list):
        def __iter__(self):
            for j, e in enumerate(list.__iter__(self)):
                log.append((self.i, j))
                yield e

    def logged(n_rows, n_cols):
        rows = []
        for i in range(n_rows):
            rows.append(Row((i * i + 3 * j * j + i * j) % 5
                            for j in range(n_cols)))
            rows[-1].i = i
        expected = fp_rref_rank(rows, 5, n_cols)
        log.clear()
        return rows, expected

    rows, expected = logged(6, 3)
    assert rank_mod_p(rows, 5) == expected == 3
    assert log == [(i, j) for j in range(3) for i in range(6)]
    rows, expected = logged(3, 6)
    assert rank_mod_p(rows, 5) == expected == 3
    assert log == [(i, j) for i in range(3) for j in range(6)]


@pytest.mark.parametrize("p", [4, 9, 15, 1, 0, -3, 2**61 + 1, 3.0, True])
def test_rank_mod_p_refuses_a_modulus_that_is_not_prime(p):
    for rows in ([[1, 2], [3, 4]], [[2, 0], [0, 3]], []):
        with pytest.raises(InvalidInput, match="not prime"):
            rank_mod_p(rows, p)


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

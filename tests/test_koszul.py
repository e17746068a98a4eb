import random
from fractions import Fraction
from itertools import combinations

import pytest

from enumtc.errors import (
    CollapseHypothesisUnmet,
    EnumTCError,
    InvalidField,
    InvalidInput,
    UnsupportedLength,
)
from enumtc import koszul
from enumtc.fields import QQ, PrimeField, cyclotomic_field
from enumtc.koszul import (
    GradedSequence,
    HilbertSeries,
    KoszulComplex,
    em_poincare,
    is_regular_maximal,
    koszul_homology_dim,
    macaulay_rank,
    permuted_regularity,
    quotient_hilbert,
    tor_concentration_check,
)
from enumtc.linalg import Matrix, rank_over
from enumtc.poly import (
    Polynomial,
    elementary_symmetric,
    make_table,
    monomials_of_weighted_degree,
)
from enumtc.restriction import h_datum, k_datum, phi_star_generators

F2 = PrimeField(2)
F3 = PrimeField(3)


def k_triple():
    # (s2, s1^3 - s1 s2 - s3, s1 s3 - s1^2 s2) over F3, weights 2
    t = make_table(("x1", "x2", "x3"), (2, 2, 2))
    s1 = elementary_symmetric(1, t, F3)
    s2 = elementary_symmetric(2, t, F3)
    s3 = elementary_symmetric(3, t, F3)
    return GradedSequence((s2, s1 ** 3 - s1 * s2 - s3, s1 * s3 - s1 ** 2 * s2))


def h_pair():
    t = make_table(("u", "v"))
    u = Polynomial.variable("u", t, F2)
    v = Polynomial.variable("v", t, F2)
    return GradedSequence(((u ** 2 + u * v + v ** 2) ** 2,
                           u ** 2 * v ** 2 * (u + v) ** 2))


def int_product_mod(A, B, p):
    """Entries of A times B mod p, for int rows with A's width B's height."""
    return [sum(a * b for a, b in zip(row, col)) % p
            for row in A for col in zip(*B)]


def reference_boundary(K, i, t):
    """d_i on field elements from Polynomial products, one row per source."""
    dst = K.module_basis(i - 1, t)
    rows = []
    for m, J in K.module_basis(i, t):
        row = dict.fromkeys(dst, K.field.zero())
        mono = Polynomial.monomial(m, K.field.one(), K.table, K.field)
        for k, j in enumerate(J):
            for e, c in (K.seq.elements[j] * mono).terms.items():
                key = (e, J[:k] + J[k + 1:])
                row[key] = row[key] + (c if k % 2 == 0 else -c)
        rows.append(list(row.values()))
    return Matrix.from_rows(rows, K.field, cols=len(dst))


def random_sequence(rng, field, table, length, draw):
    """`length` random homogeneous nonconstant elements, or None."""
    elems = []
    for _ in range(length):
        d = rng.randrange(1, 4)
        terms = {m: draw() for m in monomials_of_weighted_degree(table, d)
                 if rng.random() < 0.7}
        f = Polynomial(table, field, terms)
        if not f:
            return None
        elems.append(f)
    return GradedSequence(tuple(elems))


def series_product(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def test_graded_sequence_validation():
    t = make_table(("x",))
    x = Polynomial.variable("x", t, QQ)
    with pytest.raises(InvalidInput):
        GradedSequence((Polynomial.one(t, QQ),))
    with pytest.raises(InvalidInput):
        GradedSequence((x + 1,))
    GradedSequence((x, x * x))


def test_single_element_boundary():
    t = make_table(("x",))
    x = Polynomial.variable("x", t, F2)
    K = KoszulComplex(GradedSequence((x,)))
    rows, src, dst = K.boundary_matrix(1, 3)
    # K_1 at degree 3 is x^2 e_1; target is x^3
    assert len(src) == 1 and len(dst) == 1
    assert rows == [[1]]


def test_two_element_boundary_signs():
    t = make_table(("x", "y"))
    x = Polynomial.variable("x", t, QQ)
    y = Polynomial.variable("y", t, QQ)
    K = KoszulComplex(GradedSequence((x, y)))
    # d2(e1^e2) = x e2 - y e1 at internal degree 2
    rows, src, dst = K.boundary_matrix(2, 2)
    # one row per source basis element, one column per target
    assert len(src) == len(rows) == 1
    col = dict(zip(dst, rows[0]))
    e1 = ((0, 0), (0,))
    e2 = ((0, 0), (1,))
    # basis entries are (monomial, J); x e2 means monomial x on wedge (1,)
    x_on_e2 = ((1, 0), (1,))
    y_on_e1 = ((0, 1), (0,))
    assert col[x_on_e2] == 1
    assert col[y_on_e1] == -1


def test_d_squared_zero_randomized():
    rng = random.Random(4)
    F7 = PrimeField(7)
    t = make_table(("x", "y"))
    for _ in range(10):
        elems = []
        for _ in range(2):
            p = Polynomial.zero(t, F7)
            d = rng.randrange(1, 3)
            for e0 in range(d + 1):
                c = F7.from_int(rng.randrange(7))
                p = p + Polynomial.monomial((e0, d - e0), c, t, F7)
            if not p or p.is_constant() or not p.is_homogeneous():
                continue
            elems.append(p)
        if len(elems) != 2:
            continue
        K = KoszulComplex(GradedSequence(tuple(elems)))
        for t_deg in range(11):
            rows2, src2, mid = K.boundary_matrix(2, t_deg)
            rows1, src1, dst = K.boundary_matrix(1, t_deg)
            if not src2 or not dst:
                continue
            assert src1 == mid
            # the rows are the transposes of d_2 and d_1, so d_1 d_2 = 0
            # reads rows2 times rows1 = 0 mod 7
            assert not any(int_product_mod(rows2, rows1, 7))


def test_regular_pair_homology():
    t = make_table(("x", "y"))
    x = Polynomial.variable("x", t, F2)
    y = Polynomial.variable("y", t, F2)
    K = KoszulComplex(GradedSequence((x, y)))
    for deg in range(9):
        assert koszul_homology_dim(K, deg)[1] == 0
    assert koszul_homology_dim(K, 0)[0] == 1
    for deg in range(1, 9):
        assert koszul_homology_dim(K, deg)[0] == 0


def test_nonregular_pair_homology():
    t = make_table(("x",))
    x = Polynomial.variable("x", t, F2)
    K = KoszulComplex(GradedSequence((x, x)))
    assert koszul_homology_dim(K, 1)[1] == 1
    assert koszul_homology_dim(K, 2)[1] == 0


def test_empty_sequence_has_no_ring():
    empty = GradedSequence(())
    for call in (lambda: em_poincare(is_regular_maximal(empty), 1),
                 lambda: is_regular_maximal(empty),
                 lambda: KoszulComplex(empty)):
        with pytest.raises(EnumTCError):
            call()


def test_regularity_k_triple():
    cert = is_regular_maximal(k_triple())
    assert cert.verdict == "Regular"
    assert cert.s == 12
    assert cert.checked_degrees == [13, 14]
    blob = cert.to_json()
    assert blob["verdict"] == "Regular"
    assert blob["s"] == 12


def test_regularity_h_pair():
    cert = is_regular_maximal(h_pair())
    assert cert.verdict == "Regular"
    assert cert.s == 8
    assert cert.checked_degrees == [9]


def test_regularity_rejects_nonmaximal():
    t = make_table(("x", "y"))
    x = Polynomial.variable("x", t, F3)
    with pytest.raises(UnsupportedLength):
        is_regular_maximal(GradedSequence((x,)))


def test_not_regular_x_xy():
    t = make_table(("x", "y"))
    x = Polynomial.variable("x", t, F3)
    y = Polynomial.variable("y", t, F3)
    cert = is_regular_maximal(GradedSequence((x, x * y)))
    assert cert.verdict == "NotRegular"


def test_sigma_sequence_regular():
    t = make_table(("x1", "x2", "x3"), (2, 2, 2))
    seq = GradedSequence(tuple(elementary_symmetric(k, t, F3)
                               for k in (1, 2, 3)))
    assert is_regular_maximal(seq).verdict == "Regular"


def test_permuted_regularity():
    rows = permuted_regularity(k_triple())
    assert len(rows) == 6
    assert all(r["verdict"] == "Regular" for r in rows)
    rows2 = permuted_regularity(h_pair())
    assert len(rows2) == 2
    assert all(r["verdict"] == "Regular" for r in rows2)


def test_permuted_regularity_single():
    t = make_table(("x",))
    x = Polynomial.variable("x", t, F3)
    rows = permuted_regularity(GradedSequence((x,)))
    assert rows == [{"order": [0], "verdict": "Regular"}]


def test_quotient_hilbert_h_pair():
    series = quotient_hilbert(h_pair())
    assert series.coeffs == [1, 2, 3, 4, 4, 4, 3, 2, 1]
    assert series.top_degree() == 8
    assert series.total() == 24
    # independent oracle: (1-t^4)(1-t^6)/(1-t)^2
    oracle = series_product([1, 1, 1, 1], [1, 1, 1, 1, 1, 1])
    assert series.coeffs == oracle


def test_quotient_hilbert_refuses_a_non_maximal_sequence():
    short = GradedSequence(k_triple().elements[:2])
    with pytest.raises(InvalidInput, match="needs a maximal sequence"):
        quotient_hilbert(short)


def test_quotient_hilbert_k_triple():
    series = quotient_hilbert(k_triple())
    assert series.top_degree() == 12
    assert series.total() == 24
    assert series.coeffs[0::2] == [1, 3, 5, 6, 5, 3, 1]
    assert all(c == 0 for c in series.coeffs[1::2])
    # oracle: (1-t^4)(1-t^6)(1-t^8)/(1-t^2)^3 as even-degree series
    a = series_product([1, 1], [1, 1, 1])            # degrees in t^2
    oracle = series_product(a, [1, 1, 1, 1])
    assert series.coeffs[0::2] == oracle


def test_em_poincare_h_case():
    series = em_poincare(is_regular_maximal(h_pair()), 0)
    assert series.coeffs == [1, 2, 3, 4, 4, 4, 3, 2, 1]
    assert series.is_palindromic()
    assert series.alternating_sum() == 0
    assert series.top_degree() == 8


def test_em_poincare_k_case():
    series = em_poincare(is_regular_maximal(k_triple()), 3)
    assert series.coeffs == [1, 3, 6, 10, 14, 18, 21, 23,
                             23, 21, 18, 14, 10, 6, 3, 1]
    assert series.top_degree() == 15
    assert series.total() == 192
    assert series.is_palindromic()
    assert series.alternating_sum() == 0


def test_em_poincare_rejects_nonregular():
    t = make_table(("x", "y"))
    x = Polynomial.variable("x", t, F3)
    y = Polynomial.variable("y", t, F3)
    cert = is_regular_maximal(GradedSequence((x, x * y)))
    assert cert.verdict == "NotRegular"
    with pytest.raises(CollapseHypothesisUnmet):
        em_poincare(cert, 1)


def test_tor_concentration_k_triple():
    report = tor_concentration_check(k_triple(), 20)
    assert report["ok"]
    assert report["failures"] == []


def test_tor_concentration_h_pair():
    report = tor_concentration_check(h_pair(), 14)
    assert report["ok"]


def test_tor_concentration_detects_failure():
    t = make_table(("x",))
    x = Polynomial.variable("x", t, F2)
    report = tor_concentration_check(GradedSequence((x, x)), 4)
    assert not report["ok"]
    assert {"i": 1, "t": 1, "dim": 1} in report["failures"]
    # (x, x, x^2) in (x, y): failures come i-major, then by degree
    t2 = make_table(("x", "y"))
    x2 = Polynomial.variable("x", t2, F2)
    report = tor_concentration_check(GradedSequence((x2, x2, x2 ** 2)), 8)
    assert not report["ok"]
    assert [(f["i"], f["t"], f["dim"]) for f in report["failures"]] == (
        [(1, 1, 1)] + [(1, t, 2) for t in range(2, 9)]
        + [(2, t, 1) for t in range(3, 9)])


def test_tor_concentration_ranks_each_differential_once(monkeypatch):
    calls = []
    original = KoszulComplex.boundary_matrix

    def counted(self, i, t):
        calls.append((i, t))
        return original(self, i, t)

    monkeypatch.setattr(KoszulComplex, "boundary_matrix", counted)
    seq, up_to = k_triple(), 14
    assert tor_concentration_check(seq, up_to)["ok"]
    assert len(calls) == len(seq) * (up_to + 1)
    assert sorted(calls) == sorted(set(calls))


def test_module_basis_is_built_once_and_cannot_be_edited(monkeypatch):
    K = KoszulComplex(k_triple())
    basis = K.module_basis(2, 12)
    built = []
    enumerate_monomials = koszul.monomials_of_weighted_degree
    monkeypatch.setattr(koszul, "monomials_of_weighted_degree",
                        lambda *a: built.append(a) or enumerate_monomials(*a))
    _, src, dst = K.boundary_matrix(2, 12)
    # only K_1 in degree 12 is new: one monomial list per element
    assert len(built) == 3
    assert src == K.module_basis(2, 12) == basis
    assert dst == K.module_basis(1, 12) and len(built) == 3
    with pytest.raises(TypeError):
        basis[0] = basis[1]
    with pytest.raises(AttributeError):
        basis.append(basis[0])
    assert K.module_basis(2, 12) == KoszulComplex(k_triple()).module_basis(
        2, 12)


def test_regularity_and_quotient_series_build_one_complex_each(monkeypatch):
    built = []
    original = KoszulComplex.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(KoszulComplex, "__init__", counted)
    seq = k_triple()
    cert = is_regular_maximal(seq)
    assert cert.verdict == "Regular" and len(cert.checked_degrees) == 2
    assert len(built) == 1
    assert quotient_hilbert(seq).total() == 24
    assert len(built) == 2


@pytest.mark.parametrize("datum", [k_datum, h_datum], ids=["K", "H"])
def test_restricted_sequence_homology_matches_matrix_ranks(datum):
    seq = GradedSequence(tuple(phi_star_generators(datum())))
    K, reference, n = KoszulComplex(seq), KoszulComplex(seq), len(seq)
    for t in range(21):
        dims = [sum(len(monomials_of_weighted_degree(
            seq.table, t - sum(seq.degrees()[j] for j in J)))
            for J in combinations(range(n), i)) for i in range(n + 1)]
        ranks = [0] + [reference_boundary(reference, i, t).rank()
                       for i in range(1, n + 1)] + [0]
        assert koszul_homology_dim(K, t) == \
            [dims[i] - ranks[i] - ranks[i + 1] for i in range(n + 1)]


def test_hilbert_series_helpers():
    s = HilbertSeries([1, 2, 1, 0, 0])
    assert s.top_degree() == 2
    assert s.is_palindromic()
    assert s.alternating_sum() == 0
    assert s.convolve_binomial(1).coeffs == [1, 3, 3, 1]


def test_macaulay_rank_basic():
    t = make_table(("x", "y"))
    x = Polynomial.variable("x", t, F3)
    seq = GradedSequence((x,))
    rank, dim = macaulay_rank(KoszulComplex(seq), 2)
    # degree-2 stratum {x^2, xy, y^2}; image of x * {x, y} has rank 2
    assert (rank, dim) == (2, 3)


def test_macaulay_rank_matches_products_by_monomials():
    # {monomial * f_i} built directly and ranked by Matrix.rref, against
    # the int rows of d_1 that macaulay_rank reads
    for seq in (k_triple(), h_pair()):
        table, field = seq.table, seq.field
        for t in range(12):
            targets = monomials_of_weighted_degree(table, t)
            zero = field.zero()
            images = [(f * Polynomial.monomial(m, field.one(), table,
                                               field)).terms
                      for f in seq.elements
                      for m in monomials_of_weighted_degree(
                          table, t - f.weighted_degree())]
            M = Matrix.from_rows([[im.get(e, zero) for e in targets]
                                  for im in images], field,
                                 cols=len(targets))
            assert macaulay_rank(KoszulComplex(seq), t) == \
                (len(M.rref()[1]), len(targets))


def test_seeded_koszul_ranks_match_the_field_element_reference():
    rng = random.Random(7919)
    for field in (QQ, F2, F3, PrimeField(7)):
        if field == QQ:
            def draw():
                return Fraction(rng.randrange(-5, 6), rng.choice((1, 1, 2, 3)))
        else:
            def draw():
                return field.from_int(rng.randrange(field.p))
        for n_vars, length in ((2, 2), (3, 2), (3, 3)):
            table = make_table(("x", "y", "z")[:n_vars])
            seq = None
            while seq is None:
                seq = random_sequence(rng, field, table, length, draw)
            K = KoszulComplex(seq)
            for t in range(7):
                for i in range(1, length + 1):
                    rows, src, dst = K.boundary_matrix(i, t)
                    ref = reference_boundary(K, i, t)
                    # the int rows hold the reference entries
                    assert (len(rows), len(dst)) == (ref.rows, ref.cols)
                    for r, row in enumerate(rows):
                        assert [field.from_int(e) if field != QQ
                                else Fraction(e) for e in row] == ref.row(r)
                    assert rank_over(field, rows) == ref.rank()


def test_koszul_rank_over_a_number_field_is_refused():
    Q3 = cyclotomic_field(3)
    t = make_table(("x", "y"))
    x = Polynomial.variable("x", t, Q3)
    y = Polynomial.variable("y", t, Q3)
    seq = GradedSequence((x + Q3.gen() * y, x * y))
    with pytest.raises(InvalidField):
        macaulay_rank(KoszulComplex(seq), 2)
    with pytest.raises(InvalidField):
        koszul_homology_dim(KoszulComplex(seq), 2)

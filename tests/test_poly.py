import itertools
import random
from fractions import Fraction

import pytest

from enumtc import poly
from enumtc.errors import (
    GradingViolation,
    IncompleteMap,
    InexactDivision,
    InvalidIndex,
    InvalidInput,
)
from enumtc.fields import QQ, PrimeField, cyclotomic_field
from enumtc.poly import (
    Polynomial,
    bareiss_determinant,
    elementary_symmetric,
    hessian_det,
    make_table,
    monomials_of_weighted_degree,
    polynomial_to_json,
    resultant,
    substitute,
    univariate_coeffs,
    univariate_gcd,
)

XYZ = make_table(("x", "y", "z"))


def var(name, table=XYZ, field=QQ):
    return Polynomial.variable(name, table, field)


def test_table_validation():
    with pytest.raises(InvalidInput):
        make_table(("x", "x"))
    with pytest.raises(InvalidInput):
        make_table(("x",), (0,))


def test_basic_arithmetic():
    x, y = var("x"), var("y")
    f = (x + y) ** 2
    assert f == x * x + 2 * (x * y) + y * y
    assert f - f == Polynomial.zero(XYZ, QQ)
    assert not (f - f)
    assert (x * y).weighted_degree() == 2


def test_weighted_grading():
    t = make_table(("c1", "c2", "c3"), (2, 4, 6))
    c1 = Polynomial.variable("c1", t, QQ)
    c2 = Polynomial.variable("c2", t, QQ)
    f = c1 ** 2 - 3 * c2
    assert f.is_homogeneous()
    assert f.weighted_degree() == 4
    assert not (c1 + c2).is_homogeneous()


def test_elementary_symmetric():
    t = make_table(("e1", "e2", "e3"), (2, 2, 2))
    s2 = elementary_symmetric(2, t, QQ)
    assert len(s2.terms) == 3
    assert s2.terms[(1, 1, 0)] == 1
    s0 = elementary_symmetric(0, t, QQ)
    assert s0 == Polynomial.one(t, QQ)
    s3 = elementary_symmetric(3, t, QQ)
    assert s3.terms == {(1, 1, 1): Fraction(1)}
    with pytest.raises(InvalidIndex):
        elementary_symmetric(4, t, QQ)


def test_vieta_roundtrip():
    # Expanding prod(T - xi) reproduces (-1)^k sigma_k.
    t = make_table(("T", "x1", "x2", "x3"))
    xs = make_table(("x1", "x2", "x3"))
    T = Polynomial.variable("T", t, QQ)
    prod = Polynomial.one(t, QQ)
    for name in ("x1", "x2", "x3"):
        prod = prod * (T - Polynomial.variable(name, t, QQ))
    coeffs = univariate_coeffs(prod, "T")
    for k in range(4):
        sig = elementary_symmetric(k, xs, QQ)
        embedded = substitute(
            sig, {n: Polynomial.variable(n, t, QQ) for n in xs.names})
        got = coeffs[3 - k]
        assert got == embedded * ((-1) ** k)


def test_substitute_sigma_example():
    # c2 for n=4 goes to the second elementary symmetric polynomial.
    ct = make_table(("c1", "c2", "c3", "c4"), (2, 4, 6, 8))
    tt = make_table(("t1", "t2", "t3", "t4"), (2, 2, 2, 2))
    images = {f"c{i}": elementary_symmetric(i, tt, QQ) for i in range(1, 5)}
    c2 = Polynomial.variable("c2", ct, QQ)
    out = substitute(c2, images, check_grading=True)
    assert out == elementary_symmetric(2, tt, QQ)
    assert len(out.terms) == 6


def test_substitute_missing_image():
    x = var("x")
    with pytest.raises(IncompleteMap):
        substitute(x, {"x": x, "y": x})


def test_substitute_grading_violation():
    ct = make_table(("c1",), (2,))
    tt = make_table(("u",), (1,))
    u = Polynomial.variable("u", tt, QQ)
    c1 = Polynomial.variable("c1", ct, QQ)
    with pytest.raises(GradingViolation):
        substitute(c1, {"c1": u}, check_grading=True)
    ok = substitute(c1, {"c1": u * u}, check_grading=True)
    assert ok == u * u


def test_substitute_kills_sigma4():
    tt = make_table(("t1", "t2", "t3", "t4"), (2, 2, 2, 2))
    xt = make_table(("x1", "x2", "x3"), (2, 2, 2))
    zero = Polynomial.zero(xt, QQ)
    images = {
        "t1": Polynomial.variable("x1", xt, QQ),
        "t2": Polynomial.variable("x2", xt, QQ),
        "t3": Polynomial.variable("x3", xt, QQ),
        "t4": zero,
    }
    s4 = elementary_symmetric(4, tt, QQ)
    assert not substitute(s4, images)


def test_substitute_multiplicative_randomized():
    rng = random.Random(11)
    tt = make_table(("u", "v"))
    u = Polynomial.variable("u", tt, QQ)
    v = Polynomial.variable("v", tt, QQ)
    images = {"x": u + v, "y": u * v, "z": u - v}

    def rand_poly():
        p = Polynomial.zero(XYZ, QQ)
        for _ in range(4):
            e = tuple(rng.randrange(3) for _ in range(3))
            p = p + Polynomial.monomial(e, Fraction(rng.randrange(-4, 5)),
                                        XYZ, QQ)
        return p

    for _ in range(20):
        f, g = rand_poly(), rand_poly()
        assert substitute(f * g, images) == \
            substitute(f, images) * substitute(g, images)
        assert substitute(f + g, images) == \
            substitute(f, images) + substitute(g, images)


def test_monomials_of_weighted_degree():
    t = make_table(("c1", "c2"), (2, 4))
    ms = monomials_of_weighted_degree(t, 8)
    assert set(ms) == {(4, 0), (2, 1), (0, 2)}
    assert monomials_of_weighted_degree(t, 7) == []


def test_monomials_are_cached_but_never_shared():
    t = make_table(("a", "b", "c"), (1, 2, 3))

    def fresh(d):
        out = [e for e in itertools.product(range(d + 1), repeat=3)
               if t.weighted_degree(e) == d]
        return sorted(out, key=lambda e: poly._grevlex_key(t, e),
                      reverse=True)

    for d in range(9):
        first = monomials_of_weighted_degree(t, d)
        assert first == fresh(d)
        first.append((99, 0, 0))
        first.reverse()
        again = monomials_of_weighted_degree(t, d)
        assert again == fresh(d)
        assert again is not first


def test_exact_division():
    x, y = var("x"), var("y")
    f = (x + y) ** 3
    g = x + y
    q = f.exact_div(g)
    assert q == (x + y) ** 2
    with pytest.raises(InexactDivision):
        (x * x + y).exact_div(x + y)


def test_hessian_fermat_cubic():
    x, y, z = var("x"), var("y"), var("z")
    F = x ** 3 + y ** 3 + z ** 3
    H = hessian_det(F)
    assert H == 216 * (x * y * z)
    assert H.is_homogeneous() and H.weighted_degree() == 3


def test_hessian_rejects_low_degree_and_inhomogeneous():
    x, y, z = var("x"), var("y"), var("z")
    with pytest.raises(InvalidInput):
        hessian_det(x * x + y * y + z * z)
    with pytest.raises(GradingViolation):
        hessian_det(x ** 3 + y)


def test_hessian_covariance_random():
    # hessian(F(Mx)) = det(M)^2 * hessian(F)(Mx)
    rng = random.Random(5)
    x, y, z = var("x"), var("y"), var("z")
    for _ in range(5):
        F = Polynomial.zero(XYZ, QQ)
        for e in monomials_of_weighted_degree(XYZ, 4):
            F = F + Polynomial.monomial(e, Fraction(rng.randrange(-3, 4)),
                                        XYZ, QQ)
        M = [[Fraction(rng.randrange(-2, 3)) for _ in range(3)]
             for _ in range(3)]
        det = (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
               - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
               + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))
        vars_ = [var("x"), var("y"), var("z")]
        images = {}
        for i, name in enumerate(("x", "y", "z")):
            img = Polynomial.zero(XYZ, QQ)
            for j in range(3):
                img = img + M[i][j] * vars_[j]
            images[name] = img
        FM = substitute(F, images)
        if not FM.is_homogeneous() or FM.weighted_degree() != 4:
            continue
        lhs = hessian_det(FM)
        rhs = det * det * substitute(hessian_det(F), images)
        assert lhs == rhs


XYAB = make_table(("x", "y", "a", "b"))


def _restrict_z_ax_by(F):
    """F on the line z = a x + b y by substitute, as binary-form coefficients.

    Entry i is the coefficient of x^(4-i) y^i, a polynomial in a and b.
    """
    x, y, a, b = (Polynomial.variable(n, XYAB, QQ) for n in XYAB.names)
    f = substitute(F, {"x": x, "y": y, "z": a * x + b * y})
    coeffs = [Polynomial.zero(XYAB, QQ) for _ in range(5)]
    for (_, ey, ea, eb), c in f.terms.items():
        coeffs[ey] = coeffs[ey] + Polynomial.monomial((0, 0, ea, eb), c,
                                                      XYAB, QQ)
    return coeffs, a, b


def test_restrict_to_line_z_power():
    z = var("z")
    q, a, b = _restrict_z_ax_by(z ** 4)
    assert q[0] == a ** 4
    assert q[4] == b ** 4
    assert q[1] == 4 * (a ** 3) * b


def test_restrict_fermat_quartic():
    x, y, z = var("x"), var("y"), var("z")
    q, a, b = _restrict_z_ax_by(x ** 4 + y ** 4 + z ** 4)
    one = Polynomial.one(XYAB, QQ)
    assert q[0] == one + a ** 4
    assert q[1] == 4 * a ** 3 * b
    assert q[2] == 6 * a ** 2 * b ** 2
    assert q[3] == 4 * a * b ** 3
    assert q[4] == one + b ** 4


def test_restrict_no_dependence():
    x, y = var("x"), var("y")
    q, _, _ = _restrict_z_ax_by(x ** 4 + x ** 2 * y ** 2)
    for c in q:
        assert not c.degree_in("a") > 0
        assert not c.degree_in("b") > 0
    assert [c.constant_value() if c else 0 for c in q] == [1, 0, 1, 0, 0]


def test_resultant_linear():
    t = make_table(("x", "a", "b"))
    x = Polynomial.variable("x", t, QQ)
    a = Polynomial.variable("a", t, QQ)
    b = Polynomial.variable("b", t, QQ)
    r = resultant(x - a, x - b, "x")
    assert r == a - b


def test_resultant_common_root():
    t = make_table(("x",))
    x = Polynomial.variable("x", t, QQ)
    r = resultant(x * x - 1, x - 1, "x")
    assert not r


def test_resultant_circle_line():
    t = make_table(("x", "y"))
    x = Polynomial.variable("x", t, QQ)
    y = Polynomial.variable("y", t, QQ)
    r = resultant(x * x + y * y - 1, x - y, "x")
    assert r == 2 * y * y - Polynomial.one(t, QQ)


def test_resultant_both_constant():
    t = make_table(("x",))
    one = Polynomial.one(t, QQ)
    with pytest.raises(InvalidInput):
        resultant(one, one + one, "x")


def _psc(f, g, j, var="x"):
    """The j-th principal subresultant coefficient of f and g.

    The determinant of the first m + n - 2j columns of the Sylvester rows
    x^(n-j-1) f, ..., f, x^(m-j-1) g, ..., g.  psc_0 is the resultant, and
    over a field deg gcd(f, g) is the first j with psc_j != 0.
    """
    fc = list(reversed(univariate_coeffs(f, var)))
    gc = list(reversed(univariate_coeffs(g, var)))
    m, n = len(fc) - 1, len(gc) - 1
    assert 0 <= j < min(m, n)
    zero, one = Polynomial.zero(f.table, f.field), Polynomial.one(f.table,
                                                                  f.field)
    keep = m + n - 2 * j
    rows = [([zero] * i + fc + [zero] * keep)[:keep] for i in range(n - j)]
    rows += [([zero] * i + gc + [zero] * keep)[:keep] for i in range(m - j)]
    return bareiss_determinant(rows, zero, one)


def test_psc_simple():
    t = make_table(("x",))
    x = Polynomial.variable("x", t, QQ)
    f = x * x - 1
    g = 2 * x
    p0 = _psc(f, g, 0)
    assert p0.constant_value() == -4
    assert p0 == resultant(f, g, "x")


def test_psc_double_double():
    t = make_table(("x",))
    x = Polynomial.variable("x", t, QQ)
    f = (x - 1) ** 2 * (x - 2) ** 2
    g = f.partial("x")
    assert not _psc(f, g, 0)
    assert not _psc(f, g, 1)
    assert _psc(f, g, 2)
    # deg gcd = 2 exactly, matching the vanishing pattern
    assert univariate_gcd(f, g, "x").degree_in("x") == 2


def test_psc_x4():
    t = make_table(("x",))
    x = Polynomial.variable("x", t, QQ)
    f = x ** 4
    g = 4 * x ** 3
    assert not _psc(f, g, 0)
    assert not _psc(f, g, 1)
    assert not _psc(f, g, 2)
    # every psc below min(4, 3) vanishes: gcd(f, g) = x^3 is g itself
    assert univariate_gcd(f, g, "x") == x ** 3


def test_univariate_gcd():
    t = make_table(("x",))
    x = Polynomial.variable("x", t, QQ)
    g = univariate_gcd(x ** 4, 4 * x ** 3, "x")
    assert g == x ** 3
    g2 = univariate_gcd(x * x - 1, x - 1, "x")
    assert g2 == x - 1
    F2 = PrimeField(2)
    t2 = make_table(("x",))
    x2 = Polynomial.variable("x", t2, F2)
    g3 = univariate_gcd(x2 * x2 + x2, x2, "x")
    assert g3 == x2


def test_resultant_gcd_consistency_f7():
    rng = random.Random(77)
    F7 = PrimeField(7)
    t = make_table(("x",))

    def rand_poly(deg):
        p = Polynomial.zero(t, F7)
        for d in range(deg + 1):
            p = p + Polynomial.monomial((d,), F7.from_int(rng.randrange(7)),
                                        t, F7)
        return p

    checked = 0
    for _ in range(100):
        f, g = rand_poly(4), rand_poly(3)
        if f.degree_in("x") < 1 or g.degree_in("x") < 1:
            continue
        r = resultant(f, g, "x")
        gcd = univariate_gcd(f, g, "x")
        assert (not r) == (gcd.degree_in("x") >= 1)
        checked += 1
    assert checked > 50


def test_psc_pattern_matches_gcd_degree():
    rng = random.Random(13)
    F7 = PrimeField(7)
    t = make_table(("x",))
    x = Polynomial.variable("x", t, F7)

    for _ in range(100):
        # Build f, g with a planted common factor of random degree.
        k = rng.randrange(3)
        common = Polynomial.one(t, F7)
        for _ in range(k):
            common = common * (x - rng.randrange(7))
        f = common
        g = common
        for _ in range(2):
            f = f * (x - rng.randrange(7))
        g = g * (x - rng.randrange(7))
        dgcd = univariate_gcd(f, g, "x").degree_in("x")
        m, n = f.degree_in("x"), g.degree_in("x")
        for j in range(min(m, n)):
            p = _psc(f, g, j)
            if j < dgcd:
                assert not p
        # First nonvanishing index is exactly dgcd when in range.
        if dgcd < min(m, n):
            assert _psc(f, g, dgcd)


def _disc4(a, b, c, d, e):
    """Classical discriminant of a*T^4 + b*T^3 + c*T^2 + d*T + e."""
    return (256 * a ** 3 * e ** 3 - 192 * a ** 2 * b * d * e ** 2
            - 128 * a ** 2 * c ** 2 * e ** 2 + 144 * a ** 2 * c * d ** 2 * e
            - 27 * a ** 2 * d ** 4 + 144 * a * b ** 2 * c * e ** 2
            - 6 * a * b ** 2 * d ** 2 * e - 80 * a * b * c ** 2 * d * e
            + 18 * a * b * c * d ** 3 + 16 * a * c ** 4 * e
            - 4 * a * c ** 3 * d ** 2 - 27 * b ** 4 * e ** 2
            + 18 * b ** 3 * c * d * e - 4 * b ** 3 * d ** 3
            - 4 * b ** 2 * c ** 3 * e + b ** 2 * c ** 2 * d ** 2)


def _quartic(cs, t):
    f = Polynomial.zero(t, QQ)
    for i, c in enumerate(cs):
        f = f + Polynomial.monomial((4 - i,), c, t, QQ)
    return f


def test_quartic_discriminant_matches_resultant():
    # Res(f, f') = a * disc(f) in degree 4
    rng = random.Random(99)
    t = make_table(("x",))
    for _ in range(30):
        cs = [Fraction(rng.randrange(-5, 6)) for _ in range(5)]
        if cs[0] == 0:
            cs[0] = Fraction(1)
        f = _quartic(cs, t)
        res = resultant(f, f.partial("x"), "x")
        assert res.constant_value() == cs[0] * _disc4(*cs)


def test_quartic_discriminant_double_root():
    # (T-1)^2 (T-2)(T-3) = T^4 - 7T^3 + 17T^2 - 17T + 6 has a repeated
    # root, so disc = 0; moving the constant term separates the roots.
    t = make_table(("x",))
    cs = [Fraction(c) for c in (1, -7, 17, -17, 6)]
    assert _disc4(*cs) == 0
    f = _quartic(cs, t)
    assert not resultant(f, f.partial("x"), "x")
    f = _quartic(cs[:4] + [Fraction(7)], t)
    assert resultant(f, f.partial("x"), "x")


def _polynomial_from_blob(blob, field, parse):
    table = make_table(tuple(v["name"] for v in blob["vars"]),
                       tuple(v["weight"] for v in blob["vars"]))
    return Polynomial(table, field, {tuple(t["exp"]): parse(t["coeff"])
                                     for t in blob["terms"]})


def test_polynomial_json_roundtrip():
    t = make_table(("c1", "c2"), (2, 4))
    f = (Polynomial.variable("c1", t, QQ) ** 2
         - 3 * Polynomial.variable("c2", t, QQ))
    blob = polynomial_to_json(f)
    assert blob["field"] == "QQ"
    assert blob["vars"][0] == {"name": "c1", "weight": 2}
    assert _polynomial_from_blob(blob, QQ, Fraction) == f
    # canonical term order: c1^2 (grevlex-larger) first
    assert blob["terms"][0]["exp"] == [2, 0]

    F3 = PrimeField(3)
    t2 = make_table(("u", "v"))
    h = (Polynomial.variable("u", t2, F3)
         + 2 * Polynomial.variable("v", t2, F3)) ** 2
    blob2 = polynomial_to_json(h)
    assert blob2["field"] == "Fp:3"
    assert {t["coeff"] for t in blob2["terms"]} == {"1 mod 3"}
    assert _polynomial_from_blob(
        blob2, F3, lambda s: F3.from_int(int(s.split(" mod ")[0]))) == h


def test_partial_derivative():
    x, y = var("x"), var("y")
    f = x ** 3 * y + 2 * y
    assert f.partial("x") == 3 * x ** 2 * y
    assert f.partial("y") == x ** 3 + Polynomial.constant(Fraction(2), XYZ, QQ)


def _naive_substitute(f, images):
    """Every term expanded by repeated multiplication, then summed."""
    sample = next(iter(images.values()))
    acc = Polynomial.zero(sample.table, sample.field)
    for e, c in f.terms.items():
        term = Polynomial.constant(c, sample.table, sample.field)
        for name, k in zip(f.table.names, e):
            for _ in range(k):
                term = term * images[name]
        acc = acc + term
    return acc


@pytest.mark.parametrize("field", [QQ, PrimeField(5), cyclotomic_field(7)],
                         ids=["QQ", "F5", "zeta7"])
def test_substitute_matches_naive_expansion(field):
    rng = random.Random(14 + len(repr(field)))
    st = make_table(("s", "t"))

    def coeff():
        if field is QQ:
            return Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        if isinstance(field, PrimeField):
            return field.from_int(rng.randrange(field.p))
        return field.element([Fraction(rng.randrange(-5, 6),
                                        rng.randrange(1, 4))
                              for _ in range(field.degree)])

    for _ in range(25):
        # a constant term and x^2 in two terms, so a cached power is reused
        terms = {(0, 0, 0): coeff(), (2, 1, 0): coeff(), (2, 0, 3): coeff()}
        for _ in range(rng.randrange(0, 6)):
            terms[tuple(rng.randrange(0, 5) for _ in range(3))] = coeff()
        f = Polynomial(XYZ, field, terms)
        images = {}
        for name in XYZ.names:
            if rng.random() < 0.2:
                images[name] = Polynomial.zero(st, field)
            else:
                images[name] = Polynomial(st, field, {
                    tuple(rng.randrange(0, 3) for _ in range(2)): coeff()
                    for _ in range(rng.randrange(1, 4))})
        got = substitute(f, images)
        assert got == _naive_substitute(f, images)

import math
import random
from fractions import Fraction

import pytest

from enumtc import fields
from enumtc.errors import DivisionByZero, InvalidField, InvalidInput
from enumtc.fields import (
    QQ,
    NumberField,
    PrimeField,
    cyclotomic_field,
    field_inverse,
    nf_embed_complex,
)

QF7 = NumberField([7, 0, 1])  # t^2 + 7


def test_prime_field_requires_prime():
    with pytest.raises(InvalidField):
        PrimeField(6)
    with pytest.raises(InvalidField):
        PrimeField(1)
    PrimeField(2)
    PrimeField(7919)


def test_is_prime_matches_trial_division_and_rejects_pseudoprimes():
    def by_trial(n):
        return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(-3, 20000) if fields.is_prime(n)] == \
        [n for n in range(-3, 20000) if by_trial(n)]
    assert fields.is_prime(2**31 - 1) and fields.is_prime(2**61 - 1)
    # strong pseudoprimes to the primes up to 7, 23 and 37 in turn
    # (Jaeschke 1993; Sorenson and Webster 2017), then Cole's 2^67 - 1
    for n in (3215031751, 3825123056546413051, 318665857834031151167461,
              2**67 - 1, 2**61 + 1):
        assert not fields.is_prime(n)


def test_is_prime_refuses_past_its_bound():
    # 2^89 - 1 is a Mersenne prime past the bound; trial division of it
    # would not end
    assert fields.is_prime(fields.PRIMALITY_BOUND - 2) is False
    for n in (fields.PRIMALITY_BOUND, 2**89 - 1, 2**90):
        with pytest.raises(InvalidInput, match="primality is decided only "
                                               "below 3317044064679887385961981"):
            fields.is_prime(n)


def test_fp_basic_arithmetic():
    F3 = PrimeField(3)
    two = F3.from_int(2)
    assert (two + two).residue == 1
    assert (two * two).residue == 1
    assert (-two).residue == 1
    assert (two - 1).residue == 1
    assert field_inverse(two).residue == 2
    assert (two ** 5).residue == 2


def test_fp_inverse_of_zero():
    F5 = PrimeField(5)
    with pytest.raises(DivisionByZero):
        field_inverse(F5.zero())


def test_fp_mixed_fields_rejected():
    with pytest.raises(InvalidField):
        PrimeField(3).one() + PrimeField(5).one()


def test_fp_serialization_roundtrip():
    F7 = PrimeField(7)
    a = F7.from_int(12)
    s = F7.element_to_str(a)
    assert s == "5 mod 7"
    assert F7.from_int(int(s.split(" mod ")[0])) == a


def test_rational_field():
    assert QQ.from_int(3) == Fraction(3)
    assert QQ.element_to_str(Fraction(-4, 7)) == "-4/7"
    assert Fraction(QQ.element_to_str(Fraction(5, 10))) == Fraction(1, 2)
    assert field_inverse(Fraction(3, 4)) == Fraction(4, 3)
    with pytest.raises(DivisionByZero):
        field_inverse(Fraction(0))


def test_number_field_inverse_of_generator():
    t = QF7.gen()
    inv = field_inverse(t)
    assert inv == QF7.element([0, Fraction(-1, 7)])
    assert t * inv == QF7.one()


def test_number_field_inverse_of_zero():
    with pytest.raises(DivisionByZero):
        QF7.zero().inverse()


def test_number_field_reduction():
    t = QF7.gen()
    assert t * t == QF7.from_int(-7)
    assert (t + 1) * (t - 1) == QF7.from_int(-8)


def test_number_field_reducible_minpoly_detected():
    # t^2 - 1 = (t-1)(t+1); inverting t-1 must fail.
    bad = NumberField([-1, 0, 1])
    with pytest.raises(InvalidField):
        (bad.gen() - 1).inverse()


def test_number_field_serialization_roundtrip():
    a = QF7.element([Fraction(1, 2), Fraction(-3)])
    s = QF7.element_to_str(a)
    assert s == "1/2,-3"
    assert QF7.element([Fraction(part) for part in s.split(",")]) == a


def test_cyclotomic_field_order():
    z = cyclotomic_field(3).gen()
    assert z ** 3 == z.field.one()
    assert z ** 2 + z + 1 == z.field.zero()
    z7 = cyclotomic_field(7).gen()
    assert z7 ** 7 == z7.field.one()


def test_embed_sqrt_minus_seven():
    # Only Q(zeta_p) embeds; a rational element of Q(sqrt(-7)) is refused too.
    for a in (QF7.gen(), QF7.one()):
        with pytest.raises(InvalidField):
            nf_embed_complex(a)


def test_embed_zeta3():
    z = nf_embed_complex(cyclotomic_field(3).gen())
    assert abs(z.real - (-0.5)) <= 1e-15
    assert abs(z.imag - 0.8660254037844386) <= 1e-15


def test_embed_zeta7_is_first_primitive_root():
    z = nf_embed_complex(cyclotomic_field(7).gen())
    assert abs(z.real - math.cos(2 * math.pi / 7)) <= 1e-15
    assert abs(z.imag - math.sin(2 * math.pi / 7)) <= 1e-15


def test_embed_rational_half_is_exact():
    assert nf_embed_complex(Fraction(1, 2)) == complex(0.5, 0.0)


def test_embed_rational_third_is_bounded():
    z = nf_embed_complex(Fraction(1, 3))
    assert abs(z.real - 1 / 3) <= 1e-16
    assert z.imag == 0.0


def test_embed_refuses_other_number_fields():
    # t^4 + 1 is Q(zeta_8); 1 + t + t^2 + t^3 has composite p = 4.
    for field in (NumberField([1, 0, 0, 0, 1]), NumberField([1, 1, 1, 1])):
        with pytest.raises(InvalidField):
            nf_embed_complex(field.gen())


def test_embed_refuses_prime_field_elements():
    # F_p has no embedding into C, not even its residues 0 and 1.
    for a in (PrimeField(5).from_int(2), PrimeField(7).zero(),
              PrimeField(2).one()):
        with pytest.raises(InvalidInput, match="cannot embed FpElement"):
            nf_embed_complex(a)


def test_field_axioms_randomized():
    rng = random.Random(20260816)
    fields = [PrimeField(2), PrimeField(3), PrimeField(7)]

    def sample(F):
        return F.from_int(rng.randrange(100))

    for F in fields:
        for _ in range(50):
            a, b, c = sample(F), sample(F), sample(F)
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            if a:
                assert a * field_inverse(a) == F.one()

    for _ in range(50):
        a = Fraction(rng.randrange(-50, 50), rng.randrange(1, 50))
        b = Fraction(rng.randrange(-50, 50), rng.randrange(1, 50))
        c = Fraction(rng.randrange(-50, 50), rng.randrange(1, 50))
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * field_inverse(a) == 1

    for nf in [cyclotomic_field(3), cyclotomic_field(7), QF7]:
        for _ in range(25):
            a = nf.element([rng.randrange(-9, 10) for _ in range(nf.degree)])
            b = nf.element([rng.randrange(-9, 10) for _ in range(nf.degree)])
            c = nf.element([rng.randrange(-9, 10) for _ in range(nf.degree)])
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            if a:
                assert a * field_inverse(a) == nf.one()


def test_embedding_is_ring_homomorphism_up_to_err():
    rng = random.Random(7)
    nf = cyclotomic_field(7)
    for _ in range(25):
        a = nf.element([rng.randrange(-5, 6) for _ in range(6)])
        b = nf.element([rng.randrange(-5, 6) for _ in range(6)])
        ea = nf_embed_complex(a)
        eb = nf_embed_complex(b)
        eab = nf_embed_complex(a * b)
        assert abs(eab - ea * eb) <= 1e-13 * (1 + abs(ea) * abs(eb))


def test_number_field_requires_integral_monic_minpoly():
    for bad in ([Fraction(1, 2), 0, 1], [1, Fraction(1, 3), 1],
                [1, 0, 2], [1, 1]):
        with pytest.raises(InvalidField):
            NumberField(bad)
    field = NumberField([Fraction(7), 0, Fraction(1)])
    assert field.minpoly == (7, 0, 1)
    assert all(type(c) is int for c in field.minpoly)
    assert field.tag == QF7.tag == "NF:7,0,1"


def test_cyclotomic_field_is_one_shared_instance():
    z7 = cyclotomic_field(7)
    assert cyclotomic_field(7) is z7
    assert z7.name == "z"
    with pytest.raises(InvalidField):
        cyclotomic_field(9)


def test_separately_built_fields_compare_by_value():
    other = NumberField([7, 0, 1])
    assert other is not QF7 and other == QF7 and hash(other) == hash(QF7)
    total = other.gen() + QF7.gen()
    assert total == QF7.element([0, 2])
    assert other.gen() * QF7.gen() == QF7.from_int(-7)
    with pytest.raises(InvalidField):
        NumberField([5, 0, 1]).gen() + QF7.gen()


# ---------------------------------------------------------------------------
# NumberFieldElement against a Fraction-tuple reference
#
# The reference keeps each element as a tuple of Fraction coefficients of
# 1, t, ..., t^(n-1): products reduce modulo the minpoly over Q and the
# inverse runs the extended Euclidean algorithm over Q[t].

def _ref_mul(minpoly, a, b):
    n = len(minpoly) - 1
    prod = [Fraction(0)] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for i in range(2 * n - 2, n - 1, -1):
        c = prod[i]
        for j, m in enumerate(minpoly):
            prod[i - n + j] -= c * m
    return tuple(prod[:n])


def _ref_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _ref_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] / b[-1]
        q[i] = c
        for j, bj in enumerate(b):
            a[i + j] -= c * bj
    return q, _ref_trim(a)


def _ref_inverse(minpoly, a):
    r0, r1 = [Fraction(c) for c in minpoly], _ref_trim(list(a))
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = _ref_divmod(r0, r1)
        s = list(s0) + [Fraction(0)] * (len(q) + len(s1) - 1 - len(s0))
        for i, qi in enumerate(q):
            for j, sj in enumerate(s1):
                s[i + j] -= qi * sj
        r0, r1, s0, s1 = r1, r, s1, _ref_trim(s)
    assert len(r0) == 1
    out = [c / r0[0] for c in s0]
    return tuple(out + [Fraction(0)] * (len(a) - len(out)))


def _ref_pow(minpoly, a, k):
    if k < 0:
        a, k = _ref_inverse(minpoly, a), -k
    acc = (Fraction(1),) + (Fraction(0),) * (len(a) - 1)
    for _ in range(k):
        acc = _ref_mul(minpoly, acc, a)
    return acc


def _ref_repr(coeffs, t):
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        parts.append(str(c) if i == 0 else f"{c}*{t}" if i == 1
                     else f"{c}*{t}^{i}")
    return " + ".join(parts) if parts else "0"


def _ref_embed(coeffs, p):
    """sum coeffs[i] t^i at t = exp(2 pi i/p), by 60-digit Horner."""
    import mpmath

    if all(c == 0 for c in coeffs[1:]):
        return complex(float(coeffs[0]))
    with mpmath.workdps(60):
        t = mpmath.expjpi(mpmath.mpf(2) / p)
        acc = mpmath.mpc(0)
        for c in reversed(coeffs):
            acc = acc * t + mpmath.mpf(c.numerator) / c.denominator
        return complex(float(acc.real), float(acc.imag))


def _assert_normal(a):
    assert len(a.num) == a.field.degree
    assert all(type(c) is int for c in a.num)
    assert type(a.den) is int and a.den > 0
    assert math.gcd(a.den, *a.num) == 1


def _random_coeffs(rng, degree):
    shape = rng.random()
    if shape < 0.1:
        return [Fraction(0)] * degree
    if shape < 0.25:  # rational: exercises the scalar product path
        head = [Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3, 6)))]
        return head + [Fraction(0)] * (degree - 1)
    return [Fraction(rng.randrange(-20, 21), rng.choice((1, 1, 2, 3, 4, 7, 9)))
            if rng.random() < 0.7 else Fraction(0) for _ in range(degree)]


@pytest.mark.parametrize("field", [cyclotomic_field(3), cyclotomic_field(7),
                                   QF7], ids=["zeta3", "zeta7", "t2+7"])
def test_number_field_matches_fraction_reference(field):
    rng = random.Random(20261018 + field.degree)
    m = field.minpoly
    for _ in range(150):
        ca, cb = (_random_coeffs(rng, field.degree) for _ in range(2))
        a, b = field.element(ca), field.element(cb)
        ca, cb = tuple(ca), tuple(cb)
        q = Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
        k = rng.randrange(0, 5)
        results = [
            (a + b, tuple(x + y for x, y in zip(ca, cb))),
            (a - b, tuple(x - y for x, y in zip(ca, cb))),
            (-a, tuple(-x for x in ca)),
            (a * b, _ref_mul(m, ca, cb)),
            (a ** k, _ref_pow(m, ca, k)),
            (a + q, (ca[0] + q,) + ca[1:]),
            (q - a, (q - ca[0],) + tuple(-x for x in ca[1:])),
            (3 * a, tuple(3 * x for x in ca)),
            (a * q, tuple(q * x for x in ca)),
        ]
        if any(cb):
            results.append((a / b, _ref_mul(m, ca, _ref_inverse(m, cb))))
            results.append((b ** -2, _ref_pow(m, cb, -2)))
            results.append((1 / b, _ref_inverse(m, cb)))
        if q:
            results.append((a / q, tuple(x / q for x in ca)))
        for got, want in results + [(a, ca), (b, cb)]:
            _assert_normal(got)
            assert got.coeffs == want
            assert bool(got) == any(want)
            assert got.is_rational() == all(x == 0 for x in want[1:])
            assert got == field.element(want)
            assert hash(got) == hash(field.element(want))


@pytest.mark.parametrize("field", [cyclotomic_field(3), cyclotomic_field(7),
                                   QF7], ids=["zeta3", "zeta7", "t2+7"])
def test_number_field_strings_and_embeddings_unchanged(field):
    rng = random.Random(31 + field.degree)
    for _ in range(40):
        coeffs = tuple(_random_coeffs(rng, field.degree))
        a = field.element(coeffs)
        assert field.element_to_str(a) == ",".join(str(c) for c in coeffs)
        assert repr(a) == _ref_repr(coeffs, field.name)
        if field is QF7:
            with pytest.raises(InvalidField):
                nf_embed_complex(a)
        else:
            assert nf_embed_complex(a) == _ref_embed(coeffs, field.degree + 1)
    a = QF7.element([Fraction(1, 2), Fraction(-3)])
    assert repr(a) == "1/2 + -3*t"
    assert repr(QF7.zero()) == "0"
    assert QF7.element_to_str(QF7.zero()) == "0,0"


@pytest.mark.parametrize("p", [3, 7])
def test_embedding_table_matches_horner_bit_for_bit(p):
    """nf_embed_complex against a 60-digit Horner evaluation at
    exp(2 pi i/p) (_ref_embed), compared with ==, on dense random
    elements.  An element with an exactly vanishing part (a real element's
    imaginary part) is left out: both ways leave different noise below
    1e-60 there."""
    field = cyclotomic_field(p)
    rng = random.Random(1400 + p)
    for _ in range(600):
        coeffs = tuple(Fraction(rng.choice((-1, 1)) * rng.randrange(1, 60),
                                rng.randrange(1, 40))
                       for _ in range(field.degree))
        a = field.element(coeffs)
        assert nf_embed_complex(a) == _ref_embed(coeffs, p)
    assert fields._zeta_table(p) is fields._zeta_table(p)


def test_inverse_memo_keeps_no_failure():
    field = NumberField([-1, 0, 1])  # t^2 - 1 = (t - 1)(t + 1)
    zero_divisor = field.gen() - 1
    for _ in range(3):
        with pytest.raises(InvalidField):
            zero_divisor.inverse()
        with pytest.raises(DivisionByZero):
            field.zero().inverse()
    t = field.gen()  # t^2 = 1
    assert t.inverse() == t
    assert t.inverse() is t.inverse()


def test_equal_values_from_different_denominators_are_equal():
    rng = random.Random(5)
    for field in (cyclotomic_field(3), cyclotomic_field(7), QF7):
        for _ in range(30):
            a = field.element(_random_coeffs(rng, field.degree))
            x = field.element([Fraction(1, rng.randrange(2, 30))]
                              + [Fraction(rng.randrange(1, 9),
                                          rng.randrange(2, 9))]
                              * (field.degree - 1))
            variants = [a + x - x, (a * x) / x, a * 6 / 6,
                        (a + a) / 2, a * Fraction(2, 4) * 2,
                        field.element([2 * c for c in a.coeffs]) / 2]
            for v in variants:
                _assert_normal(v)
                assert v == a and hash(v) == hash(a)
                assert v.num == a.num and v.den == a.den
    assert QF7.element([Fraction(2, 4), 0]) == QF7.element([Fraction(1, 2)])


def test_scaled_forms_give_the_same_line_key():
    from enumtc.geometry import Line3D, fermat_lines

    F = cyclotomic_field(3)
    z, zero, one = F.gen(), F.zero(), F.one()
    lines = fermat_lines()
    keys = {ln.coords: i for i, ln in enumerate(lines)}
    scales = [F.from_int(3) / 7, (1 + z) / 5, z * Fraction(-2, 9),
              F.element([Fraction(1, 6), Fraction(5, 4)])]
    # the defining forms of the three families, in fermat_lines order
    shapes = (
        lambda w1, w2: ((one, w1, zero, zero), (zero, zero, one, w2)),
        lambda w1, w2: ((one, zero, w1, zero), (zero, one, zero, w2)),
        lambda w1, w2: ((one, zero, zero, w1), (zero, one, w2, zero)),
    )
    roots = (one, z, z ** 2)
    rows = [shape(w1, w2) for shape in shapes for w1 in roots
            for w2 in roots]
    for i, (r0, r1) in enumerate(rows):
        s, u = scales[i % 4], scales[(i + 1) % 4]
        forms = ([s * c for c in r0],
                 [u * c + s * d for c, d in zip(r1, r0)])
        moved = Line3D.from_forms(forms)
        assert moved.coords == lines[i].coords
        assert keys[moved.coords] == i
        for c in moved.coords:
            _assert_normal(c)

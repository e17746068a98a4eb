import math
import random
from fractions import Fraction

import pytest

from enumtc.errors import DivisionByZero, InvalidField, InvalidIndex
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
    # Root with positive imaginary part sorts last for t^2+7.
    t = QF7.gen()
    z = nf_embed_complex(t, root_index=1)
    assert abs(z.real) <= 1e-15
    assert abs(z.imag - 2.6457513110645906) <= 1e-15


def test_embed_zeta3():
    z = nf_embed_complex(cyclotomic_field(3).gen(), root_index=1)
    assert abs(z.real - (-0.5)) <= 1e-15
    assert abs(z.imag - 0.8660254037844386) <= 1e-15


def test_embed_zeta7_index_five_is_first_primitive_root():
    z = nf_embed_complex(cyclotomic_field(7).gen(), root_index=5)
    assert abs(z.real - math.cos(2 * math.pi / 7)) <= 1e-15
    assert abs(z.imag - math.sin(2 * math.pi / 7)) <= 1e-15


def test_embed_rational_half_is_exact():
    assert nf_embed_complex(Fraction(1, 2)) == complex(0.5, 0.0)


def test_embed_rational_third_is_bounded():
    z = nf_embed_complex(Fraction(1, 3))
    assert abs(z.real - 1 / 3) <= 1e-16
    assert z.imag == 0.0


def test_embed_root_index_out_of_range():
    with pytest.raises(InvalidIndex):
        nf_embed_complex(QF7.gen(), root_index=2)


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
        ea = nf_embed_complex(a, 5)
        eb = nf_embed_complex(b, 5)
        eab = nf_embed_complex(a * b, 5)
        assert abs(eab - ea * eb) <= 1e-13 * (1 + abs(ea) * abs(eb))

"""The library's record classes: constructors, defaults, immutability,
equality and hashing."""

import copy
import pickle

import pytest

from enumtc import claims
from enumtc.claims import ClaimRecord, Config
from enumtc.errors import InvalidInput
from enumtc.fields import PrimeField, QQ, cyclotomic_field
from enumtc.geometry import LineP2, PointP2
from enumtc.nabla import make_context
from enumtc.poly import make_table
from enumtc.restriction import SubgroupDatum, h_datum, k_datum


def _frozen_records():
    """One instance of every immutable record class, with a field name."""
    F = cyclotomic_field(7)
    return [
        (Config(), "prime"),
        (claims._REGISTRY["lit-smale-reduction"], "statement"),
        (PrimeField(5).from_int(3), "residue"),
        (F.gen(), "num"),
        (PointP2.from_coords((F.one(), F.zero(), F.one())), "coords"),
        (make_table(("x", "y")), "names"),
        (make_context(3, QQ), "n"),
        (k_datum(), "grid"),
    ]


@pytest.mark.parametrize("record, name", _frozen_records(),
                         ids=lambda v: type(v).__name__
                         if not isinstance(v, str) else v)
def test_immutable_records_refuse_assignment_and_deletion(record, name):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) is before
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))


def test_equal_values_compare_equal_and_hash_as_their_field_tuple():
    F, G = cyclotomic_field(7), PrimeField(7)
    pairs = [
        (F.from_int(3) * F.gen(), F.gen() * 3),
        (G.from_int(10), G.from_int(3)),
        (make_table(("x", "y"), (1, 2)), make_table(["x", "y"], [1, 2])),
        (PointP2.from_coords((F.gen(), F.gen())),
         PointP2.from_coords((F.one(), F.one()))),
    ]
    for a, b in pairs:
        assert a is not b
        assert a == b and not a != b
        values = tuple(getattr(a, name) for name in a._fields)
        assert hash(a) == hash(b) == hash(values)
    a, b = pairs[0]
    assert len({a, b}) == 1
    assert F.gen() != F.one()


def test_a_point_never_equals_the_line_with_its_coordinates():
    F = cyclotomic_field(3)
    coords = (F.one(), F.gen(), F.zero())
    point, line = PointP2(coords), LineP2(coords)
    assert point.coords == line.coords
    assert point != line and line != point
    assert PointP2(coords) == point


def test_field_element_never_equals_a_bare_int():
    # the comparison is by class, as before: convert with from_int first
    F = cyclotomic_field(7)
    assert F.zero() != 0 and PrimeField(7).zero() != 0
    assert F.zero() == F.from_int(0)


def test_number_field_element_keeps_slots():
    z = cyclotomic_field(5).gen()
    assert not hasattr(z, "__dict__")
    assert (z.field, z.num, z.den) == (cyclotomic_field(5), (0, 1, 0, 0), 1)


def test_records_keep_positional_keyword_and_default_construction():
    assert Config() == Config(7, 12) == Config(max_degree=12, prime=7)
    assert Config(max_degree=3).prime == 7
    assert repr(Config(5, 4)) == "Config(prime=5, max_degree=4)"
    assert k_datum() == SubgroupDatum(n=4, p=3, name="K",
                                      grid=k_datum().grid)
    assert SubgroupDatum(3, 2, h_datum().grid).name == ""
    record = ClaimRecord("a", "verified", "s")
    assert (record.paper_ref, record.elapsed_ms) == (None, 0.0)


def test_claim_records_built_without_defaults_share_nothing():
    first = ClaimRecord("a", "verified", "s")
    second = ClaimRecord("b", "verified", "s")
    assert first.dependencies == [] and first.evidence == {}
    assert first.dependencies is not second.dependencies
    assert first.evidence is not second.evidence
    first.dependencies.append("x")
    first.evidence["k"] = 1
    assert second.dependencies == [] and second.evidence == {}
    first.status = "failed"   # a record stays mutable
    assert first.status == "failed"


def test_constructors_still_check_their_input():
    # the other refusals are in test_claims and test_restriction
    for bad in ({"prime": 7.0}, {"prime": "7"}):
        with pytest.raises(InvalidInput):
            Config(**bad)
    for grid in (((1, 0),), ((1, 0, 0.0),)):
        with pytest.raises(InvalidInput, match="not 3 int exponents"):
            SubgroupDatum(3, 3, grid)

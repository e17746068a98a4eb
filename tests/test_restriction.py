import random
from fractions import Fraction

import pytest

from enumtc.errors import (
    GradingViolation,
    InconsistentEvidence,
    InvalidInput,
)
from enumtc.fields import QQ, PrimeField, cyclotomic_field
from enumtc.poly import (
    Polynomial,
    SpecializationMap,
    elementary_symmetric,
    make_table,
    resultant,
    substitute,
)
from enumtc.restriction import (
    SubgroupDatum,
    chern_to_tau_map,
    exponent_grid,
    h_datum,
    k_datum,
    make_subgroup_datum,
    phi_star_generators,
    tau_table,
    verify_specialization_from_generators,
)

F2 = PrimeField(2)
F3 = PrimeField(3)


def test_k_images_match_stated_formulas():
    out = phi_star_generators(k_datum())
    t = make_table(("xi1", "xi2", "xi3"), (2, 2, 2))
    s1 = elementary_symmetric(1, t, F3)
    s2 = elementary_symmetric(2, t, F3)
    s3 = elementary_symmetric(3, t, F3)
    assert out[0] == s2
    assert out[1] == s1 ** 3 - s1 * s2 - s3
    assert out[2] == s1 * s3 - s1 ** 2 * s2


def test_h_images_match_stated_factorizations():
    out = phi_star_generators(h_datum())
    t = make_table(("u", "v"))
    u = Polynomial.variable("u", t, F2)
    v = Polynomial.variable("v", t, F2)
    assert out[0] == (u ** 2 + u * v + v ** 2) ** 2
    assert out[1] == u ** 2 * v ** 2 * (u + v) ** 2


def test_images_are_homogeneous_of_generator_degree():
    for datum, degrees in ((k_datum(), (4, 6, 8)), (h_datum(), (4, 6))):
        out = phi_star_generators(datum)
        assert len(out) == len(degrees)
        for f, d in zip(out, degrees):
            assert f.is_homogeneous()
            assert f.weighted_degree() == d


def test_identity_specialization_gives_symmetric_images():
    tau = tau_table(3)
    ident = SpecializationMap(
        {f"tau{j}": Polynomial.variable(f"tau{j}", tau, F2)
         for j in range(1, 4)},
        check_grading=True)
    c_to_sigma = chern_to_tau_map(3, 2)
    from enumtc.nabla import stated_image_generators

    _, gens = stated_image_generators(3, F2)
    for g in gens:
        expected = substitute(g, c_to_sigma)
        assert substitute(expected, ident) == expected


def test_k_tau4_is_zero():
    d = k_datum()
    assert not d.tau_map.images["tau4"]
    assert exponent_grid(d.generators, d.p, d.field) == [
        [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]


def test_h_tau3_is_zero():
    d = h_datum()
    assert not d.tau_map.images["tau3"]
    assert exponent_grid(d.generators, d.p, d.field) == [
        [1, 0, 0], [0, 1, 0]]


def test_verify_stored_maps():
    assert verify_specialization_from_generators(k_datum())
    assert verify_specialization_from_generators(h_datum())


def test_derived_map_matches_stored_literals():
    k = k_datum()
    derived = make_subgroup_datum(4, 3, k.field, k.generators,
                                  target_names=("xi1", "xi2", "xi3"),
                                  name="K")
    assert derived.tau_map.images == k.tau_map.images
    h = h_datum()
    derived = make_subgroup_datum(3, 2, QQ, h.generators,
                                  target_names=("u", "v"), name="H")
    assert derived.tau_map.images == h.tau_map.images


def test_trivial_subgroup_kills_everything():
    d = make_subgroup_datum(3, 2, QQ, ())
    assert all(not img for img in d.tau_map.images.values())
    assert verify_specialization_from_generators(d)
    assert all(not f for f in phi_star_generators(d))


def test_verify_names_disagreeing_generator():
    d = k_datum()
    xi1 = Polynomial.variable("xi1", d.tau_map.images["tau1"].table, F3)
    d.tau_map.images["tau2"] = xi1
    with pytest.raises(InconsistentEvidence) as info:
        verify_specialization_from_generators(d)
    assert "generator 1" in str(info.value)


def test_verify_flags_spurious_terms():
    d = k_datum()
    t = d.tau_map.images["tau1"].table
    d.tau_map.images["tau4"] = Polynomial.monomial((1, 1, 0), F3.one(), t, F3)
    with pytest.raises(InconsistentEvidence) as info:
        verify_specialization_from_generators(d)
    assert "tau4" in str(info.value)


def test_grading_violation_propagates():
    d = h_datum()
    t = d.tau_map.images["tau1"].table
    u = Polynomial.variable("u", t, F2)
    d.tau_map.images["tau1"] = u  # weight 1 image for a weight 2 class
    with pytest.raises(GradingViolation):
        phi_star_generators(d)


def test_p_dividing_n_is_rejected():
    F = cyclotomic_field(3)
    d = make_subgroup_datum(3, 3, F, ((F.gen(), F.one(), F.one()),))
    with pytest.raises(InvalidInput):
        phi_star_generators(d)


def test_datum_validation():
    one = Fraction(1)
    good = h_datum()
    with pytest.raises(InvalidInput):
        SubgroupDatum(3, 2, QQ, ((one, one, one),), good.tau_map)
    with pytest.raises(InvalidInput):
        SubgroupDatum(3, 2, QQ, ((Fraction(3), one, one),), good.tau_map)
    with pytest.raises(InvalidInput):
        SubgroupDatum(3, 4, QQ, good.generators, good.tau_map)
    with pytest.raises(InvalidInput):
        SubgroupDatum(4, 2, QQ, good.generators, good.tau_map)
    bad_keys = SpecializationMap({"tau1": good.tau_map.images["tau1"]})
    with pytest.raises(InvalidInput):
        SubgroupDatum(3, 2, QQ, good.generators, bad_keys)


def _matmul(a, b, zero):
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), zero)
                       for j in range(len(b[0]))) for i in range(len(a)))


def _diagonal(diag, zero):
    return tuple(tuple(d if i == j else zero for j in range(len(diag)))
                 for i, d in enumerate(diag))


def test_datum_matrices_list_the_group():
    for datum, exterior in ((k_datum(), 3), (h_datum(), 0)):
        p, r, n = datum.p, len(datum.generators), datum.n
        zero, one = datum.field.zero(), datum.field.one()
        mats = datum.matrices()
        assert len(mats) == len(set(mats)) == p ** r
        ident = _diagonal((one,) * n, zero)
        assert mats[0] == ident
        for m in mats:
            assert all(not m[i][j] for i in range(n) for j in range(n)
                       if i != j)
            power = ident
            for _ in range(p):
                power = _matmul(power, m, zero)
            assert power == ident
            assert all(_matmul(m, g, zero) in mats for g in mats)
        # generator i sits at the exponent vector e_i, index p^(r-1-i)
        for i, gen in enumerate(datum.generators):
            assert mats[p ** (r - 1 - i)] == _diagonal(gen, zero)
        assert datum.exterior_count == exterior
    F = cyclotomic_field(3)
    z = F.gen()
    roots = (F.one(), z, z * z)
    written = [_diagonal((roots[a], roots[b], roots[c], F.one()), F.zero())
               for a in range(3) for b in range(3) for c in range(3)]
    assert k_datum().matrices() == written


def test_entry_outside_root_powers():
    with pytest.raises(InvalidInput):
        exponent_grid(((Fraction(3), Fraction(1)),), 2, QQ)


def test_h_pair_coprime_via_resultant():
    f, g = phi_star_generators(h_datum())
    res = resultant(f, g, "u", 4, 4)
    assert res
    assert res.degree_in("u") == 0
    # 4 roots of the quartic, each evaluated in the sextic: 4 * 6 = 24.
    assert res.degree_in("v") == 24
    assert res.is_homogeneous()


def test_random_derived_data_verify():
    rng = random.Random(20260816)
    F = cyclotomic_field(3)
    powers = [F.one(), F.gen(), F.gen() ** 2]
    for _ in range(30):
        r = rng.randrange(1, 4)
        gens = []
        while len(gens) < r:
            grid_row = [rng.randrange(3) for _ in range(4)]
            if any(grid_row):
                gens.append(tuple(powers[e] for e in grid_row))
        d = make_subgroup_datum(4, 3, F, gens)
        assert d.exterior_count == r
        assert verify_specialization_from_generators(d)
        grid = exponent_grid(d.generators, 3, F)
        for j in range(4):
            img = d.tau_map.images[f"tau{j + 1}"]
            assert not img or (img.is_homogeneous()
                               and img.weighted_degree() == 2)
            assert all(grid[i][j] % 3 == 0 for i in range(r)) == (not img)

import random
from fractions import Fraction

import pytest

from enumtc.errors import GradingViolation, InvalidInput
from enumtc.fields import QQ, PrimeField, cyclotomic_field
from enumtc.linalg import rank_mod_p
from enumtc.nabla import stated_image_generators
from enumtc.poly import (
    Polynomial,
    elementary_symmetric,
    make_table,
    resultant,
    substitute,
)
from enumtc.restriction import (
    SubgroupDatum,
    chern_to_tau_map,
    h_datum,
    k_datum,
    phi_star_generators,
    tau_table,
)
from subgroups import matrices

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
    ident = {f"tau{j}": Polynomial.variable(f"tau{j}", tau, F2)
             for j in range(1, 4)}
    c_to_sigma = chern_to_tau_map(3, 2)
    _, gens = stated_image_generators(3, F2)
    for g in gens:
        expected = substitute(g, c_to_sigma, check_grading=True)
        assert substitute(expected, ident, check_grading=True) == expected


def test_k_tau4_is_zero():
    d = k_datum()
    assert not d.tau_map()["tau4"]
    assert d.grid == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))


def test_h_tau3_is_zero():
    d = h_datum()
    assert not d.tau_map()["tau3"]
    assert d.grid == ((1, 0, 0), (0, 1, 0))


def test_derived_map_matches_stored_literals():
    # the paper's maps: tau -> (xi1, xi2, xi3, 0) for K, (u^2, v^2, 0) for H
    t = make_table(("xi1", "xi2", "xi3"), (2, 2, 2))
    xi = [Polynomial.variable(x, t, F3) for x in t.names]
    assert k_datum().tau_map() == {
        "tau1": xi[0], "tau2": xi[1], "tau3": xi[2],
        "tau4": Polynomial.zero(t, F3)}
    t = make_table(("u", "v"))
    u, v = (Polynomial.variable(x, t, F2) for x in t.names)
    assert h_datum().tau_map() == {
        "tau1": u * u, "tau2": v * v, "tau3": Polynomial.zero(t, F2)}


def test_generator_matrices_are_the_stated_diagonals():
    F = cyclotomic_field(3)
    z, one, zero = F.gen(), F.one(), F.zero()
    assert k_datum().generator_matrices() == [
        _diagonal(d, zero) for d in ((z, one, one, one), (one, z, one, one),
                                     (one, one, z, one))]
    one = Fraction(1)
    assert h_datum().generator_matrices() == [
        _diagonal(d, Fraction(0)) for d in ((-one, one, one),
                                            (one, -one, one))]


def test_trivial_subgroup_kills_everything():
    d = SubgroupDatum(3, 2, ())
    assert all(not img for img in d.tau_map().values())
    assert all(not f for f in phi_star_generators(d))


def test_grading_violation_propagates():
    images = h_datum().tau_map()
    u = Polynomial.variable("u", images["tau1"].table, F2)
    images["tau1"] = u  # weight 1 image for a weight 2 class
    _, gens = stated_image_generators(3, F2)
    in_tau = substitute(gens[0], chern_to_tau_map(3, 2), check_grading=True)
    with pytest.raises(GradingViolation):
        substitute(in_tau, images, check_grading=True)


def test_p_dividing_n_is_rejected():
    d = SubgroupDatum(3, 3, ((1, 0, 0),))
    with pytest.raises(InvalidInput):
        phi_star_generators(d)


def test_datum_validation():
    with pytest.raises(InvalidInput):
        SubgroupDatum(3, 2, ((0, 0, 0),))
    with pytest.raises(InvalidInput):
        SubgroupDatum(3, 2, ((2, 0, 0),))  # root**2 = 1 for p = 2
    with pytest.raises(InvalidInput):
        SubgroupDatum(3, 4, ((1, 0, 0),))
    with pytest.raises(InvalidInput):
        SubgroupDatum(4, 2, h_datum().grid)
    with pytest.raises(InvalidInput):
        SubgroupDatum(1, 2, ((1,),))


def test_dependent_generators_are_refused():
    # (z, 1, 1, 1) and (z^2, 1, 1, 1) span a group of order 3, not 9, so
    # two exterior classes would be one too many
    with pytest.raises(InvalidInput, match="2 generators are dependent "
                                           "mod 3"):
        SubgroupDatum(4, 3, ((1, 0, 0, 0), (2, 0, 0, 0)))
    assert rank_mod_p(((1, 0, 0, 0), (2, 0, 0, 0)), 3) == 1
    with pytest.raises(InvalidInput, match="dependent mod 2"):
        SubgroupDatum(3, 2, ((1, 0, 0), (0, 1, 0), (1, 1, 0)))
    # the scalar row (1, 1, 1, 1) is independent of K's rows
    scaled = SubgroupDatum(4, 3, k_datum().grid + ((1, 1, 1, 1),))
    assert scaled.exterior_count == 4


def _matmul(a, b, zero):
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), zero)
                       for j in range(len(b[0]))) for i in range(len(a)))


def _diagonal(diag, zero):
    return tuple(tuple(d if i == j else zero for j in range(len(diag)))
                 for i, d in enumerate(diag))


def test_datum_matrices_list_the_group():
    fields = {3: cyclotomic_field(3), 2: QQ}
    for datum, exterior in ((k_datum(), 3), (h_datum(), 0)):
        p, r, n = datum.p, len(datum.grid), datum.n
        zero, one = fields[p].zero(), fields[p].one()
        mats = matrices(datum)
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
        for i, gen in enumerate(datum.generator_matrices()):
            assert mats[p ** (r - 1 - i)] == gen
        assert datum.exterior_count == exterior
    F = cyclotomic_field(3)
    z = F.gen()
    roots = (F.one(), z, z * z)
    written = [_diagonal((roots[a], roots[b], roots[c], F.one()), F.zero())
               for a in range(3) for b in range(3) for c in range(3)]
    assert matrices(k_datum()) == written


def test_entry_outside_root_powers():
    # root**(1/2) is no power of the root
    with pytest.raises(InvalidInput, match="generator 1 is not 2 int"):
        SubgroupDatum(2, 3, ((Fraction(1, 2), 0),))


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
        grid = []
        while len(grid) < r:
            row = tuple(rng.randrange(-3, 6) for _ in range(4))
            if rank_mod_p(grid + [row], 3) == len(grid) + 1:
                grid.append(row)
        d = SubgroupDatum(4, 3, tuple(grid))
        assert d.exterior_count == r
        assert d.generator_matrices() == [
            _diagonal([powers[e % 3] for e in row], F.zero())
            for row in grid]
        images = d.tau_map()
        for j in range(4):
            img = images[f"tau{j + 1}"]
            # tau_j -> sum_i grid[i][j] xi_i, coefficients read mod 3
            assert img == sum((Polynomial.variable(f"xi{i + 1}", img.table,
                                                   F3) * grid[i][j]
                               for i in range(r)),
                              Polynomial.zero(img.table, F3))
            assert not img or (img.is_homogeneous()
                               and img.weighted_degree() == 2)
            assert all(grid[i][j] % 3 == 0 for i in range(r)) == (not img)

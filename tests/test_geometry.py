import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from enumtc import claims, geometry
from enumtc.claims import run_claims
from enumtc.errors import (
    CheckFailed,
    CollisionAtTolerance,
    InvalidInput,
    InvalidLine,
    NotInvariant,
)
from enumtc.fields import QQ, NumberFieldElement, PrimeField, cyclotomic_field
from enumtc.geometry import (
    PLUCKER_PAIRS,
    Line3D,
    LineP2,
    PointP2,
    _image,
    common_fixed_check,
    compose_permutations,
    compose_with_matrix,
    fermat_cubic,
    fermat_lines,
    induced_permutation,
    line_on_surface,
    make_group_action,
    verify_projective_equivalence,
)
from enumtc.poly import Polynomial, make_table
from enumtc.quartic import klein_quartic
from enumtc.restriction import h_datum, k_datum
from subgroups import matrices

F3CYC = cyclotomic_field(3)
F7CYC = cyclotomic_field(7)


def _vec(v, field=F7CYC):
    return tuple(field.from_int(e) for e in v)


def _plane_matrix(rows, field=F7CYC):
    return tuple(_vec(row, field) for row in rows)


def witness_line():
    one, zero = F3CYC.one(), F3CYC.zero()
    return Line3D.from_forms(((one, one, zero, zero),
                              (zero, zero, one, one)))


def test_fermat_lines_count_and_families():
    lines = fermat_lines()
    assert len(lines) == 27
    assert len({ln.coords for ln in lines}) == 27
    # family invariant: which two Plucker coordinates vanish
    shapes = {}
    for ln in lines:
        key = frozenset(pair for pair, c in zip(PLUCKER_PAIRS, ln.coords)
                        if not c)
        shapes[key] = shapes.get(key, 0) + 1
    assert shapes == {frozenset({(0, 1), (2, 3)}): 9,
                      frozenset({(0, 2), (1, 3)}): 9,
                      frozenset({(0, 3), (1, 2)}): 9}


def test_witness_line_is_present_and_on_surface():
    lines = fermat_lines()
    w = witness_line()
    assert any(ln.coords == w.coords for ln in lines)
    F = fermat_cubic()
    assert line_on_surface(w, F)


def test_all_lines_lie_on_the_surface():
    F = fermat_cubic()
    assert all(line_on_surface(ln, F) for ln in fermat_lines())


def test_non_line_and_non_cubic_rejected():
    one, zero = F3CYC.one(), F3CYC.zero()
    with pytest.raises(InvalidLine):
        Line3D.from_forms(((one, one, zero, zero),
                           (one, one, zero, zero)))
    x_eq_y_eq_0 = Line3D.from_forms(((one, zero, zero, zero),
                                     (zero, one, zero, zero)))
    F = fermat_cubic()
    assert not line_on_surface(x_eq_y_eq_0, F)
    t = make_table(("x", "y", "z", "w"))
    quadric = Polynomial.variable("x", t, F3CYC) ** 2
    with pytest.raises(InvalidInput):
        line_on_surface(x_eq_y_eq_0, quadric)


def test_line_forms_must_have_four_coordinates():
    one, zero = Fraction(1), Fraction(0)
    with pytest.raises(InvalidInput, match="width 3, need 4"):
        Line3D.from_forms([[one, zero, zero], [zero, one, zero]])
    line = Line3D.from_forms([[one, zero, zero, zero],
                              [zero, one, zero, zero]])
    assert line.field == QQ
    assert len(line.spanning_points()) == 2


def test_identity_and_generator_permutations():
    lines = fermat_lines()
    mats = matrices(k_datum())
    ident = induced_permutation(mats[0], lines)
    assert ident == tuple(range(27))
    # diag(z,1,1,1) is element (a,b,c)=(1,0,0), index 9
    perm = induced_permutation(mats[9], lines)
    assert all(perm[i] != i for i in range(27))
    twice = compose_permutations(perm, perm)
    assert compose_permutations(twice, perm) == ident


def k_action(lines):
    return make_group_action(k_datum().generator_matrices(), 3, lines)


def test_k_action_is_faithful():
    lines = fermat_lines()
    action = k_action(lines)
    ident = tuple(range(27))
    trivial = [i for i, p in enumerate(action.permutations) if p == ident]
    assert trivial == [0]


def test_witness_fixers_are_exactly_two():
    # diag(z^a, z^a, 1, 1) rescales both spanning points of the witness,
    # so elements 12 (a=1) and 24 (a=2) fix it; the other 24 move it.
    lines = fermat_lines()
    w = witness_line()
    i0 = next(i for i, ln in enumerate(lines) if ln.coords == w.coords)
    action = k_action(lines)
    fixers = [g for g in range(1, 27) if action.permutations[g][i0] == i0]
    assert fixers == [12, 24]
    moved_by = 26 - len(fixers)
    assert moved_by == 24


def test_coordinate_permutations_move_lines_like_their_forms():
    # every coordinate permutation fixes x^3+y^3+z^3+w^3, and, unlike K,
    # moves lines by matrices that are not diagonal
    zero, one = F3CYC.zero(), F3CYC.one()
    roots = (one, F3CYC.gen(), F3CYC.gen() ** 2)
    shapes = (   # the three families of the fermat_lines docstring
        lambda w1, w2: ((one, w1, zero, zero), (zero, zero, one, w2)),
        lambda w1, w2: ((one, zero, w1, zero), (zero, one, zero, w2)),
        lambda w1, w2: ((one, zero, zero, w1), (zero, one, w2, zero)),
    )
    forms = [shape(w1, w2) for shape in shapes for w1 in roots
             for w2 in roots]
    lines = fermat_lines()
    assert [Line3D.from_forms(f) for f in forms] == lines
    index = {ln.coords: i for i, ln in enumerate(lines)}
    cubic = fermat_cubic()
    perms = {}
    for sigma in permutations(range(4)):
        # g e_j = e_sigma(j); a form a moves to a g^-1, whose entry
        # sigma(j) is a_j
        g = tuple(tuple(one if i == sigma[j] else zero for j in range(4))
                  for i in range(4))
        assert compose_with_matrix(cubic, g) == cubic
        want = []
        for pair in forms:
            moved = [[None] * 4, [None] * 4]
            for form, image in zip(pair, moved):
                for j in range(4):
                    image[sigma[j]] = form[j]
            want.append(index[Line3D.from_forms(moved).coords])
        perms[sigma] = induced_permutation(g, lines)
        assert perms[sigma] == tuple(want)
    assert len(set(perms.values())) == 24
    # g_s g_t = g_(s t), so the lines move by a homomorphism of S_4
    for s, t in product(perms, repeat=2):
        st = tuple(s[t[j]] for j in range(4))
        assert perms[st] == compose_permutations(perms[s], perms[t])


def test_spanning_points_solve_the_forms_and_give_the_line_back():
    for rows in (((1, 2, 0, 0), (0, 0, 1, 3)), ((0, 1, 0, 0), (1, 0, 0, 5)),
                 ((2, 0, 1, 1), (0, 1, 1, 0))):
        forms = [[Fraction(e) for e in row] for row in rows]
        line = Line3D.from_forms(forms)
        u, v = line.spanning_points()
        assert all(sum(a * x for a, x in zip(form, point)) == 0
                   for form in forms for point in (u, v))
        plucker = [u[i] * v[j] - u[j] * v[i] for i, j in PLUCKER_PAIRS]
        assert Line3D.from_coords(plucker) == line


def test_homomorphism_spot_check_on_k():
    # past the generator relations, the table is an action of (Z/3)^3:
    # element e + f permutes as e after f, for every pair
    action = k_action(fermat_lines())
    elements = list(product(range(3), repeat=3))
    perm = dict(zip(elements, action.permutations))
    for e, f in product(elements, repeat=2):
        total = tuple((a + b) % 3 for a, b in zip(e, f))
        assert perm[total] == compose_permutations(perm[e], perm[f])
    evidence = run_claims(["k-faithful"]).claim("k-faithful").evidence
    assert evidence["homomorphism_spot_check"] is True


def test_group_action_refuses_generators_breaking_a_relation():
    lines = fermat_lines()
    # diag(z, 1, 1, 1) has order 3, which does not divide 2
    with pytest.raises(CheckFailed, match="generator 1: permutation order "
                                          "does not divide 2"):
        make_group_action(k_datum().generator_matrices(), 2, lines)
    zero, one = F3CYC.zero(), F3CYC.one()

    def swap(a, b):
        sigma = {a: b, b: a}
        return tuple(tuple(one if i == sigma.get(j, j) else zero
                           for j in range(4)) for i in range(4))

    # swapping x, y and swapping y, z each have order 2, but they do not
    # commute, and S_4 moves the 27 lines faithfully
    with pytest.raises(CheckFailed, match="generator 2 does not commute "
                                          "with generator 1"):
        make_group_action([swap(0, 1), swap(1, 2)], 2, lines)
    assert len(make_group_action([swap(0, 1), swap(2, 3)], 2,
                                 lines).permutations) == 4


def _recorded_actions(monkeypatch, ids):
    """The GroupAction of every make_group_action call the claims make."""
    made = []

    def recorded(generators, p, objects):
        made.append(make_group_action(generators, p, objects))
        return made[-1]

    monkeypatch.setattr(claims, "make_group_action", recorded)
    report = run_claims(ids)
    assert all(report.claim(cid).status == "verified" for cid in ids)
    return made


def test_generator_actions_match_every_listed_element(monkeypatch):
    made = _recorded_actions(monkeypatch, ["k-faithful", "h-free-on-flexes",
                                           "h-free-on-bitangents"])
    assert sorted(len(action.objects) for action in made) == [24, 27, 28]
    for action in made:
        datum = k_datum() if len(action.objects) == 27 else h_datum()
        assert action.permutations == [induced_permutation(m, action.objects)
                                       for m in matrices(datum)]


def test_group_actions_move_each_object_under_each_generator_once(
        monkeypatch):
    # K's 3 generators move the 27 lines and H's 2 the flexes and the
    # bitangents; listing every element moved them 27, 4 and 4 times
    calls = []
    induced = geometry.induced_permutation

    def counted(g, objects):
        calls.append(len(objects))
        return induced(g, objects)

    monkeypatch.setattr(geometry, "induced_permutation", counted)
    for claim_id, want in (("k-faithful", [27] * 3),
                           ("h-free-on-flexes", [24] * 2),
                           ("h-free-on-bitangents", [28] * 2)):
        calls.clear()
        report = run_claims([claim_id])
        assert report.claim(claim_id).status == "verified"
        assert calls == want


def test_common_fixed_check_exact_and_trivial():
    lines = fermat_lines()
    report = common_fixed_check(k_action(lines))
    assert report["verdict"] == "PASS"
    assert report["group_order"] == 27
    assert all(row["moved"] >= 1 for row in report["rows"])
    # each line has an order-3 stabilizer: no free orbit
    assert report["fixed_per_element"] == [27 - row["moved"]
                                           for row in report["rows"]]
    assert not report["has_free_orbit"] and not report["entirely_free"]
    assert report["objects_in_free_orbits"] == 0
    only_identity = make_group_action((), 3, lines)
    assert only_identity.permutations == [tuple(range(27))]
    vacuous = common_fixed_check(only_identity)
    assert vacuous["verdict"] == "PASS" and vacuous["rows"] == []
    assert vacuous["entirely_free"] and vacuous["objects_in_free_orbits"] == 27


def test_point_normalization_and_exact_permutation():
    z = F7CYC.gen()
    p = PointP2.from_coords((z, 3 * z, F7CYC.zero()))
    assert p.coords == (F7CYC.from_int(3).inverse(), F7CYC.one(),
                        F7CYC.zero())
    assert p.field == F7CYC
    pts = [PointP2.from_coords(_vec(v)) for v in ((1, 0, 0), (0, 1, 0),
                                                  (0, 0, 1))]
    cycle = _plane_matrix(((0, 0, 1), (1, 0, 0), (0, 1, 0)))
    assert induced_permutation(cycle, pts) == (1, 2, 0)
    outside = [PointP2.from_coords(_vec((1, 1, 1)))] + pts[1:]
    with pytest.raises(NotInvariant):
        induced_permutation(cycle, outside)
    with pytest.raises(InvalidInput):
        PointP2.from_coords(_vec((0, 0, 0)))


def test_exact_collision_detection():
    pts = [PointP2.from_coords(_vec(v)) for v in ((1, 0, 1), (1, 1, 1))]
    squash = _plane_matrix(((1, 0, 0), (0, 0, 0), (0, 0, 1)))
    with pytest.raises(CollisionAtTolerance):
        induced_permutation(squash, pts)


def test_line_objects_transform_by_inverse():
    # over F_3 the shear g: (x : y : z) -> (x + y : y : z) has order 3 and
    # moves the covector (1, 0, 0) by g^-1 to (1, -1, 0) = (1, 2, 0)
    f3 = PrimeField(3)
    objs = [_vec(v, f3) for v in ((1, 0, 0), (1, 2, 0), (1, 1, 0))]
    shear = _plane_matrix(((1, 1, 0), (0, 1, 0), (0, 0, 1)), f3)
    lines = [LineP2.from_coords(v) for v in objs]
    assert induced_permutation(shear, lines) == (1, 2, 0)
    # v g instead of v g^-1 would give (2, 0, 1); as points they move by
    # g itself, and (1 : 2 : 0) goes to (0 : 1 : 0), outside the set
    with pytest.raises(NotInvariant):
        induced_permutation(shear, [PointP2.from_coords(v) for v in objs])
    singular = _plane_matrix(((1, 0, 0), (1, 0, 0), (0, 0, 1)), f3)
    with pytest.raises(InvalidInput):
        induced_permutation(singular, lines)


def test_h_action_over_qq():
    point = PointP2.from_coords((Fraction(2), Fraction(4), Fraction(2)))
    assert point.coords == (1, 2, 1) and point.field == QQ
    mats = matrices(h_datum())
    pts = [PointP2.from_coords((Fraction(sx), Fraction(2 * sy), Fraction(1)))
           for sx in (1, -1) for sy in (1, -1)]
    action = make_group_action(h_datum().generator_matrices(), 2, pts)
    check = common_fixed_check(action)
    assert check["verdict"] == "PASS"
    # one free orbit: every nontrivial element moves all four points
    assert [r["moved"] for r in check["rows"]] == [4, 4, 4]
    assert check["fixed_per_element"] == [0, 0, 0]
    assert check["entirely_free"] and check["objects_in_free_orbits"] == 4
    assert sorted(p[0] for p in action.permutations) == [0, 1, 2, 3]
    covectors = [LineP2.from_coords((Fraction(a), Fraction(b), Fraction(1)))
                 for a, b in ((1, 0), (-1, 0), (0, 3), (0, -3))]
    # the sign changes come y first: diag(1, -1, 1), then diag(-1, 1, 1)
    assert [induced_permutation(g, covectors) for g in mats] == [
        (0, 1, 2, 3), (0, 1, 3, 2), (1, 0, 2, 3), (1, 0, 3, 2)]


def test_equivalence_identity_and_scaling():
    t = make_table(("x", "y", "z"))
    x = Polynomial.variable("x", t, QQ)
    y = Polynomial.variable("y", t, QQ)
    z = Polynomial.variable("z", t, QQ)
    F = x ** 4 + y ** 4 + z ** 4
    one, zero = Fraction(1), Fraction(0)
    ident = ((one, zero, zero), (zero, one, zero), (zero, zero, one))
    assert verify_projective_equivalence(F, F, ident) == 1
    doubled = tuple(tuple(2 * e for e in row) for row in ident)
    assert verify_projective_equivalence(F, F, doubled) == 16
    third = F * Fraction(3)
    assert verify_projective_equivalence(F, third, ident) == Fraction(1, 3)


def test_equivalence_with_shear_and_failure_report():
    t = make_table(("x", "y", "z"))
    x = Polynomial.variable("x", t, QQ)
    y = Polynomial.variable("y", t, QQ)
    z = Polynomial.variable("z", t, QQ)
    F = x ** 4 + y ** 4 + z ** 4
    one, zero = Fraction(1), Fraction(0)
    shear = ((one, one, zero), (zero, one, zero), (zero, zero, one))
    G = compose_with_matrix(F, shear)
    assert verify_projective_equivalence(F, G, shear) == 1
    unrelated = F + x ** 2 * y ** 2
    report = verify_projective_equivalence(F, unrelated,
                                           ((one, zero, zero),
                                            (zero, one, zero),
                                            (zero, zero, one)))
    assert set(report) == {"numeric_proportional", "max_abs_deviation"}
    assert report["numeric_proportional"] is False
    assert report["max_abs_deviation"] > 1e-4
    singular = ((one, zero, zero), (one, zero, zero), (zero, zero, one))
    with pytest.raises(InvalidInput):
        verify_projective_equivalence(F, F, singular)


def test_compose_with_identity_and_scalar_matrices():
    F = klein_quartic()
    one, zero, z = F7CYC.one(), F7CYC.zero(), F7CYC.gen()
    c = 2 - z ** 3

    def scalar(s):
        return tuple(tuple(s if i == j else zero for j in range(3))
                     for i in range(3))

    assert compose_with_matrix(F, scalar(one)) == F
    assert compose_with_matrix(F, scalar(c)) == F * c ** 4


def test_image_matches_dense_product_and_keeps_field_zeros():
    rng = random.Random(14)
    z, zero = F7CYC.gen(), F7CYC.zero()
    for trial in range(40):
        if trial % 2:  # monomial: a signed permutation times powers of z
            perm = rng.sample(range(3), 3)
            m = tuple(tuple(rng.choice((1, -1)) * z ** rng.randrange(7)
                            if j == perm[i] else zero for j in range(3))
                      for i in range(3))
        else:
            m = tuple(tuple(rng.randrange(-2, 3) + rng.randrange(-2, 3) * z
                            for _ in range(3)) for _ in range(3))
        v = tuple(zero if rng.random() < 0.4
                  else rng.randrange(1, 4) * z ** rng.randrange(7)
                  for _ in range(3))
        w = [sum((a * b for a, b in zip(row, v)), zero) for row in m]
        if not any(v) or not any(w):
            continue
        last = next(c for c in reversed(w) if c)
        got = _image(m, v)
        assert got == tuple(c / last for c in w)
        assert all(type(c) is NumberFieldElement for c in got)

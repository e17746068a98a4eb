import random
from fractions import Fraction
from itertools import permutations

import pytest

from enumtc import geometry
from enumtc.claims import run_claims
from enumtc.errors import (
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
    homomorphism_spot_check,
    induced_permutation,
    line_on_surface,
    make_group_action,
    verify_projective_equivalence,
)
from enumtc.poly import Polynomial, make_table
from enumtc.quartic import klein_quartic
from enumtc.restriction import h_datum, k_datum

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
    F = fermat_cubic(F3CYC)
    assert line_on_surface(w, F)


def test_all_lines_lie_on_the_surface():
    F = fermat_cubic(F3CYC)
    assert all(line_on_surface(ln, F) for ln in fermat_lines())


def test_non_line_and_non_cubic_rejected():
    one, zero = F3CYC.one(), F3CYC.zero()
    with pytest.raises(InvalidLine):
        Line3D.from_forms(((one, one, zero, zero),
                           (one, one, zero, zero)))
    x_eq_y_eq_0 = Line3D.from_forms(((one, zero, zero, zero),
                                     (zero, one, zero, zero)))
    F = fermat_cubic(F3CYC)
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
    mats = k_datum().matrices()
    ident = induced_permutation(mats[0], lines)
    assert ident == tuple(range(27))
    # diag(z,1,1,1) is element (a,b,c)=(1,0,0), index 9
    perm = induced_permutation(mats[9], lines)
    assert all(perm[i] != i for i in range(27))
    twice = compose_permutations(perm, perm)
    assert compose_permutations(twice, perm) == ident


def test_k_action_is_faithful():
    lines = fermat_lines()
    action = make_group_action(k_datum().matrices(), lines)
    ident = tuple(range(27))
    trivial = [i for i, p in enumerate(action.permutations) if p == ident]
    assert trivial == [0]


def test_witness_fixers_are_exactly_two():
    # diag(z^a, z^a, 1, 1) rescales both spanning points of the witness,
    # so elements 12 (a=1) and 24 (a=2) fix it; the other 24 move it.
    lines = fermat_lines()
    w = witness_line()
    i0 = next(i for i, ln in enumerate(lines) if ln.coords == w.coords)
    action = make_group_action(k_datum().matrices(), lines)
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
    cubic = fermat_cubic(F3CYC)
    mats = []
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
        assert induced_permutation(g, lines) == tuple(want)
        mats.append(g)
    action = make_group_action(mats, lines)
    assert len(set(action.permutations)) == 24
    assert homomorphism_spot_check(action, random.Random(5), samples=24)


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
    lines = fermat_lines()
    action = make_group_action(k_datum().matrices(), lines)
    assert homomorphism_spot_check(action, random.Random(99), samples=8)


def _spot_check_by_images(action, rng, samples):
    """The spot check with every product moved by induced_permutation."""
    k = len(action.matrices)
    for _ in range(samples):
        i, j = rng.randrange(k), rng.randrange(k)
        gi, gj = action.matrices[i], action.matrices[j]
        product = [[sum((a * b for a, b in zip(row, col)), F3CYC.zero())
                    for col in zip(*gj)] for row in gi]
        if induced_permutation(product, action.objects) != \
                compose_permutations(action.permutations[i],
                                     action.permutations[j]):
            return False
    return True


def test_spot_check_refuses_swapped_permutations():
    action = make_group_action(k_datum().matrices(), fermat_lines())
    perms = action.permutations
    perms[1], perms[9] = perms[9], perms[1]
    assert not homomorphism_spot_check(action, random.Random(99),
                                       samples=20)


def test_spot_check_on_an_open_list_matches_the_image_check(monkeypatch):
    # products of the first four elements leave the list, so some go
    # through induced_permutation
    action = make_group_action(k_datum().matrices()[:4], fermat_lines())
    moved = []
    induced = geometry.induced_permutation

    def counted(g, objects):
        moved.append(g)
        return induced(g, objects)

    monkeypatch.setattr(geometry, "induced_permutation", counted)
    for seed in range(5):
        assert homomorphism_spot_check(action, random.Random(seed), 12) == \
            _spot_check_by_images(action, random.Random(seed), 12)
    assert moved


def test_k_faithful_moves_each_line_under_each_element_once(monkeypatch):
    # 27 matrices x 27 lines = 729 images; the 20 spot-check products
    # are all listed, so they move nothing (the per-product path took 47)
    calls = []
    induced = geometry.induced_permutation

    def counted(g, objects):
        calls.append(len(objects))
        return induced(g, objects)

    monkeypatch.setattr(geometry, "induced_permutation", counted)
    report = run_claims(["k-faithful"])
    assert report.claim("k-faithful").status == "verified"
    assert calls == [27] * 27


def test_common_fixed_check_exact_and_trivial():
    lines = fermat_lines()
    action = make_group_action(k_datum().matrices(), lines)
    report = common_fixed_check(action)
    assert report["verdict"] == "PASS"
    assert report["elements"] == 26
    assert all(row["moved"] >= 1 for row in report["rows"])
    only_identity = make_group_action(k_datum().matrices()[:1], lines)
    vacuous = common_fixed_check(only_identity)
    assert vacuous["verdict"] == "PASS" and vacuous["rows"] == []


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
    mats = h_datum().matrices()
    pts = [PointP2.from_coords((Fraction(sx), Fraction(2 * sy), Fraction(1)))
           for sx in (1, -1) for sy in (1, -1)]
    action = make_group_action(mats, pts)
    check = common_fixed_check(action)
    assert check["verdict"] == "PASS"
    # one free orbit: every nontrivial element moves all four points
    assert [r["moved"] for r in check["rows"]] == [4, 4, 4]
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
    assert isinstance(report, dict)
    assert report["exact"] is False
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

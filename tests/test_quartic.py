import random

import pytest

from enumtc.errors import CheckFailed, InvalidField, InvalidInput, NotInvariant
from enumtc.fields import NumberField, cyclotomic_field
from enumtc.geometry import (
    LineP2,
    PointP2,
    _image,
    _normalize,
    compose_with_matrix,
    embedded,
    images,
    induced_permutation,
    orbit,
    verify_projective_equivalence,
)
from enumtc.numroots import chordal_distance
from enumtc import quartic
from enumtc.poly import (
    Polynomial,
    hessian_det,
    make_table,
    substitute,
)
from enumtc.quartic import (
    KLEIN_BITANGENT,
    KLEIN_FLEX,
    PLANE_VARS,
    classical_klein_quartic,
    exact_bitangents,
    exact_flex_tangents,
    exact_flexes,
    klein_model_matrix,
    klein_quartic,
    klein_symmetries,
    quartic_to_classical_matrix,
    smoothness_certificate,
)
from enumtc.restriction import h_datum
from subgroups import matrices

_MEMO = {}


def test_klein_models_and_alpha_roots():
    field = cyclotomic_field(7)
    z = field.gen()
    for alt in (False, True):
        F = klein_quartic(alt_alpha=alt)
        assert F.is_homogeneous() and F.weighted_degree() == 4
        assert len(F.terms) == 6
    # the default constant is the quadratic Gauss sum; the alternate
    # reading has six distinct conjugates, so it satisfies no quadratic
    a = z + z ** 2 + z ** 4
    assert a * a + a + field.from_int(2) == field.zero()
    alt_a = field.one() + z ** 2 + z ** 4
    conjugates = {tuple((field.one() + z ** (2 * k % 7)
                         + z ** (4 * k % 7)).coeffs) for k in range(1, 7)}
    assert len(conjugates) == 6
    assert alt_a * alt_a + alt_a + field.from_int(2) != field.zero()
    C = classical_klein_quartic()
    assert sorted(C.terms) == [(0, 3, 1), (1, 0, 3), (3, 1, 0)]
    M = quartic_to_classical_matrix()
    assert all(M[i][j] == M[j][i] for i in range(3) for j in range(3))
    assert quartic_to_classical_matrix(True) != M


def test_matrix_conjugation_fails_in_every_reading():
    C = classical_klein_quartic()
    devs = []
    for alt_q in (False, True):
        F = klein_quartic(alt_alpha=alt_q)
        for alt_m in (False, True):
            M = quartic_to_classical_matrix(alt_alpha=alt_m)
            for src, dst in ((F, C), (C, F)):
                out = verify_projective_equivalence(src, dst, M)
                assert isinstance(out, dict)
                assert out["numeric_proportional"] is False
                devs.append(out["max_abs_deviation"])
    assert len(devs) == 8
    assert all(d > 1 for d in devs)
    assert 2.5 < min(devs) < 2.65


# ---------------------------------------------------------------------------
# exact Klein geometry over Q(zeta_7)

def klein_exact():
    """The alpha model F, the classical model's checked generators, and
    F's flexes, bitangents and flex tangents (in flex order), carried
    from the classical model by the matrix P."""
    if "exact" not in _MEMO:
        C, F, P = classical_klein_quartic(), klein_quartic(), \
            klein_model_matrix()
        group = klein_symmetries(C)
        assert not isinstance(verify_projective_equivalence(F, C, P), dict)
        cof = LineP2.moved_by(P)
        flexes = images(P, exact_flexes(C, KLEIN_FLEX, group))
        tangent_at = {_image(P, p): _image(cof, t) for p, t in
                      exact_flex_tangents(C, KLEIN_FLEX, group)}
        _MEMO["exact"] = (F, group, flexes,
                          images(cof, exact_bitangents(C, KLEIN_BITANGENT,
                                                       group)),
                          [tangent_at[p] for p in flexes])
    return _MEMO["exact"]


def nodal_quartic():
    """x^4 + y^4 - x^2 z^2 over Q(zeta_7), with a node at (0 : 0 : 1)."""
    field = cyclotomic_field(7)
    x, y, z = (Polynomial.variable(n, make_table(PLANE_VARS), field)
               for n in PLANE_VARS)
    return x ** 4 + y ** 4 - x ** 2 * z ** 2


def _product(g, h):
    return tuple(tuple(sum((a * b for a, b in zip(row, col)), 0 * row[0])
                       for col in zip(*h)) for row in g)


def test_klein_generators_fix_the_classical_quartic():
    C = classical_klein_quartic()
    S, T, R = klein_symmetries(C)
    assert all(compose_with_matrix(C, g) == C for g in (S, T, R))
    # orders 7, 3 and 2 as exact matrices: S^7 = T^3 = R^2 = 1
    field = C.field
    one = tuple(tuple(field.from_int(int(i == j)) for j in range(3))
                for i in range(3))
    for g, order in ((S, 7), (T, 3), (R, 2)):
        power = g
        for _ in range(order - 1):
            assert power != one
            power = _product(power, g)
        assert power == one
    # P carries the classical model to the alpha model with the stated s
    z = field.gen()
    s = verify_projective_equivalence(klein_quartic(), C,
                                      klein_model_matrix())
    assert s == -96 + 64 * z ** 2 - 16 * z ** 3 - 16 * z ** 4 + 64 * z ** 5
    # the alpha model is not fixed by S
    with pytest.raises(NotInvariant, match="generator S"):
        klein_symmetries(klein_quartic())


def test_klein_orbit_sizes():
    C = classical_klein_quartic()
    group = klein_symmetries(C)
    one = C.field.one()
    flex = PointP2.from_coords(one * c for c in KLEIN_FLEX)
    bitangent = LineP2.from_coords(one * c for c in KLEIN_BITANGENT)
    tangent = LineP2.from_coords(one * c for c in (0, 1, 0))
    assert len(orbit((flex,), group, 100)) == 24
    assert len(orbit((bitangent,), group, 100)) == 28
    pairs = orbit((flex, tangent), group, 100)
    assert len(pairs) == len({t for _, t in pairs}) == 24
    # S and T alone generate a group of order 21; a limit stops the search
    assert len(orbit((flex,), group[:2], 100)) == 3
    assert len(orbit((bitangent,), group[:2], 100)) == 7
    assert 5 < len(orbit((bitangent,), group, 5)) < 28
    # P maps the classical sets onto the alpha model's
    _, _, flexes, bits, _ = klein_exact()
    P = klein_model_matrix()
    assert images(P, [p for p, in orbit((flex,), group, 24)]) == flexes
    assert images(LineP2.moved_by(P),
                  [v for v, in orbit((bitangent,), group, 28)]) == bits


def test_exact_flexes_lie_on_the_curve_and_its_hessian():
    F, _, flexes, _, _ = klein_exact()
    H = hessian_det(F)
    assert len(flexes) == len(set(flexes)) == 24
    for p in flexes:
        assert not quartic._value(F, p) and not quartic._value(H, p)


def test_contact_gcds_of_bitangents_and_flex_tangents():
    F, _, flexes, bits, tangents = klein_exact()
    assert len(bits) == 28 and len(tangents) == len(set(tangents)) == 24
    for line in bits:
        g, _, _ = quartic._contact_gcd(F, line, "test")
        assert g.degree_in("t") == 2
        assert quartic.univariate_gcd(g, g.partial("t"), "t") \
            .degree_in("t") == 0
    for flex, line in zip(flexes, tangents):
        g, p, q = quartic._contact_gcd(F, line, "test")
        c0, c1 = (g.terms.get((e,), F.field.zero()) for e in (0, 1))
        assert g.degree_in("t") == 2 and c1 * c1 == 4 * c0
        r = -c1 / 2
        assert _normalize([a + r * b for a, b in zip(p, q)]) == flex
    # bitangents and flex tangents are different lines
    assert not set(bits) & set(tangents)


def test_non_quartic_inputs_rejected():
    field = cyclotomic_field(7)
    x, y, z = (Polynomial.variable(n, make_table(PLANE_VARS), field)
               for n in PLANE_VARS)
    s = Polynomial.variable("s", make_table(("s", "t")), field)
    group = klein_exact()[1]
    for G, reason in ((x ** 3 + y ** 3 + z ** 3, "homogeneous quartic"),
                      (x ** 4 + y ** 3, "homogeneous quartic"),
                      (s ** 4, "three variables")):
        with pytest.raises(InvalidInput, match=reason):
            exact_flexes(G, KLEIN_FLEX, group)
        with pytest.raises(InvalidInput, match=reason):
            exact_bitangents(G, KLEIN_BITANGENT, group)
        with pytest.raises(InvalidInput, match=reason):
            exact_flex_tangents(G, KLEIN_FLEX, group)


def test_klein_flexes_simple_and_separated():
    F, _, flexes, _, _ = klein_exact()
    H = hessian_det(F)
    grads = [[P.partial(n) for n in PLANE_VARS] for P in (F, H)]
    for p in flexes:
        # F and Hess F cross transversally: their gradients at p are
        # independent, so p is a simple intersection point
        f, h = ([quartic._value(D, p) for D in g] for g in grads)
        assert any(f[i] * h[j] != f[j] * h[i]
                   for i in range(3) for j in range(i + 1, 3))
    pts = [embedded(p) for p in flexes]
    assert len(pts) == 24
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            assert chordal_distance(p, q) > 1e-3


def test_sign_group_permutes_flexes_and_bitangents():
    _, _, flexes, bits, _ = klein_exact()
    pts = [PointP2.from_coords(p) for p in flexes]
    lines = [LineP2.from_coords(v) for v in bits]
    assert [p.coords for p in pts] == flexes
    assert [v.coords for v in lines] == bits
    for h in matrices(h_datum())[1:]:
        perm = induced_permutation(h, pts)
        assert sorted(perm) == list(range(24))
        assert any(perm[i] != i for i in range(24))
        lperm = induced_permutation(h, lines)
        assert sorted(lperm) == list(range(28))
        # the sign changes are diagonal, so each image is the exact
        # flex or bitangent with negated coordinates
        signs = [h[i][i] for i in range(3)]
        for objs, got in ((flexes, perm), (bits, lperm)):
            for i, j in enumerate(got):
                assert _normalize(
                    tuple(s * c for s, c in zip(signs, objs[i]))) == objs[j]


def test_klein_smoothness_certificate_mod_29():
    cert = smoothness_certificate(classical_klein_quartic())
    assert cert.verdict == "Regular"
    assert cert.checked_degrees == [7]
    assert cert.ranks == [{"degree": 7, "rank": 36, "stratum_dim": 36}]
    assert cert.complex.p == 29
    # the alpha model's coefficient 3a is not rational; P carries the
    # classical model's smoothness to it instead
    with pytest.raises(InvalidField, match="is not a rational"):
        smoothness_certificate(klein_quartic())


def test_nodal_quartic_fails_the_smoothness_check():
    F = nodal_quartic()
    assert smoothness_certificate(F).verdict == "NotRegular"
    with pytest.raises(CheckFailed, match="smoothness"):
        exact_flexes(F, KLEIN_FLEX, klein_exact()[1])
    with pytest.raises(CheckFailed, match="smoothness"):
        exact_bitangents(F, KLEIN_BITANGENT, klein_exact()[1])
    # x = 0 meets F only at (0 : 0 : 1), where F(0, y, z) = y^4 vanishes:
    # the chart moves off that point and reads the quadruple contact there
    one, zero = F.field.one(), F.field.zero()
    g, p, q = quartic._contact_gcd(F, (one, zero, zero), "probe")
    assert q == [zero, one, one]
    assert g.degree_in("t") == 3
    r = -g.terms[(2,)] / 3
    assert g == Polynomial(g.table, F.field,
                           {(3,): one, (2,): -3 * r, (1,): 3 * r * r,
                            (0,): -r ** 3})
    assert _normalize([a + r * b for a, b in zip(p, q)]) == \
        (zero, zero, one)
    # a quartic containing the line has no contact points on it
    x = Polynomial.variable("x", F.table, F.field)
    with pytest.raises(CheckFailed, match="probe: F vanishes on the line"):
        quartic._contact_gcd(x * F.partial("x"), (one, zero, zero), "probe")


def test_moved_seeds_fail_their_named_check():
    C, group = classical_klein_quartic(), klein_exact()[1]
    # (1 : 1 : 0) is off the curve; S and T alone leave orbits too small
    with pytest.raises(CheckFailed, match="F = Hess F = 0 fails at the seed"):
        exact_flexes(C, (1, 1, 0), group)
    with pytest.raises(CheckFailed, match="flex orbit: 3 found, need 24"):
        exact_flexes(C, KLEIN_FLEX, group[:2])
    with pytest.raises(CheckFailed, match="bitangent orbit: 7 found"):
        exact_bitangents(C, KLEIN_BITANGENT, group[:2])
    with pytest.raises(CheckFailed, match="flex tangent orbit: 3 found"):
        exact_flex_tangents(C, KLEIN_FLEX, group[:2])
    # y = 0, the flex tangent at (1 : 0 : 0), is no bitangent
    with pytest.raises(CheckFailed, match="bitangent contact"):
        exact_bitangents(C, (0, 1, 0), group)
    with pytest.raises(CheckFailed, match="flex tangent contact"):
        exact_flex_tangents(C, (1, 1, 0), group)


# ---------------------------------------------------------------------------
# the Fermat quartic over Q(zeta_8): twelve hyperflexes

def fermat_quartic():
    """x^4 + y^4 + z^4 over Q(e), e^4 = -1, where its flexes are defined."""
    field = NumberField([1, 0, 0, 0, 1], name="e")
    x, y, z = (Polynomial.variable(n, make_table(PLANE_VARS), field)
               for n in PLANE_VARS)
    return x ** 4 + y ** 4 + z ** 4


def fermat_flexes(field):
    """(0 : r : 1), (r : 0 : 1) and (r : 1 : 0) for the four roots r^4 = -1."""
    zero, one = field.zero(), field.one()
    return [v for r in (field.gen() ** k for k in (1, 3, 5, 7))
            for v in ((zero, r, one), (r, zero, one), (r, one, zero))]


def _gradient_line(F, p):
    return _normalize(tuple(quartic._value(F.partial(n), p)
                                    for n in PLANE_VARS))


def test_fermat_flexes_are_twelve_hyperflexes():
    F = fermat_quartic()
    x, y, z = (Polynomial.variable(n, F.table, F.field) for n in PLANE_VARS)
    H = hessian_det(F)
    # Hess F = 12^3 (xyz)^2, so F and Hess F meet only on the coordinate
    # lines, where F = 0 leaves r^4 = -1: 3 * 4 points
    assert H == 1728 * (x * y * z) ** 2
    flexes = fermat_flexes(F.field)
    assert len({_normalize(p) for p in flexes}) == 12
    line_table = make_table(("t",))
    total = 0
    for p in flexes:
        assert not quartic._value(F, p) and not quartic._value(H, p)
        # F crosses the coordinate line x_m = 0 through p transversally,
        # so F meets (x_m)^2, and with it Hess F, with multiplicity 2
        line = _gradient_line(F, p)
        m = p.index(F.field.zero())
        assert any(line[i] for i in range(3) if i != m)
        total += 2
        # contact order 4: along the tangent, F(p + t q) = c t^4
        a, b, c = line
        q = (b * p[2] - c * p[1], c * p[0] - a * p[2], a * p[1] - b * p[0])
        f = substitute(F, {
            n: Polynomial(line_table, F.field, {(0,): u, (1,): v})
            for n, u, v in zip(PLANE_VARS, p, q)})
        assert list(f.terms) == [(4,)]
    # the 24 of Bezout (4 * 6), so these are all the flexes
    assert total == 24


def test_fermat_scan_needs_coordinate_change():
    # _contact_gcd reads each line in the chart p + t q; on the Fermat
    # quartic four hyperflex tangents touch at the first choice of q, so
    # the chart moves q along the line until F(q) != 0
    F = fermat_quartic()
    flexes = fermat_flexes(F.field)
    outside = 0
    for p in flexes:
        line = _gradient_line(F, p)
        g, p0, q = quartic._contact_gcd(F, line, "probe")
        # q starts on the coordinate line x_i = 0, i the first index
        # other than that of the line's last nonzero entry
        i = min(m for m in range(3) if m != max(n for n in range(3)
                                                 if line[n]))
        outside += bool(q[i])
        # gcd(f, f') = (t - r)^3: contact of order 4 at the flex
        assert g.degree_in("t") == 3
        r = -g.terms.get((2,), F.field.zero()) / 3
        assert _normalize([a + r * b for a, b in zip(p0, q)]) == \
            _normalize(p)
    assert outside == 4
    # the flex-tangent check wants triple contact at a simple flex
    zero, one, r = F.field.zero(), F.field.one(), F.field.gen()
    for flex in ((zero, r, one), (r, zero, one)):
        with pytest.raises(CheckFailed, match="square of a linear factor"):
            exact_flex_tangents(F, flex, ())


def test_value_matches_term_by_term_evaluation():
    F = klein_quartic()
    field = F.field
    z, zero = field.gen(), field.zero()
    rng = random.Random(7)
    for P in (F, hessian_det(F), F.partial("x")):
        for _ in range(10):
            point = tuple(zero if rng.random() < 0.3 else
                          rng.randrange(-3, 4) + z ** rng.randrange(7)
                          for _ in range(3))
            want = zero
            for e, c in P.terms.items():
                for x, k in zip(point, e):
                    c = c * x ** k
                want = want + c
            assert quartic._value(P, point) == want

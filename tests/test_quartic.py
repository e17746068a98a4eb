import random
from fractions import Fraction

import numpy as np
import pytest

from enumtc.errors import (
    AmbiguousClassification,
    CheckFailed,
    InvalidInput,
    NotInvariant,
    NumericFailure,
)
from enumtc.fields import QQ, cyclotomic_field
from enumtc.geometry import (
    compose_with_matrix,
    h_group_matrices,
    induced_permutation,
    verify_projective_equivalence,
)
from enumtc.numroots import aberth_roots, chordal_distance, polyeig
from enumtc import quartic
from enumtc.poly import CHARTS, Polynomial, hessian_det, make_table
from enumtc.quartic import (
    PLANE_VARS,
    bitangent_scan,
    classical_klein_quartic,
    embedded,
    exact_bitangents,
    exact_flex_tangents,
    exact_flexes,
    flex_points,
    klein_bitangent_seeds,
    klein_flex_seed,
    klein_quartic,
    quartic_to_classical_matrix,
    signed_permutation_symmetries,
    smoothness_certificate,
)

np.seterr(all="ignore")

_MEMO = {}


def klein_flexes():
    if "flex" not in _MEMO:
        _MEMO["flex"] = flex_points(klein_quartic())
    return _MEMO["flex"]


def klein_scan():
    if "scan" not in _MEMO:
        _MEMO["scan"] = bitangent_scan(klein_quartic())
    return _MEMO["scan"]


def fermat_quartic():
    t = make_table(PLANE_VARS)
    x, y, z = (Polynomial.variable(n, t, QQ) for n in PLANE_VARS)
    return x ** 4 + y ** 4 + z ** 4


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


def test_non_quartic_inputs_rejected():
    t = make_table(PLANE_VARS)
    x, y, z = (Polynomial.variable(n, t, QQ) for n in PLANE_VARS)
    with pytest.raises(InvalidInput):
        flex_points(x ** 3 + y ** 3 + z ** 3)
    with pytest.raises(InvalidInput):
        bitangent_scan(x ** 4 + y ** 3)
    t2 = make_table(("s", "t"))
    s = Polynomial.variable("s", t2, QQ)
    with pytest.raises(InvalidInput):
        flex_points(s ** 4)


def test_klein_flexes_simple_and_separated():
    pts = klein_flexes()
    assert len(pts) == 24
    assert all(p.multiplicity == 1 for p in pts)
    assert max(p.residual for p in pts) < 1e-8
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            assert chordal_distance(p.coords, q.coords) > 1e-3


def test_fermat_flexes_are_twelve_hyperflexes():
    pts = flex_points(fermat_quartic())
    assert len(pts) == 12
    assert all(p.multiplicity == 2 for p in pts)
    assert sum(p.multiplicity for p in pts) == 24


def test_klein_scan_counts_kinds_and_flex_match():
    scan = klein_scan()
    assert len(scan.bitangents) == 28
    assert len(scan.flex_tangents) == 24
    assert scan.coordinate_change is None
    for t in scan.bitangents:
        assert t.kind == "bitangent"
        assert len(t.tangencies) == 2
        assert t.residual < 1e-6
    flexes = klein_flexes()
    for t in scan.flex_tangents:
        assert t.kind == "flex"
        (tp,) = t.tangencies
        assert min(chordal_distance(tp.coords, f.coords)
                   for f in flexes) < 1e-6
    lines = [t.line for t in scan.bitangents]
    for i, a in enumerate(lines):
        for b in lines[i + 1:]:
            assert chordal_distance(a.coords, b.coords) > scan.dedup_radius


def test_fermat_scan_needs_coordinate_change():
    scan = bitangent_scan(fermat_quartic())
    assert scan.coordinate_change is not None
    bits, flt = scan.bitangents, scan.flex_tangents
    hyper = [t for t in flt if t.kind == "hyperflex"]
    assert len(bits) == 16
    assert len(hyper) == 12 and len(flt) == 12
    # classical counts with multiplicity
    assert len(bits) + len(hyper) == 28
    assert sum(1 for t in flt if t.kind == "flex") + 2 * len(hyper) == 24
    for t in hyper:
        (tp,) = t.tangencies
        assert tp.multiplicity == 2
    # the hyperflex tangency points are the flexes of the curve
    pts = flex_points(fermat_quartic())
    for t in hyper:
        d = min(chordal_distance(t.tangencies[0].coords, p.coords)
                for p in pts)
        assert d < 1e-6


def scalar_candidates(fit):
    # The per-eigenvalue loop _ChartFit.candidates replaced, kept as its
    # reference: one root solve per eigenvalue, double sums for the S1 cut.
    G0, G1 = fit.G0, fit.G1
    da0, db0 = G0.shape[0] - 1, G0.shape[1] - 1
    da1, db1 = G1.shape[0] - 1, G1.shape[1] - 1
    size = db0 + db1
    mats = [np.zeros((size, size), dtype=complex)
            for _ in range(max(da0, da1) + 1)]
    for r in range(db1):
        for j in range(db0 + 1):
            for k in range(da0 + 1):
                mats[k][r, r + j] += G0[k, db0 - j]
    for r in range(db0):
        for j in range(db1 + 1):
            for k in range(da1 + 1):
                mats[k][db1 + r, r + j] += G1[k, db1 - j]
    out = []
    for a0 in polyeig(mats):
        if abs(a0) > 1e8:
            continue
        c0 = [sum(G0[k, j] * a0 ** k for k in range(da0 + 1))
              for j in range(db0 + 1)]
        scale0 = max(abs(v) for v in c0)
        if scale0 < 1e-12:
            continue
        (bs,), (ok,) = aberth_roots([[v / scale0 for v in c0]])
        if not ok:
            continue
        for b0 in bs:
            if abs(b0) > 1e8:
                continue
            v1 = sum(G1[k, j] * a0 ** k * b0 ** j
                     for k in range(da1 + 1) for j in range(db1 + 1))
            br = max(1.0, abs(b0))
            s1scale = sum(abs(G1[k, j]) * abs(a0) ** k * br ** j
                          for k in range(da1 + 1) for j in range(db1 + 1))
            if abs(v1) <= 1e-4 * max(s1scale, 1e-30):
                out.append((a0, b0))
    return out


def test_candidates_match_scalar_reference():
    F = klein_quartic()
    fit = quartic._ChartFit(F, CHARTS[0], quartic._embed_root(F.field))
    got, ref = fit.candidates(1e-10), scalar_candidates(fit)
    assert len(got) == len(ref) == 840
    # Each b is a double root of S0(a, .), a node of the dual curve, so
    # rounding S0(a, .) differently moves it by about sqrt(eps) = 1.5e-8.
    for pair, ref_pair in zip(got, ref):
        for v, w in zip(pair, ref_pair):
            assert abs(v - w) <= 1e-7 * max(1.0, abs(w))


def test_sign_group_permutes_flexes_and_bitangents():
    pts = list(klein_flexes())
    lines = [t.line for t in klein_scan().bitangents]
    for h in h_group_matrices()[1:]:
        perm = induced_permutation(h, pts, tol=1e-6)
        assert sorted(perm) == list(range(24))
        assert any(perm[i] != i for i in range(24))
        lperm = induced_permutation(h, lines, tol=1e-6)
        assert sorted(lperm) == list(range(28))


def test_fractional_flex_multiplicities_are_never_truncated(monkeypatch):
    # Two lifts of one root cluster that fail to merge carry 1/2 each.
    # The multiplicities still sum to 24, but int(1/2) would report a
    # multiplicity-0 flex, so every coordinate attempt must be rejected.
    F = klein_quartic()
    (p, res, _), *rest = quartic._flex_core(F, 1e-10,
                                            quartic._embed_root(F.field))
    apart = tuple(c + 0.5 for c in p)
    split = [(p, res, Fraction(1, 2)), (apart, res, Fraction(1, 2))] + rest
    calls = []
    monkeypatch.setattr(quartic, "_flex_core",
                        lambda G, tol, root: calls.append(G) or split)
    with pytest.raises(NumericFailure, match="positive integers"):
        flex_points(F)
    assert len(calls) == quartic.MAX_ATTEMPTS


def test_flex_retry_survives_a_failing_attempt(monkeypatch):
    # Attempt 0 loses one flex, so it is rejected.  On the Klein quartic
    # the mapped-back refinement of attempt 1 stalls; that failure must
    # end attempt 1 only.
    real = quartic._flex_core
    calls = []

    def drop_one_first(G, tol, root):
        calls.append(G)
        pts = real(G, tol, root)
        return pts[1:] if len(calls) == 1 else pts

    monkeypatch.setattr(quartic, "_flex_core", drop_one_first)
    try:
        flex_points(klein_quartic())
    except NumericFailure as exc:
        assert all("attempt %d: " % k in str(exc)
                   for k in range(quartic.MAX_ATTEMPTS))
    assert len(calls) >= 3


def test_ambiguous_contact_ends_only_its_attempt(monkeypatch):
    # Every fit is classified ambiguous.  The scan must go on to the next
    # coordinate attempt and name each attempt's reason at the end.  Two
    # attempts, the second in identity "random" coordinates, keep it short.
    fits_reached = set()

    def ambiguous(self, is_flex, z, res, tol):
        fits_reached.add(id(self))
        raise AmbiguousClassification("contact discriminant in the dead zone")

    def identity(field, attempt):
        return tuple(tuple(field.from_int(int(i == j)) for j in range(3))
                     for i in range(3))

    monkeypatch.setattr(quartic._ChartFit, "_tangent_line", ambiguous)
    monkeypatch.setattr(quartic, "_random_change", identity)
    monkeypatch.setattr(quartic, "MAX_ATTEMPTS", 2)
    with pytest.raises(NumericFailure) as err:
        bitangent_scan(klein_quartic())
    for k in range(2):
        assert "attempt %d: contact discriminant" % k in str(err.value)
    assert len(fits_reached) == 2


def test_matrix_conjugation_fails_in_every_reading():
    C = classical_klein_quartic()
    devs = []
    for alt_q in (False, True):
        F = klein_quartic(alt_alpha=alt_q)
        for alt_m in (False, True):
            M = quartic_to_classical_matrix(alt_alpha=alt_m)
            for src, dst in ((F, C), (C, F)):
                out = verify_projective_equivalence(src, dst, M,
                                                    root_index=5)
                assert isinstance(out, dict)
                assert out["exact"] is False
                assert out["numeric_proportional"] is False
                devs.append(out["max_abs_deviation"])
    assert len(devs) == 8
    assert all(d > 1 for d in devs)
    assert 2.5 < min(devs) < 2.65


def test_flex_retry_is_seeded_and_stable():
    rng_runs = []
    for _ in range(2):
        pts = flex_points(fermat_quartic())
        rng_runs.append(tuple(p.coords for p in pts))
    assert rng_runs[0] == rng_runs[1]
    assert random.Random(40427).randrange(100) == \
        random.Random(40427).randrange(100)


# ---------------------------------------------------------------------------
# exact Klein geometry over Q(zeta_7)

def klein_exact():
    if "exact" not in _MEMO:
        F = klein_quartic()
        group = signed_permutation_symmetries(F)
        flexes = exact_flexes(F, klein_flex_seed(), group)
        _MEMO["exact"] = (F, group, flexes,
                          exact_bitangents(F, klein_bitangent_seeds(), group),
                          exact_flex_tangents(F, flexes))
    return _MEMO["exact"]


def nodal_quartic(shift: int = 0):
    """x^4 + y^4 - x^2 z^2 at x - zeta^shift z, over Q(zeta_7).

    The node sits at (0 : 0 : 1) for shift 0, else at (zeta^shift : 0 : 1).
    """
    field = cyclotomic_field(7)
    x, y, z = (Polynomial.variable(n, make_table(PLANE_VARS), field)
               for n in PLANE_VARS)
    if shift:
        x = x - z * field.gen() ** shift
    return x ** 4 + y ** 4 - x ** 2 * z ** 2


def test_every_signed_permutation_fixes_the_klein_quartic():
    F, group = klein_quartic(), klein_exact()[1]
    assert len(group) == len(set(group)) == 48
    assert all(compose_with_matrix(F, g) == F for g in group)
    # g and -g are one projective map
    assert len({frozenset((g, tuple(tuple(-c for c in r) for r in g)))
                for g in group}) == 24
    # the classical model has no sign symmetry
    with pytest.raises(NotInvariant):
        signed_permutation_symmetries(classical_klein_quartic())


def test_klein_orbit_sizes():
    group = klein_exact()[1]
    assert len(quartic._orbit(klein_flex_seed(), group)) == 24
    orbits = [quartic._orbit(s, group, covector=True)
              for s in klein_bitangent_seeds()]
    assert [len(o) for o in orbits] == [4, 12, 12]
    assert len({v for o in orbits for v in o}) == 28


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
        assert quartic._normalize([a + r * b for a, b in zip(p, q)]) == flex
    # bitangents and flex tangents are different lines
    assert not set(bits) & set(tangents)


def test_klein_smoothness_certificate_mod_29():
    for F in (klein_quartic(), classical_klein_quartic()):
        cert = smoothness_certificate(F)
        assert cert.verdict == "Regular"
        assert cert.checked_degrees == [7]
        assert cert.ranks == [{"degree": 7, "rank": 36, "stratum_dim": 36}]
        assert cert.elements[0].field.p == 29


def test_nodal_quartic_fails_the_smoothness_check():
    F = nodal_quartic()
    assert smoothness_certificate(F).verdict == "NotRegular"
    # a node at a point with zeta coordinates survives only a reduction
    # that sends zeta to a root of its minpoly mod 29
    for shift in (1, 3):
        assert smoothness_certificate(nodal_quartic(shift)).verdict == \
            "NotRegular"
    with pytest.raises(CheckFailed, match="smoothness"):
        exact_flexes(F, klein_flex_seed(), klein_exact()[1])
    with pytest.raises(CheckFailed, match="smoothness"):
        exact_bitangents(F, klein_bitangent_seeds(), klein_exact()[1])
    # x = 0 meets F only at (0 : 0 : 1), the spanning point q of the chart
    one, zero = F.field.one(), F.field.zero()
    with pytest.raises(CheckFailed, match="degree 0, need 4"):
        quartic._contact_gcd(F, (one, zero, zero), "probe")


def test_moved_seeds_fail_their_named_check():
    F, group, flexes, bits, tangents = klein_exact()
    one = F.field.one()
    seed = klein_flex_seed()
    with pytest.raises(CheckFailed, match="flex equations"):
        exact_flexes(F, (seed[0] + one, seed[1], seed[2]), group)
    with pytest.raises(CheckFailed, match="flex orbit"):
        exact_flexes(F, (one, one, one), group)
    s0, s1, s2 = klein_bitangent_seeds()
    with pytest.raises(CheckFailed, match="bitangent orbits"):
        exact_bitangents(F, (s0, s1), group)
    # 28 distinct lines, one of them a flex tangent (group[0] is 1)
    with pytest.raises(CheckFailed, match="bitangent contact"):
        exact_bitangents(F, bits[:27] + tangents[:1], group[:1])
    with pytest.raises(CheckFailed, match="flex tangent contact"):
        exact_flex_tangents(F, [(seed[0] + one, seed[1], seed[2])])


def test_exact_objects_match_the_numeric_layer():
    _, _, flexes, bits, tangents = klein_exact()
    numeric_flexes = [p.coords for p in klein_flexes()]
    scan = klein_scan()
    numeric_bits = [t.line.coords for t in scan.bitangents]
    numeric_tangents = [t.line.coords for t in scan.flex_tangents]
    for exact, numeric in ((flexes, numeric_flexes), (bits, numeric_bits),
                           (tangents, numeric_tangents)):
        assert len(exact) == len(numeric)
        matched = set()
        for v in exact:
            d = [chordal_distance(embedded(v), w) for w in numeric]
            j = min(range(len(d)), key=d.__getitem__)
            assert d[j] < 1e-8
            matched.add(j)
        assert len(matched) == len(numeric)

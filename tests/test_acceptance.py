"""Acceptance gate: twelve criteria, one printed pass/fail line each.

Time budgets are wall-clock seconds around a cold computation of the
named artifact; tolerances are stated inline.  Run with -s (or read the
captured stdout of a failure) to see the lines.
"""

import random
from fractions import Fraction
from time import perf_counter

from enumtc.fields import QQ, PrimeField, cyclotomic_field
from enumtc.geometry import (
    LineP2,
    PointP2,
    _image,
    common_fixed_check,
    embedded,
    fermat_cubic,
    fermat_lines,
    images,
    line_on_surface,
    make_group_action,
    verify_projective_equivalence,
)
from enumtc.claims import genus_bounds, run_claims, tc_lower
from enumtc.koszul import (
    GradedSequence,
    KoszulComplex,
    em_poincare,
    is_regular_maximal,
    permuted_regularity,
    tor_concentration_check,
)
from enumtc.nabla import make_context, nabla, stated_image_generators, \
    verify_generators
from enumtc.numroots import chordal_distance
from enumtc.poly import (
    Polynomial,
    SpecializationMap,
    hessian_det,
    make_table,
    resultant,
    substitute,
    univariate_gcd,
)
from enumtc.quartic import (
    KLEIN_BITANGENT,
    KLEIN_FLEX,
    classical_klein_quartic,
    exact_bitangents,
    exact_flex_tangents,
    exact_flexes,
    klein_model_matrix,
    klein_quartic,
    klein_symmetries,
)
from enumtc.restriction import h_datum, k_datum, phi_star_generators

_MEMO = {}


def _criterion(n: int, ok: bool, detail: str):
    line = f"criterion {n:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _get(key, build):
    if key not in _MEMO:
        _MEMO[key] = build()
    return _MEMO[key]


def seq_k():
    return _get("seq_k",
                lambda: GradedSequence(tuple(phi_star_generators(k_datum()))))


def seq_h():
    return _get("seq_h",
                lambda: GradedSequence(tuple(phi_star_generators(h_datum()))))


def klein_flexes():
    """The alpha-model Klein quartic F, the classical model C with its
    checked generators and the checked matrix P with F(P y) = s C(y), and
    F's exact flexes."""
    def build():
        C, F, P = classical_klein_quartic(), klein_quartic(), \
            klein_model_matrix()
        group = klein_symmetries(C)
        assert not isinstance(verify_projective_equivalence(F, C, P), dict)
        return F, (C, group, P), images(P, exact_flexes(C, KLEIN_FLEX, group))
    return _get("flexes", build)


def _value_at(P, point):
    """P at an exact point, term by term."""
    total = P.field.zero()
    for e, c in P.terms.items():
        for x, k in zip(point, e):
            if k:
                c = c * x ** k
        total = total + c
    return total


def test_criterion_01_regseq_pu4k():
    t0 = perf_counter()
    cert = is_regular_maximal(seq_k())
    dt = perf_counter() - t0
    at14 = next(r for r in cert.ranks if r["degree"] == 14)
    full = at14["rank"] == at14["stratum_dim"]
    ok = cert.verdict == "Regular" and full and dt < 10
    _criterion(1, ok, f"verdict {cert.verdict}, degree-14 rank "
                      f"{at14['rank']}/{at14['stratum_dim']}, {dt:.2f}s")


def test_criterion_02_regseq_pu3h_and_permutations():
    t0 = perf_counter()
    cert = is_regular_maximal(seq_h())
    dt = perf_counter() - t0
    assert seq_h().degrees() == (4, 6)
    at9 = next(r for r in cert.ranks if r["degree"] == 9)
    rows = permuted_regularity(seq_h()) + permuted_regularity(seq_k())
    perms_ok = all(r["verdict"] == "Regular" for r in rows)
    ok = (cert.verdict == "Regular" and at9["rank"] == at9["stratum_dim"]
          and dt < 1 and perms_ok)
    _criterion(2, ok, f"verdict {cert.verdict} in {dt:.3f}s, "
                      f"{len(rows)} orderings all regular: {perms_ok}")


def test_criterion_03_em_poincare_pu3h():
    series = em_poincare(is_regular_maximal(seq_h()), 0)
    expected = [1, 2, 3, 4, 4, 4, 3, 2, 1]
    ok = (series.coeffs == expected and series.top_degree() == 8
          and series.total() == 24 and series.is_palindromic()
          and series.alternating_sum() == 0)
    _criterion(3, ok, f"series {tuple(series.coeffs)}, total "
                      f"{series.total()}")


def test_criterion_04_em_poincare_pu4k():
    t0 = perf_counter()
    series = em_poincare(is_regular_maximal(seq_k()), 3)
    dt = perf_counter() - t0
    ok = (series.top_degree() == 15 and series.total() == 192
          and series.is_palindromic() and series.alternating_sum() == 0
          and dt < 30)
    _criterion(4, ok, f"top degree {series.top_degree()}, total "
                      f"{series.total()}, {dt:.2f}s")


def test_criterion_05_genus_and_tc_assembly():
    g_line = genus_bounds(em_poincare(is_regular_maximal(seq_k()), 3), 15,
                          True)
    g_quartic = genus_bounds(em_poincare(is_regular_maximal(seq_h()), 0), 8,
                             True)
    tc = (tc_lower(g_line[0]), tc_lower(g_quartic[0]),
          tc_lower(g_quartic[0]))
    ok = g_line == (16, 16) and g_quartic == (9, 9) and tc == (15, 8, 8)
    _criterion(5, ok, f"genus windows {g_line} and {g_quartic}, "
                      f"TC lower bounds {tc}")


def test_criterion_06_nabla_generators():
    t0 = perf_counter()
    results = []
    for n, primes in ((3, (2, 5, 7)), (4, (3, 5, 7))):
        ctx, gens = stated_image_generators(n, QQ)
        integral = all(c.denominator == 1
                       for g in gens for c in g.terms.values())
        results.append(integral)
        tables = verify_generators(ctx, gens, 12, primes)
        results.append([t["p"] for t in tables] == [None, *primes])
        results.extend(all(r["status"].startswith("ok") for r in t["rows"])
                       for t in tables)
    dt = perf_counter() - t0
    ok = all(results) and dt < 60
    _criterion(6, ok, f"{len(results)} field checks clean, {dt:.2f}s")


def test_criterion_07_fermat_lines_and_witness():
    t0 = perf_counter()
    lines = fermat_lines()
    cubic = fermat_cubic(cyclotomic_field(3))
    exact = (len(lines) == 27
             and len({ln.coords for ln in lines}) == 27
             and all(line_on_surface(ln, cubic) for ln in lines))
    action = make_group_action(k_datum().generator_matrices(), 3, lines)
    ident = tuple(range(27))
    kernel_trivial = [i for i, p in enumerate(action.permutations)
                      if p == ident] == [0]
    F = cyclotomic_field(3)
    one, zero = F.one(), F.zero()
    from enumtc.geometry import Line3D
    witness = Line3D.from_forms(((one, one, zero, zero),
                                 (zero, zero, one, one)))
    wi = next(i for i, ln in enumerate(lines) if ln.coords == witness.coords)
    moved_by = sum(1 for p in action.permutations[1:] if p[wi] != wi)
    dt = perf_counter() - t0
    ok = exact and kernel_trivial and moved_by == 26 and dt < 5
    _criterion(7, ok, f"27 exact lines: {exact}, kernel trivial: "
                      f"{kernel_trivial}, witness moved by {moved_by}/26 "
                      f"(every line has an order-3 diagonal stabilizer), "
                      f"{dt:.2f}s")


def test_criterion_08_klein_flexes():
    t0 = perf_counter()
    F, _, flexes = klein_flexes()
    dt = perf_counter() - t0
    H = hessian_det(F)
    on_both = all(not _value_at(F, p) and not _value_at(H, p)
                  for p in flexes)
    pts = [PointP2.from_coords(p) for p in flexes]
    emb = [embedded(p.coords) for p in pts]
    distinct = all(chordal_distance(emb[i], q) > 1e-6
                   for i in range(len(emb)) for q in emb[i + 1:])
    action = make_group_action(h_datum().generator_matrices(), 2, pts)
    check = common_fixed_check(action)
    moves = all(r["moved"] >= 1 and r["min_displacement"] > 1e-3
                for r in check["rows"])
    ok = len(pts) == 24 and distinct and on_both and moves and dt < 30
    _criterion(8, ok, f"{len(pts)} flexes, F = Hess F = 0 exactly at "
                      f"each: {on_both}, all sign changes move one by "
                      f"> 1e-3: {moves}, {dt:.2f}s")


def test_criterion_09_klein_bitangents():
    F, (C, group, P), flexes = klein_flexes()
    t0 = perf_counter()
    cof = LineP2.moved_by(P)
    bits = images(cof, exact_bitangents(C, KLEIN_BITANGENT, group))
    tangent_at = {_image(P, p): _image(cof, t) for p, t in
                  exact_flex_tangents(C, KLEIN_FLEX, group)}
    tangents = [tangent_at[p] for p in flexes]
    dt = perf_counter() - t0
    lines = [LineP2.from_coords(v) for v in bits]
    emb = [embedded(v.coords) for v in lines]
    distinct = all(chordal_distance(a, b) > 1e-6
                   for i, a in enumerate(emb) for b in emb[i + 1:])
    zero = F.field.zero()
    meets = all(t[0] * p[0] + t[1] * p[1] + t[2] * p[2] == zero
                for t, p in zip(tangents, flexes))
    action = make_group_action(h_datum().generator_matrices(), 2, lines)
    check = common_fixed_check(action)
    moves = all(r["moved"] >= 1 for r in check["rows"])
    ok = (len(bits) == 28 and distinct and len(tangents) == 24 and meets
          and moves and dt < 120)
    _criterion(9, ok, f"{len(bits)} bitangents (contact gcds checked "
                      f"exactly), {len(tangents)} flex tangents meeting "
                      f"their flexes: {meets}, {dt:.2f}s")


def test_criterion_10_tor_concentration():
    t0 = perf_counter()
    rep_k = tor_concentration_check(seq_k(), 20)
    rep_h = tor_concentration_check(seq_h(), 14)
    dt = perf_counter() - t0
    regular = (is_regular_maximal(seq_k()).verdict == "Regular"
               and is_regular_maximal(seq_h()).verdict == "Regular")
    ok = rep_k["ok"] and rep_h["ok"] and regular and dt < 60
    _criterion(10, ok, f"no higher homology through degree 20/14, "
                       f"certificates agree: {regular}, {dt:.2f}s")


def _random_poly(rng, table, field, max_exp, terms, span):
    p = Polynomial.zero(table, field)
    for _ in range(terms):
        e = tuple(rng.randrange(max_exp) for _ in range(len(table)))
        p = p + Polynomial.monomial(e, field.from_int(rng.randrange(*span)),
                                    table, field)
    return p


def _top_part(p):
    d = p.weighted_degree()
    return Polynomial(p.table, p.field,
                      {e: c for e, c in p.terms.items()
                       if p.table.weighted_degree(e) == d})


def test_criterion_11_property_suites():
    rng = random.Random(271828)
    F7 = PrimeField(7)

    # d after d vanishes on random Koszul complexes
    dd_checked = 0
    t2 = make_table(("x", "y"))
    while dd_checked < 100:
        f = _random_poly(rng, t2, F7, 3, 3, (0, 7))
        g = _random_poly(rng, t2, F7, 3, 3, (0, 7))
        fh = [_top_part(p) for p in (f, g)
              if p and p.weighted_degree() > 0]
        if len(fh) != 2:
            continue
        K = KoszulComplex(GradedSequence(tuple(fh)))
        t = rng.randrange(2, 8)
        rows1, src1, _ = K.boundary_matrix(1, t)
        rows2, src2, mid = K.boundary_matrix(2, t)
        if not src1 or not src2:
            continue
        # one int row per source: d_1 d_2 = 0 reads rows2 rows1 = 0 mod 7
        assert mid == src1
        assert all(sum(a * b for a, b in zip(row, col)) % 7 == 0
                   for row in rows2 for col in zip(*rows1))
        dd_checked += 1

    # Leibniz rule for the derivation
    ctx = make_context(3, QQ)
    for _ in range(100):
        f = _random_poly(rng, ctx.table, QQ, 3, 3, (-4, 5))
        g = _random_poly(rng, ctx.table, QQ, 3, 3, (-4, 5))
        assert nabla(f * g, ctx) == nabla(f, ctx) * g + f * nabla(g, ctx)

    # substitution is a ring map
    xyz = make_table(("x", "y", "z"))
    uv = make_table(("u", "v"))
    u = Polynomial.variable("u", uv, QQ)
    v = Polynomial.variable("v", uv, QQ)
    smap = SpecializationMap({"x": u + v, "y": u * v, "z": u - v})
    for _ in range(100):
        f = _random_poly(rng, xyz, QQ, 3, 4, (-4, 5))
        g = _random_poly(rng, xyz, QQ, 3, 4, (-4, 5))
        assert substitute(f * g, smap) == \
            substitute(f, smap) * substitute(g, smap)

    # resultant vanishes exactly when the gcd is nonconstant
    tx = make_table(("x",))
    res_checked = 0
    while res_checked < 100:
        f = _random_poly(rng, tx, F7, 5, 4, (0, 7))
        g = _random_poly(rng, tx, F7, 4, 3, (0, 7))
        if f.degree_in("x") < 1 or g.degree_in("x") < 1:
            continue
        r = resultant(f, g, "x")
        common = univariate_gcd(f, g, "x").degree_in("x") >= 1
        assert (not r) == common
        res_checked += 1

    _criterion(11, True, "d after d, Leibniz, substitution, and "
                         "resultant/gcd suites: 100 instances each, zero "
                         "failures")


def test_criterion_12_equivalence_verdict_is_definite():
    first = run_claims(["klein-equivalence"])
    second = run_claims(["klein-equivalence"])
    rec = first.claim("klein-equivalence")
    definite = rec.status in ("verified", "failed")
    combos = rec.evidence["interpretations"]
    complete = (len(combos) == 8
                and all("max_abs_deviation" in row or "scale" in row
                        for row in combos)
                and rec.evidence["numeric_tol"] == 1e-8)
    deterministic = first.canonical_json() == second.canonical_json()
    ok = definite and complete and deterministic
    _criterion(12, ok, f"status {rec.status}, 8 interpretations recorded, "
                       f"min deviation "
                       f"{rec.evidence['min_max_abs_deviation']}, "
                       f"deterministic: {deterministic}")

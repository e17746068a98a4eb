"""Flexes and bitangents of smooth plane quartics.

Everything stays exact until a single one-parameter solve per chart:
flexes come from Res_x(F, Hess F), a degree-24 binary form in (y, z);
bitangent candidates from the subresultant system psc0 = psc1 = 0 of
the restricted quartic and its t-derivative, eliminated through a
Sylvester matrix pencil in one chart variable.  Numerics are confined
to root extraction and damped Newton refinement against the exact
(embedded) systems.  Completeness is certified by the classical counts
for a smooth quartic -- 28 lines with double contact and inflection
multiplicities summing to 24 -- retrying in recorded random coordinates
when a special position hides solutions from every chart.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    AmbiguousClassification,
    DegenerateCoordinates,
    InvalidInput,
    NumericFailure,
)
from .fields import cyclotomic_field, nf_embed_complex
from .geometry import LineP2, PointP2, compose_with_matrix
from .numroots import (
    aberth_roots,
    cluster_points,
    damped_newton,
    normalize_projective,
    polyeig,
    projective_binary_roots,
)
from .poly import (
    CHARTS,
    Polynomial,
    hessian_det,
    make_table,
    principal_subresultant,
    quartic_discriminant,
    restrict_to_line,
    resultant,
    univariate_coeffs,
)

PLANE_VARS = ("x", "y", "z")

# seed base for the recorded random coordinate changes; attempt k uses
# seed RETRY_SEED + k so reruns are reproducible
RETRY_SEED = 40427
MAX_ATTEMPTS = 4


# ---------------------------------------------------------------------------
# the two models of the Klein quartic and the candidate conjugating matrix

def klein_quartic(alt_alpha: bool = False) -> Polynomial:
    """x^4+y^4+z^4 + 3a(x^2y^2+y^2z^2+z^2x^2) over Q(zeta_7).

    a = zeta+zeta^2+zeta^4 = (-1+sqrt(-7))/2, a root of a^2+a+2.  With
    alt_alpha the constant is 1+zeta^2+zeta^4, which is not quadratic
    over Q at all (six distinct conjugates), so only the default can
    match the sqrt(-7) description.
    """
    field = cyclotomic_field(7)
    table = make_table(PLANE_VARS)
    z = field.gen()
    a = (field.one() if alt_alpha else z) + z ** 2 + z ** 4
    x, y, w = (Polynomial.variable(n, table, field) for n in PLANE_VARS)
    ca = Polynomial.constant(a, table, field)
    return (x ** 4 + y ** 4 + w ** 4
            + ca * 3 * (x ** 2 * y ** 2 + y ** 2 * w ** 2 + w ** 2 * x ** 2))


def classical_klein_quartic() -> Polynomial:
    """x^3 y + y^3 z + z^3 x over Q(zeta_7)."""
    field = cyclotomic_field(7)
    table = make_table(PLANE_VARS)
    x, y, z = (Polynomial.variable(n, table, field) for n in PLANE_VARS)
    return x ** 3 * y + y ** 3 * z + z ** 3 * x


def quartic_to_classical_matrix(alt_alpha: bool = False):
    """The symmetric candidate change of coordinates between the models.

    Rows over Q(zeta_7) built from 1, 1 + zeta*a and zeta^2 + zeta^6;
    whether it actually conjugates one quartic into the other is decided
    by verify_projective_equivalence, not assumed here.
    """
    field = cyclotomic_field(7)
    z = field.gen()
    a = (field.one() if alt_alpha else z) + z ** 2 + z ** 4
    one = field.one()
    p = one + z * a
    q = z ** 2 + z ** 6
    return ((one, p, q), (p, q, one), (q, one, p))


# ---------------------------------------------------------------------------
# embedding helpers

def _embed_root(field) -> int:
    """Deterministic embedding choice: the last root in (re, im) order.

    For a cyclotomic field that is exp(2 pi i/n); rationals ignore it.
    """
    roots = getattr(field, "embedding_roots", None)
    return len(roots()) - 1 if roots else 0


def _embed_terms(P: Polynomial, root: int, scaled: bool = True):
    """[(exponent, complex coeff)] with an optional 1-norm scaling.

    The scaling makes Newton residuals relative to coefficient size,
    which is the normalization all reported residuals use.
    """
    terms = [(e, nf_embed_complex(c, root)) for e, c in P.terms.items()]
    if not terms:
        return terms
    if scaled:
        scale = sum(abs(c) for _, c in terms)
        terms = [(e, c / scale) for e, c in terms]
    return terms


def _ev(terms, pt) -> complex:
    s = 0j
    for e, c in terms:
        v = c
        for k, d in enumerate(e):
            if d:
                v *= pt[k] ** d
        s += v
    return s


def _require_ternary_quartic(F: Polynomial):
    if len(F.table) != 3:
        raise InvalidInput("expected a polynomial in three variables")
    if not F.is_homogeneous() or F.weighted_degree() != 4:
        raise InvalidInput("expected a homogeneous quartic")


def _random_change(field, attempt: int):
    """Recorded unimodular-ish integer matrix, entries in [-3, 3]."""
    rng = random.Random(RETRY_SEED + attempt)
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        det = (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
               - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
               + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))
        if det:
            return tuple(tuple(field.from_int(v) for v in r) for r in rows)


def _numeric_rows(rows, root: int):
    return np.array([[nf_embed_complex(c, root) for c in r] for r in rows])


# ---------------------------------------------------------------------------
# flexes

def flex_points(F: Polynomial, tol: float = 1e-10):
    """The 24 inflection points of a smooth quartic, with multiplicity.

    Returns PointP2 records whose multiplicities sum to 24; residual is
    the damped-Newton stall value of the 1-norm-scaled system
    {F = 0, Hess F = 0} with the largest coordinate pinned to 1.
    """
    _require_ternary_quartic(F)
    root = _embed_root(F.field)
    degenerate = 0
    for attempt in range(MAX_ATTEMPTS):
        change = None if attempt == 0 else _random_change(F.field, attempt)
        G = F if change is None else compose_with_matrix(F, change)
        if not G.terms.get((4, 0, 0)):
            # (1,0,0) may sit on the curve, where x-elimination loses roots
            degenerate += 1
            continue
        pts = _flex_core(G, tol, root)
        if not _whole_flex_count(pts):
            continue
        if change is not None:
            M = _numeric_rows(change, root)
            slices = _newton_data(F, root)
            mapped = []
            for p, _, mult in pts:
                q = normalize_projective(tuple(M @ np.array(p)))
                q, res = _refine_point(slices, q)
                mapped.append((q, res, mult))
            pts = _merge_points(mapped, 1e3 * tol)
            if not _whole_flex_count(pts):
                continue
        return [PointP2.from_coords(p, residual=res, multiplicity=int(m))
                for p, res, m in sorted(pts, key=lambda t: _coord_key(t[0]))]
    if degenerate == MAX_ATTEMPTS:
        raise DegenerateCoordinates("x-degree dropped in every coordinate attempt")
    raise NumericFailure("flex multiplicities were not positive integers "
                         "summing to 24 in %d coordinate attempts"
                         % MAX_ATTEMPTS)


def _whole_flex_count(pts) -> bool:
    """Every merged multiplicity is a positive integer and they sum to 24.

    A cluster's multiplicity is split over its lifts as fractions, so
    lifts that fail to merge back leave non-integral multiplicities.
    """
    mults = [m for _, _, m in pts]
    return sum(mults) == 24 and all(m >= 1 and m == int(m) for m in mults)


def _newton_data(F: Polynomial, root: int):
    """Scaled embedded F, Hess F and their partials, for point refinement."""
    H = hessian_det(F)
    data = {"F": _embed_terms(F, root), "H": _embed_terms(H, root)}
    for nm, P in (("F", F), ("H", H)):
        for vn in PLANE_VARS:
            data[(nm, vn)] = _embed_terms(P.partial(vn), root, scaled=False)
        scale = sum(abs(nf_embed_complex(c, root)) for c in P.terms.values())
        for vn in PLANE_VARS:
            data[(nm, vn)] = [(e, c / scale) for e, c in data[(nm, vn)]]
    return data


def _refine_point(data, p0):
    """Newton-polish a projective point against {F = 0, Hess F = 0}.

    The largest-modulus coordinate is pinned to 1 and the other two are
    the unknowns, so the Jacobian is square.
    """
    p0 = normalize_projective(p0)
    fix = max(range(3), key=lambda i: abs(p0[i]))
    free = [i for i in range(3) if i != fix]

    def fill(u):
        pt = list(p0)
        pt[fix] = 1.0 + 0j
        pt[free[0]], pt[free[1]] = u[0], u[1]
        return pt

    fun = lambda u: [_ev(data["F"], fill(u)), _ev(data["H"], fill(u))]
    jac = lambda u: [[_ev(data[(nm, PLANE_VARS[j])], fill(u)) for j in free]
                     for nm in ("F", "H")]
    u, res = damped_newton(fun, jac, [p0[free[0]], p0[free[1]]],
                           tol=1e-15, floor=1e-11)
    return tuple(normalize_projective(fill(u))), res


def _merge_points(cands, radius):
    """Cluster refined points; multiplicities add, residuals take the max."""
    reps = cluster_points([p for p, _, _ in cands], radius)
    out = []
    for rep, members in reps:
        mult = sum(cands[i][2] for i in members)
        res = max(cands[i][1] for i in members)
        out.append((rep, res, mult))
    return out


def _flex_core(G: Polynomial, tol: float, root: int):
    """Flexes of G in the given coordinates: [(point, residual, mult)]."""
    H = hessian_det(G)
    R = resultant(G, H, "x", 4, 6)
    cz = univariate_coeffs(R, "z")
    num = []
    for c in cz:
        terms = list(c.terms.items())
        num.append(nf_embed_complex(terms[0][1], root) if terms else 0j)
    num += [0j] * (25 - len(num))
    scale = max(abs(v) for v in num)
    if not scale:
        raise DegenerateCoordinates("resultant of F and its Hessian vanished")
    roots = projective_binary_roots([v / scale for v in num], 24, tol)
    clusters = cluster_points(roots, 1e3 * tol)
    data = _newton_data(G, root)
    Fn, Hn = data["F"], data["H"]
    cands = []
    for (y0, z0), members in clusters:
        # lift the (y:z) root through the x-polynomial G(x, y0, z0); the
        # cluster multiplicity is split evenly over the lifts that also
        # kill the Hessian
        qc = [0j] * 5
        for e, c in Fn:
            qc[e[0]] += c * (y0 ** e[1]) * (z0 ** e[2])
        xs = aberth_roots(qc)
        hv = [abs(_ev(Hn, (xi, y0, z0))) for xi in xs]
        hscale = max(1.0, max(hv))
        lifts = [xi for xi, h in zip(xs, hv) if h <= 1e-3 * hscale]
        if not lifts:
            raise NumericFailure(
                "no Hessian-compatible lift over the root cluster at "
                "(y:z) = (%r : %r)" % (y0, z0))
        for xi in lifts:
            pt, res = _refine_point(data, (xi, y0, z0))
            cands.append((pt, res, Fraction(len(members), len(lifts))))
    return _merge_points(cands, 1e3 * tol)


def _coord_key(coords):
    return tuple((round(c.real, 9), round(c.imag, 9)) for c in coords)


# ---------------------------------------------------------------------------
# bitangents

@dataclass(frozen=True)
class TangentLine:
    """A line with everywhere-double contact against the quartic.

    kind is "bitangent" (two distinct tangency points), "flex" (triple
    contact at one point plus a transverse crossing) or "hyperflex"
    (4-fold contact at one point).  residual is the largest deviation of
    the restricted quartic from its fitted contact model, relative to
    the restriction's own coefficient scale.
    """

    line: LineP2
    kind: str
    tangencies: tuple
    residual: float


@dataclass
class QuarticLineScan:
    """Every double-contact line of the quartic, split by contact type.

    For a smooth quartic, bitangents + hyperflexes = 28 and
    flexes + 2 * hyperflexes = 24; the scan only returns once both
    hold, so the listing is certified complete.  coordinate_change
    records the integer matrix that was needed when the curve sat in
    special position (None when the plain charts already succeeded).
    """

    bitangents: list
    flex_tangents: list
    dedup_radius: float
    coordinate_change: tuple = None


def bitangent_scan(F: Polynomial, tol: float = 1e-10) -> QuarticLineScan:
    """Classify every double-contact line of F.

    Candidates solve psc0 = psc1 = 0 per chart, found as eigenvalues of
    the Sylvester pencil in the chart slope and refined by a structured
    Newton fit of the contact model; the classical counts decide when
    the three charts caught everything, otherwise a recorded random
    coordinate change is applied and inverted at the end.
    """
    _require_ternary_quartic(F)
    root = _embed_root(F.field)
    home = [_ChartFit(F, chart, root) for chart in CHARTS]
    for attempt in range(MAX_ATTEMPTS):
        change = None if attempt == 0 else _random_change(F.field, attempt)
        G = F if change is None else compose_with_matrix(F, change)
        fits = home if change is None else \
            [_ChartFit(G, chart, root) for chart in CHARTS]
        entries = []
        for fit in fits:
            for a0, b0 in fit.candidates(tol):
                got = fit.fit(a0, b0, tol)
                if got is not None:
                    entries.append(got)
        if change is not None:
            M = _numeric_rows(change, root)
            entries = [_pull_back(e, M) for e in entries]
        merged = _merge_lines(entries, 1e3 * tol)
        bits = [e for e in merged if e.kind == "bitangent"]
        flexl = [e for e in merged if e.kind != "bitangent"]
        hyper = sum(1 for e in flexl if e.kind == "hyperflex")
        if len(bits) + hyper == 28 and (len(flexl) - hyper) + 2 * hyper == 24:
            key = lambda t: _coord_key(t.line.coords)
            return QuarticLineScan(sorted(bits, key=key),
                                   sorted(flexl, key=key),
                                   1e3 * tol, change)
    raise NumericFailure(
        "double-contact counts off in %d coordinate attempts: "
        "%d bitangents, %d flex tangents, %d hyperflexes"
        % (MAX_ATTEMPTS, len(bits), len(flexl) - hyper, hyper))


class _ChartFit:
    """Exact chart data plus the structured Newton refinement.

    The chart restriction q(t) has coefficients that are exact (a, b)
    polynomials; S0 = disc_t(q) cuts the dual curve and S1 = psc1(q, q')
    the extra double-root condition.  Both are assembled exactly, then
    embedded once.
    """

    def __init__(self, F, chart, root):
        self.chart = chart
        self.root = root
        slc = restrict_to_line(F, chart)
        qs = slc.coeffs
        field = F.field
        tab3 = make_table(("t", "a", "b"))
        tvar = Polynomial.variable("t", tab3, field)
        f3 = Polynomial.zero(tab3, field)
        for i, q in enumerate(qs):
            lift = Polynomial.zero(tab3, field)
            for e, c in q.terms.items():
                lift = lift + Polynomial.monomial((0, e[0], e[1]), c,
                                                  tab3, field)
            f3 = f3 + lift * tvar ** i
        S0 = quartic_discriminant(qs[4], qs[3], qs[2], qs[1], qs[0])
        S1t = principal_subresultant(f3, f3.partial("t"), 1, "t", 4, 3)
        ab = make_table(("a", "b"))
        S1 = Polynomial.zero(ab, field)
        for e, c in S1t.terms.items():
            S1 = S1 + Polynomial.monomial((e[1], e[2]), c, ab, field)
        self.G0 = self._grid(S0)
        self.G1 = self._grid(S1)
        self.qn = [_embed_terms(q, root, scaled=False) for q in qs]
        self.qa = [_embed_terms(q.partial("a"), root, scaled=False)
                   for q in qs]
        self.qb = [_embed_terms(q.partial("b"), root, scaled=False)
                   for q in qs]

    def _grid(self, P):
        da = P.degree_in("a")
        db = P.degree_in("b")
        g = np.zeros((da + 1, db + 1), dtype=complex)
        for e, c in P.terms.items():
            g[e[0], e[1]] = nf_embed_complex(c, self.root)
        return g

    def candidates(self, tol):
        """(a, b) pairs where both subresultants plausibly vanish.

        Eigenvalues of the Sylvester-in-b pencil give the a values, the
        b values are roots of S0(a, .).  The S1 cut compares against the
        typical size of S1 at radius max(1, |b|), not at exactly |b|:
        S1 can vanish identically on a spurious locus (defective
        remainder sequence), where a pointwise ratio test says nothing.
        The cut is loose (1e-4) because repeated eigenvalues -- every
        bitangent is a node of S0 = 0 -- carry O(1e-5) error; the
        refinement residual is the real acceptance test.
        """
        G0, G1 = self.G0, self.G1
        da0, db0 = G0.shape[0] - 1, G0.shape[1] - 1
        da1, db1 = G1.shape[0] - 1, G1.shape[1] - 1
        size = db0 + db1
        da = max(da0, da1)
        mats = [np.zeros((size, size), dtype=complex) for _ in range(da + 1)]
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
            try:
                bs = aberth_roots([v / scale0 for v in c0])
            except NumericFailure:
                continue
            for b0 in bs:
                if abs(b0) > 1e8:
                    continue
                v1 = sum(self.G1[k, j] * a0 ** k * b0 ** j
                         for k in range(da1 + 1) for j in range(db1 + 1))
                br = max(1.0, abs(b0))
                s1scale = sum(abs(G1[k, j]) * abs(a0) ** k * br ** j
                              for k in range(da1 + 1) for j in range(db1 + 1))
                if abs(v1) <= 1e-4 * max(s1scale, 1e-30):
                    out.append((a0, b0))
        return out

    def _qc(self, a, b):
        return [_ev(t, (a, b)) for t in self.qn]

    def _newton(self, model, dmodel, z0):
        def fun(z):
            q = self._qc(z[0], z[1])
            m = model(*z[2:])
            sc = max(max(abs(v) for v in q), 1e-30)
            return [(q[i] - m[i]) / sc for i in range(5)]

        def jac(z):
            a, b = z[0], z[1]
            q = self._qc(a, b)
            sc = max(max(abs(v) for v in q), 1e-30)
            cols = [[_ev(self.qa[i], (a, b)) / sc,
                     _ev(self.qb[i], (a, b)) / sc] for i in range(5)]
            dm = dmodel(*z[2:])
            return [cols[i] + [-d[i] / sc for d in dm] for i in range(5)]

        return damped_newton(fun, jac, z0, tol=1e-14, floor=1e-11,
                             max_iter=60)

    def fit(self, a0, b0, tol):
        """Structured fit at a candidate (a, b); None if nothing matches.

        The double-contact model is q = c (t^2+pt+r)^2, the flex model
        q = c (t-r)^3 (t-s); unknowns include (a, b), so the fit also
        polishes the line itself.
        """
        accept = max(1e-9, 10 * tol)
        q = self._qc(a0, b0)
        sc = max(abs(v) for v in q)
        if sc < 1e-12 or abs(q[4]) < 1e-9 * sc:
            return None
        try:
            roots = aberth_roots([v / q[4] for v in q])
        except NumericFailure:
            return None
        pairings = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))

        def spread(pr):
            (i, j), (k, l) = pr
            return max(abs(roots[i] - roots[j]), abs(roots[k] - roots[l]))

        (i, j), (k, l) = min(pairings, key=spread)
        u, v = (roots[i] + roots[j]) / 2, (roots[k] + roots[l]) / 2
        got = None
        try:
            z, res = self._newton(_model_btg, _dm_btg,
                                  [a0, b0, q[4], -(u + v), u * v])
            if res < accept:
                got = ("double", z, res)
        except NumericFailure:
            pass
        if got is None:
            tries = []
            for m in range(4):
                rest = [roots[x] for x in range(4) if x != m]
                w = max(abs(p - q2) for p in rest for q2 in rest)
                tries.append((w, sum(rest) / 3, roots[m]))
            _, r0, s0 = min(tries, key=lambda t: t[0])
            try:
                z, res = self._newton(_model_flex, _dm_flex,
                                      [a0, b0, q[4], r0, s0])
                if res < accept:
                    got = ("flex", z, res)
            except NumericFailure:
                pass
        if got is None:
            return None
        shape, z, res = got
        a1, b1 = z[0], z[1]
        line = normalize_projective(_line_coords(self.chart, a1, b1))
        if shape == "double":
            c, p, r = z[2], z[3], z[4]
            disc = p * p - 4 * r
            if abs(disc) >= 1e3 * tol:
                sq = cmath.sqrt(disc)
                tps = ((-p + sq) / 2, (-p - sq) / 2)
                kind, mult = "bitangent", (1, 1)
            elif abs(disc) < tol:
                tps = (-p / 2,)
                kind, mult = "hyperflex", (2,)
            else:
                raise AmbiguousClassification(
                    "contact discriminant %.3e inside [%g, %g) for the "
                    "line %r" % (abs(disc), tol, 1e3 * tol, line))
        else:
            tps = (z[3],)
            kind, mult = "flex", (1,)
        tang = tuple(
            PointP2.from_coords(_tangency_point(self.chart, a1, b1, tp),
                                residual=res, multiplicity=m)
            for tp, m in zip(tps, mult))
        return TangentLine(LineP2.from_coords(line, residual=res),
                           kind, tang, res)


def _model_btg(c, p, r):
    return [c * r * r, 2 * c * p * r, c * (p * p + 2 * r), 2 * c * p, c]


def _dm_btg(c, p, r):
    dc = [r * r, 2 * p * r, p * p + 2 * r, 2 * p, 1.0]
    dp = [0j, 2 * c * r, 2 * c * p, 2 * c, 0j]
    dr = [2 * c * r, 2 * c * p, 2 * c, 0j, 0j]
    return [dc, dp, dr]


def _model_flex(c, r, s):
    return [c * r ** 3 * s, -c * (r ** 3 + 3 * r * r * s),
            c * (3 * r * r + 3 * r * s), -c * (3 * r + s), c]


def _dm_flex(c, r, s):
    dc = [r ** 3 * s, -(r ** 3 + 3 * r * r * s), 3 * r * r + 3 * r * s,
          -(3 * r + s), 1.0]
    dr = [3 * c * r * r * s, -c * (3 * r * r + 6 * r * s),
          c * (6 * r + 3 * s), -3 * c, 0j]
    ds = [c * r ** 3, -3 * c * r * r, 3 * c * r, -c, 0j]
    return [dc, dr, ds]


def _line_coords(chart, a, b):
    if chart == "z=ax+by":
        return (a, b, -1.0 + 0j)
    if chart == "y=ax+bz":
        return (a, -1.0 + 0j, b)
    return (-1.0 + 0j, a, b)


def _tangency_point(chart, a, b, t):
    if chart == "z=ax+by":
        return (1.0 + 0j, t, a + b * t)
    if chart == "y=ax+bz":
        return (1.0 + 0j, a + b * t, t)
    return (a + b * t, 1.0 + 0j, t)


def _pull_back(entry: TangentLine, M):
    """Map a line found in changed coordinates x' back to x = M x'.

    Covectors go through M^-1 on the right, points through M on the
    left.  The contact certificate (kind, residual) is unchanged: the
    restriction of the curve to the line is the same binary form up to
    reparametrization, and the original charts can be blind to exactly
    the lines that made the coordinate change necessary.
    """
    Minv = np.linalg.inv(M)
    lv = tuple(np.array(entry.line.coords) @ Minv)
    tang = tuple(
        PointP2.from_coords(tuple(M @ np.array(t.coords)),
                            residual=t.residual,
                            multiplicity=t.multiplicity)
        for t in entry.tangencies)
    return TangentLine(LineP2.from_coords(lv, residual=entry.residual),
                       entry.kind, tang, entry.residual)


def _merge_lines(entries, radius):
    if not entries:
        return []
    reps = cluster_points([e.line.coords for e in entries], radius)
    return [min((entries[i] for i in members), key=lambda e: e.residual)
            for _, members in reps]

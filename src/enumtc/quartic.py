"""Flexes and bitangents of smooth plane quartics.

The Klein quartic's flexes and bitangents are exact over Q(zeta_7).  Each
set is the orbit of a seed under the 48 signed permutation matrices,
which are checked to fix the curve, and every property is checked in the
field: smoothness by a full Macaulay rank of the partials modulo a split
prime, F = Hess F = 0 at each flex, and gcd(q, q') of the quartic q that
F restricts to on each line.  The classical counts for a smooth quartic,
24 flexes (Bezout) and 28 bitangents (Plucker), make the orbits complete.

flex_points and bitangent_scan are the numeric layer for any quartic.
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
from itertools import permutations, product

import numpy as np

from .errors import (
    AmbiguousClassification,
    CheckFailed,
    DegenerateCoordinates,
    InvalidField,
    InvalidInput,
    NotInvariant,
    NumericFailure,
)
from .fields import PrimeField, cyclotomic_field, nf_embed_complex
from .geometry import LineP2, PointP2, compose_with_matrix
from .koszul import GradedSequence, is_regular_maximal
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
    SpecializationMap,
    hessian_det,
    make_table,
    principal_subresultant,
    quartic_discriminant,
    restrict_to_line,
    resultant,
    substitute,
    univariate_coeffs,
    univariate_gcd,
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
# exact Klein geometry over Q(zeta_7)
#
# The seeds were recognised once with mpmath.pslq from the double-precision
# output of flex_points and bitangent_scan.  No verdict depends on where
# they came from: every orbit point is checked exactly.

# p = 29 is 1 mod 7, so Q(zeta_7) has degree-one primes above it
SMOOTHNESS_PRIME = 29

_LINE_TABLE = make_table(("t",))


def klein_flex_seed():
    """(-z-z^5 : 1+z^2+z^4+z^5 : 1), a flex of klein_quartic()."""
    field = cyclotomic_field(7)
    z, one = field.gen(), field.one()
    return (-z - z ** 5, one + z ** 2 + z ** 4 + z ** 5, one)


def klein_bitangent_seeds():
    """One covector per bitangent orbit of klein_quartic(); a = z+z^2+z^4."""
    field = cyclotomic_field(7)
    z, one, zero = field.gen(), field.one(), field.zero()
    a = z + z ** 2 + z ** 4
    return ((one, -one, -one),
            (-(a + 2) / 4, -(a + 2) / 4, one),
            (-(a + 1) / 2, zero, one))


def signed_permutation_symmetries(F: Polynomial):
    """The 48 signed permutation matrices, each checked to fix F exactly.

    They form a group; modulo -1 they act as 24 projective maps.
    NotInvariant names the first matrix g with F(g x) != F.
    """
    field = F.field
    group = []
    for perm in permutations(range(3)):
        for signs in product((1, -1), repeat=3):
            g = tuple(tuple(field.from_int(sign) if j == k else field.zero()
                            for j in range(3))
                      for k, sign in zip(perm, signs))
            if compose_with_matrix(F, g) != F:
                raise NotInvariant(f"symmetry check: F(g x) != F for the "
                                   f"permutation {perm} with signs {signs}")
            group.append(g)
    return group


def smoothness_certificate(F: Polynomial):
    """Macaulay certificate, modulo a prime above 29, that F is smooth.

    F's coefficients lie in a number field.  Its generator goes to the
    least root r of the minpoly mod p = SMOOTHNESS_PRIME, which is
    reduction modulo the degree-one prime (p, t - r): (29, zeta - 7) for
    Q(zeta_7).  The reduced partials of F are certified by
    is_regular_maximal over F_p.  A full Macaulay rank mod that prime is
    a nonzero minor, so the rank is full over the number field too: the
    partials have no common zero, and F = sum x_i F_i / deg F is smooth,
    hence irreducible.  A "NotRegular" verdict means F is singular or p
    is unlucky.
    """
    p, minpoly = SMOOTHNESS_PRIME, getattr(F.field, "minpoly", None)
    if minpoly is None:
        raise InvalidField("smoothness_certificate needs a number field")
    r = next((x for x in range(p)
              if sum(m * x ** i for i, m in enumerate(minpoly)) % p == 0),
             None)
    if r is None:
        raise InvalidField(f"the minpoly has no root mod {p}")
    fp = PrimeField(p)

    def residue(c):
        if c.den % p == 0:
            raise InvalidField(f"a coefficient denominator is divisible "
                               f"by {p}")
        return fp.from_int(sum(a * r ** i for i, a in enumerate(c.num))
                           * pow(c.den, -1, p))

    return is_regular_maximal(GradedSequence(tuple(
        Polynomial(F.table, fp, {e: residue(c) for e, c in
                                 F.partial(name).terms.items()})
        for name in F.table.names)))


def exact_flexes(F: Polynomial, seed, group):
    """The 24 flexes of a smooth quartic F as the group orbit of seed.

    Checked exactly: F is smooth, the orbit has 24 distinct points, and
    F = Hess F = 0 at each.  A smooth F is irreducible and not a line, so
    Hess F does not vanish on all of it (characteristic 0), and the two
    curves meet in 4 * 6 = 24 points counted with multiplicity (Bezout):
    24 distinct ones are all the flexes, each simple.  Returns the
    normalised points; CheckFailed names the first check that fails.
    """
    _require_smooth(F)
    points = _orbit(seed, group)
    if len(points) != 24:
        raise CheckFailed(f"flex orbit: {len(points)} distinct points, "
                          f"need 24")
    H = hessian_det(F)
    off = sum(1 for pt in points if _value(F, pt) or _value(H, pt))
    if off:
        raise CheckFailed(f"flex equations: F = Hess F = 0 fails at {off} "
                          f"of the 24 orbit points")
    return points


def exact_bitangents(F: Polynomial, seeds, group):
    """The 28 bitangents of a smooth quartic F as group orbits of seeds.

    Checked exactly: F is smooth, the seed orbits are 28 distinct lines,
    and on each line F restricts to a quartic f whose gcd(f, f') has
    degree 2 and is squarefree, so f has two distinct double roots.  A
    smooth quartic has 28 bitangents, hyperflex lines counted (Plucker),
    so these are all of them.  Returns the normalised covectors;
    CheckFailed names the first check that fails.
    """
    _require_smooth(F)
    lines = sorted({line for seed in seeds
                    for line in _orbit(seed, group, covector=True)},
                   key=_exact_key)
    if len(lines) != 28:
        raise CheckFailed(f"bitangent orbits: {len(lines)} distinct lines, "
                          f"need 28")
    for line in lines:
        g, _, _ = _contact_gcd(F, line, "bitangent contact")
        if (g.degree_in("t") != 2
                or univariate_gcd(g, g.partial("t"), "t").degree_in("t")):
            raise CheckFailed(f"bitangent contact: gcd(f, f') = {g!r}, "
                              f"need two distinct roots")
    return lines


def exact_flex_tangents(F: Polynomial, flexes):
    """The tangent line at each flex, checked to have triple contact there.

    The tangent at a point is the gradient of F there.  On it gcd(f, f')
    must be (t - r)^2, and the contact point p + r q must be the flex.
    A quartic meets a line in 4 points, so no line has triple contact at
    two flexes and the tangents are distinct.  Returns the normalised
    covectors in flex order; CheckFailed names the first check that fails.
    """
    grad = [F.partial(name) for name in F.table.names]
    tangents = []
    for flex in flexes:
        line = _normalize(tuple(_value(P, flex) for P in grad))
        g, p, q = _contact_gcd(F, line, "flex tangent contact")
        c0, c1 = (g.terms.get((e,), F.field.zero()) for e in (0, 1))
        if g.degree_in("t") != 2 or c1 * c1 != 4 * c0:
            raise CheckFailed(f"flex tangent contact: gcd(f, f') = {g!r}, "
                              f"need the square of a linear factor")
        r = -c1 / 2
        if _normalize(tuple(a + r * b for a, b in zip(p, q))) != \
                _normalize(flex):
            raise CheckFailed("flex tangent contact: the triple contact "
                              "point is not the flex")
        tangents.append(line)
    return tangents


def embedded(v):
    """Complex coordinates of an exact point or covector (_embed_root)."""
    root = _embed_root(v[0].field)
    return tuple(nf_embed_complex(c, root) for c in v)


def _require_smooth(F: Polynomial):
    cert = smoothness_certificate(F)
    if cert.verdict != "Regular":
        ranks = ", ".join(f"{r['rank']}/{r['stratum_dim']} at degree "
                          f"{r['degree']}" for r in cert.ranks)
        raise CheckFailed(f"smoothness: Macaulay rank {ranks} modulo "
                          f"{SMOOTHNESS_PRIME}")


def _normalize(v):
    """v divided by its last nonzero coordinate."""
    last = next((c for c in reversed(v) if c), None)
    if last is None:
        raise InvalidInput("the zero vector is no projective point")
    inv = last.inverse()
    return tuple(c * inv for c in v)


def _exact_key(v):
    return [repr(c) for c in v]


def _orbit(v, group, covector: bool = False):
    """The distinct normalised images of v under the group, sorted.

    A point moves to g v.  A covector moves to v g^-1, and over a whole
    group the set {v g^-1} is {v g}.
    """
    images = set()
    for g in group:
        rows = zip(*g) if covector else g    # v g is g^T v
        images.add(_normalize(tuple(r[0] * v[0] + r[1] * v[1] + r[2] * v[2]
                                    for r in rows)))
    return sorted(images, key=_exact_key)


def _value(P: Polynomial, point):
    """P at an exact point."""
    total = P.field.zero()
    for e, c in P.terms.items():
        for x, k in zip(point, e):
            if k:
                c = c * x ** k
        total = total + c
    return total


def _contact_gcd(F: Polynomial, line, check: str):
    """(gcd(f, f'), p, q) for f(t) = F(p + t q) on the line l . x = 0.

    With l_k the last nonzero entry of l and i < j the other indices,
    p = l_k e_i - l_i e_k and q = l_k e_j - l_j e_k span the line.
    CheckFailed unless f has degree 4, so that no root of f, contact
    point or not, sits at q, outside the chart t.
    """
    k = max(m for m in range(3) if line[m])
    i, j = (m for m in range(3) if m != k)
    zero = F.field.zero()
    p, q = [zero] * 3, [zero] * 3
    p[i], p[k] = line[k], -line[i]
    q[j], q[k] = line[k], -line[j]
    f = substitute(F, SpecializationMap({
        name: Polynomial(_LINE_TABLE, F.field, {(0,): p[m], (1,): q[m]})
        for m, name in enumerate(F.table.names)}))
    if f.degree_in("t") != 4:
        raise CheckFailed(f"{check}: F restricts to a line with degree "
                          f"{f.degree_in('t')}, need 4")
    return univariate_gcd(f, f.partial("t"), "t"), p, q


# ---------------------------------------------------------------------------
# embedding helpers

def _embed_root(field) -> int:
    """Deterministic embedding choice: the last root in (re, im) order.

    For a cyclotomic field that is exp(2 pi i/n); rationals ignore it.
    """
    roots = getattr(field, "embedding_roots", None)
    return len(roots()) - 1 if roots else 0


class _Compiled:
    """Embedded polynomials over their shared monomials.

    The coefficients sit in one (polynomials x monomials) matrix, so a
    single matrix product evaluates every polynomial at a batch of
    points.
    """

    def __init__(self, polys, root: int):
        exps = sorted({e for P in polys for e in P.terms})
        col = {e: j for j, e in enumerate(exps)}
        self.exps = np.array(exps, dtype=int).T
        self.coef = np.zeros((len(polys), len(exps)), dtype=complex)
        for i, P in enumerate(polys):
            for e, c in P.terms.items():
                self.coef[i, col[e]] = nf_embed_complex(c, root)

    def __call__(self, X):
        """Values at the rows of X: (points, variables) -> (points, polys)."""
        X = np.asarray(X, dtype=complex).reshape(-1, len(self.exps))
        mons = np.ones((len(X), self.exps.shape[1]), dtype=complex)
        for x, e in zip(X.T, self.exps):
            mons *= np.vander(x, e.max() + 1, increasing=True)[:, e]
        return mons @ self.coef.T


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
    {F = 0, Hess F = 0} with the largest coordinate pinned to 1.  A
    coordinate attempt that fails numerically or gives other
    multiplicities ends, and the next one starts; the final
    NumericFailure names every attempt's reason.
    """
    _require_ternary_quartic(F)
    root = _embed_root(F.field)
    failures = []
    for attempt in range(MAX_ATTEMPTS):
        change = None if attempt == 0 else _random_change(F.field, attempt)
        G = F if change is None else compose_with_matrix(F, change)
        if not G.terms.get((4, 0, 0)):
            # (1,0,0) may sit on the curve, where x-elimination loses roots
            failures.append("x-degree dropped")
            continue
        try:
            pts = _flex_core(G, tol, root)
            if change is not None and _whole_flex_count(pts):
                M = _numeric_rows(change, root)
                pts = _refine_points(_flex_system(F, root),
                                     [M @ np.array(p) for p, _, _ in pts],
                                     [m for _, _, m in pts], 1e3 * tol)
        except NumericFailure as exc:
            failures.append(str(exc))
            continue
        if _whole_flex_count(pts):
            pts.sort(key=lambda t: _coord_key(t[0]))
            return [PointP2.from_coords(p, residual=res, multiplicity=int(m))
                    for p, res, m in pts]
        failures.append("flex multiplicities were not positive integers "
                        "summing to 24")
    if failures.count("x-degree dropped") == MAX_ATTEMPTS:
        raise DegenerateCoordinates("x-degree dropped in every coordinate attempt")
    raise NumericFailure("no flex set in %d coordinate attempts: %s" % (
        MAX_ATTEMPTS, "; ".join("attempt %d: %s" % f
                                for f in enumerate(failures))))


def _whole_flex_count(pts) -> bool:
    """Every merged multiplicity is a positive integer and they sum to 24.

    A cluster's multiplicity is split over its lifts as fractions, so
    lifts that fail to merge back leave non-integral multiplicities.
    """
    mults = [m for _, _, m in pts]
    return sum(mults) == 24 and all(m >= 1 and m == int(m) for m in mults)


def _flex_system(F: Polynomial, root: int) -> _Compiled:
    """F, F_x, F_y, F_z, Hess F and its partials, for point refinement.

    Rows are divided by the 1-norm of F's (or Hess F's) coefficients,
    which makes Newton residuals relative to coefficient size: the
    normalization all reported residuals use.
    """
    system = _Compiled([Q for P in (F, hessian_det(F))
                        for Q in [P] + [P.partial(vn) for vn in PLANE_VARS]],
                       root)
    system.coef /= np.abs(system.coef[[0, 4]]).sum(axis=1).repeat(4)[:, None]
    return system


def _refine_points(system: _Compiled, starts, mults, radius):
    """Newton-polish projective points against {F = 0, Hess F = 0}.

    The largest-modulus coordinate is pinned to 1 and the other two are
    the unknowns, so each Jacobian is square; the points that pin the
    same coordinate share one batched run.  NumericFailure when any
    point stalls.  Refined points closer than radius merge into one
    (point, residual, mult): multiplicities add, residuals take the max.
    """
    P = np.array(starts, dtype=complex)
    at_pin = (np.arange(len(P)), np.argmax(np.abs(P), axis=1))
    P /= P[at_pin][:, None]
    P[at_pin] = 1
    res, ok = np.zeros(len(P)), np.zeros(len(P), dtype=bool)
    for fix in range(3):
        lanes = np.flatnonzero(at_pin[1] == fix)
        free = [i for i in range(3) if i != fix]
        rows = [[1 + i for i in free], [5 + i for i in free]]
        P[np.ix_(lanes, free)], res[lanes], ok[lanes] = damped_newton(
            lambda U: system(np.insert(U, fix, 1, axis=1))[:, [0, 4]],
            lambda U: system(np.insert(U, fix, 1, axis=1))[:, rows],
            P[np.ix_(lanes, free)], tol=1e-15, floor=1e-11)
    if not ok.all():
        raise NumericFailure("refinement stalled at residual %.3e"
                             % res[np.argmin(ok)])
    pts = [normalize_projective(tuple(complex(c) for c in p)) for p in P]
    return [(rep, float(res[ms].max()), sum(mults[i] for i in ms))
            for rep, ms in cluster_points(pts, radius)]


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
    system = _flex_system(G, root)
    # lift each (y:z) root through the x-polynomial G(x, y0, z0); the
    # cluster multiplicity is split evenly over the lifts that also
    # kill the Hessian
    in_x = _Compiled(univariate_coeffs(G, "x"), root)
    xs, ok = aberth_roots(in_x([(1, y0, z0) for (y0, z0), _ in clusters]))
    if not ok.all():
        raise NumericFailure("root iteration stalled")
    hv = np.abs(system([(x, y0, z0) for xr, ((y0, z0), _)
                        in zip(xs, clusters) for x in xr])[:, 4])
    starts, shares = [], []
    for xr, ((y0, z0), members) in zip(xs, clusters):
        h, hv = hv[:len(xr)], hv[len(xr):]
        lifts = [x for x, hx in zip(xr, h) if hx <= 1e-3 * max(1.0, h.max())]
        if not lifts:
            raise NumericFailure(
                "no Hessian-compatible lift over the root cluster at "
                "(y:z) = (%r : %r)" % (y0, z0))
        starts += [(x, y0, z0) for x in lifts]
        shares += [Fraction(len(members), len(lifts))] * len(lifts)
    return _refine_points(system, starts, shares, 1e3 * tol)


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
    failures = []
    for attempt in range(MAX_ATTEMPTS):
        change = None if attempt == 0 else _random_change(F.field, attempt)
        G = F if change is None else compose_with_matrix(F, change)
        fits = home if change is None else \
            [_ChartFit(G, chart, root) for chart in CHARTS]
        try:
            entries = [e for fit in fits for e in fit.fits(tol)]
        except AmbiguousClassification as exc:
            failures.append("attempt %d: %s" % (attempt, exc))
            continue
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
        failures.append("attempt %d: %d bitangents, %d flex tangents, "
                        "%d hyperflexes" % (attempt, len(bits),
                                            len(flexl) - hyper, hyper))
    raise NumericFailure(
        "double-contact counts off in %d coordinate attempts: %s"
        % (MAX_ATTEMPTS, "; ".join(failures)))


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
        # q_0..q_4, then their a-partials, then their b-partials
        self.q = _Compiled(qs + [q.partial("a") for q in qs]
                           + [q.partial("b") for q in qs], root)

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
        a = np.array([a0 for a0 in polyeig(mats) if abs(a0) <= 1e8],
                     dtype=complex)
        C0 = np.vander(a, da0 + 1, increasing=True) @ G0
        scale0 = np.abs(C0).max(axis=1)
        big = scale0 >= 1e-12
        bs, ok = aberth_roots(C0[big] / scale0[big, None])
        bs = [r for r, o in zip(bs, ok) if o]
        a = np.repeat(a[big][ok], [len(r) for r in bs])
        b = np.concatenate([np.zeros(0, dtype=complex)] + bs)
        a, b = a[np.abs(b) <= 1e8], b[np.abs(b) <= 1e8]
        A1 = np.vander(a, da1 + 1, increasing=True)
        v1 = ((A1 @ G1) * np.vander(b, db1 + 1, increasing=True)).sum(axis=1)
        br = np.maximum(1.0, np.abs(b))
        s1scale = ((np.abs(A1) @ np.abs(G1))
                   * np.vander(br, db1 + 1, increasing=True)).sum(axis=1)
        cut = np.abs(v1) <= 1e-4 * np.maximum(s1scale, 1e-30)
        return list(zip(a[cut].tolist(), b[cut].tolist()))

    def fits(self, tol):
        """Structured fits at every candidate; TangentLines in candidate order.

        The double-contact model is q = c (t^2+pt+r)^2, the flex model
        q = c (t-r)^3 (t-s); unknowns include (a, b), so the fit also
        polishes the line itself.  One batched Newton run fits the
        double-contact model to every candidate, a second the flex model
        to those the first rejected; candidates neither fits are dropped.
        """
        accept = max(1e-9, 10 * tol)
        cands = self.candidates(tol)
        Q = self.q(cands)[:, :5]
        sc = np.abs(Q).max(axis=1)
        fit = np.flatnonzero((sc >= 1e-12) & (np.abs(Q[:, 4]) >= 1e-9 * sc))
        rts, ok = aberth_roots(Q[fit] / Q[fit, 4:])
        starts = [(cands[i] + (complex(Q[i, 4]),), r)
                  for i, r, o in zip(fit, rts, ok) if o]
        if not starts:
            return []
        Z, res, double = self._fit_model(
            _btg_partials, [z0 + _double_start(rts) for z0, rts in starts])
        double &= res < accept
        flex = np.zeros(len(starts), dtype=bool)
        retry = np.flatnonzero(~double)
        if retry.size:
            Z[retry], res[retry], flex[retry] = self._fit_model(
                _flex_partials, [starts[i][0] + _flex_start(starts[i][1])
                                 for i in retry])
            flex[retry] &= res[retry] < accept
        return [self._tangent_line(flex[i], Z[i], float(res[i]), tol)
                for i in np.flatnonzero(double | flex)]

    def _fit_model(self, partials, Z0):
        """Batched Newton fit of q(a, b) to a model, lanes (a, b, c, ...).

        partials gives the model's derivatives in (c, ...), the model
        being c times its c-derivative; rows are relative to max |q_i|.
        """
        def parts(Z):
            v, D = self.q(Z[:, :2]), partials(Z[:, 2:])
            sc = np.maximum(np.abs(v[:, :5]).max(axis=1), 1e-30)
            return v, D, sc[:, None]

        def fun(Z):
            v, D, sc = parts(Z)
            return (v[:, :5] - Z[:, 2:3] * D[:, :, 0]) / sc

        def jac(Z):
            v, D, sc = parts(Z)
            return np.concatenate([v[:, 5:10, None], v[:, 10:, None], -D],
                                  axis=2) / sc[:, :, None]

        return damped_newton(fun, jac, Z0, tol=1e-14, floor=1e-11, max_iter=60)

    def _tangent_line(self, is_flex, z, res, tol):
        """Classify one accepted fit into a TangentLine."""
        a1, b1, _, p, r = (complex(v) for v in z)
        line = normalize_projective(_line_coords(self.chart, a1, b1))
        if is_flex:  # z holds (a, b, c, r, s): z[3] is the triple root
            tps, kind, mult = (p,), "flex", (1,)
        else:
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
        tang = tuple(
            PointP2.from_coords(_tangency_point(self.chart, a1, b1, tp),
                                residual=res, multiplicity=m)
            for tp, m in zip(tps, mult))
        return TangentLine(LineP2.from_coords(line, residual=res),
                           kind, tang, res)


def _double_start(roots):
    """(p, r) of t^2+pt+r from the tightest pairing of the four roots."""
    (i, j), (k, l) = min(
        (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))),
        key=lambda pr: max(abs(roots[x] - roots[y]) for x, y in pr))
    u, v = (roots[i] + roots[j]) / 2, (roots[k] + roots[l]) / 2
    return (-(u + v), u * v)


def _flex_start(roots):
    """(r, s) of (t-r)^3 (t-s): the tightest triple's mean, the odd root."""
    def width(m):
        rest = [z for x, z in enumerate(roots) if x != m]
        return max(abs(p - q) for p in rest for q in rest)

    m = min(range(4), key=width)
    return (sum(z for x, z in enumerate(roots) if x != m) / 3, roots[m])


def _btg_partials(W):
    """d/d(c, p, r) of q = c (t^2+pt+r)^2, coefficients low to high."""
    c, p, r = W.T
    one, zero = np.ones_like(c), np.zeros_like(c)
    return np.stack([np.stack(d, axis=1) for d in (
        [r * r, 2 * p * r, p * p + 2 * r, 2 * p, one],
        [zero, 2 * c * r, 2 * c * p, 2 * c, zero],
        [2 * c * r, 2 * c * p, 2 * c, zero, zero])], axis=2)


def _flex_partials(W):
    """d/d(c, r, s) of q = c (t-r)^3 (t-s), coefficients low to high."""
    c, r, s = W.T
    one, zero = np.ones_like(c), np.zeros_like(c)
    return np.stack([np.stack(d, axis=1) for d in (
        [r ** 3 * s, -(r ** 3 + 3 * r * r * s), 3 * r * r + 3 * r * s,
         -(3 * r + s), one],
        [3 * c * r * r * s, -c * (3 * r * r + 6 * r * s),
         c * (6 * r + 3 * s), -3 * c, zero],
        [c * r ** 3, -3 * c * r * r, 3 * c * r, -c, zero])], axis=2)


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

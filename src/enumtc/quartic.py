"""Flexes and bitangents of smooth plane quartics.

The Klein quartic's flexes and bitangents are exact over Q(zeta_7), found
on the classical model C = x^3 y + y^3 z + z^3 x from three generators of
its automorphism group, each checked to fix C, and one checked seed per
set, each by gcd(f, f') of C restricted to a line: the flex (1:0:0),
certified by the triple contact of its tangent y = 0, and the bitangent
x + y + z = 0.  The generators close each orbit, of (flex, tangent)
pairs and of lines, and the counts for a smooth quartic (a full Macaulay
rank mod a prime), 24 flexes (Bezout) and 28 bitangents (Plucker), make
it complete.  A matrix P with F(P y) = s C(y) carries it all to the
alpha model F.  No check uses a tolerance.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CheckFailed, InvalidField, InvalidInput, NotInvariant
from .fields import NumberFieldElement, PrimeField, cyclotomic_field
from .geometry import LineP2, PointP2, compose_with_matrix, orbit
from .koszul import KoszulComplex, is_regular_maximal
from .poly import Polynomial, make_table, substitute, univariate_gcd

PLANE_VARS = ("x", "y", "z")


# ---------------------------------------------------------------------------
# the two models of the Klein quartic, the matrices between them and the
# classical model's symmetries

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


def klein_model_matrix():
    """P with klein_quartic()(P y) = s * classical_klein_quartic()(y) for
    s = -96 + 64 z^2 - 16 z^3 - 16 z^4 + 64 z^5, checked where it is used
    (verify_projective_equivalence), not assumed here."""
    field = cyclotomic_field(7)
    z, one = field.gen(), field.one()
    return ((z ** 5, z ** 2 + z ** 3, z + z ** 2 + z ** 4 + z ** 5),
            (one + z, one + z + z ** 3 + z ** 4, z),
            (-one - z ** 3 - z ** 4, one, z ** 3 + z ** 4))


def klein_symmetries(F: Polynomial):
    """S, T and R, each checked to fix F exactly; NotInvariant names the
    first generator g with F(g x) != F.

    They generate the classical model's automorphism group, of order 168
    (Elkies, "The Klein quartic in number theory", 1999): S = diag(z^4,
    z^2, z), T permutes the coordinates cyclically, and R = -M / g for the
    symmetric circulant M with first row (a, b, c) = (z - z^6, z^2 - z^5,
    z^4 - z^3) and the Gauss sum g = a + b + c, whose square is -7.
    """
    field = cyclotomic_field(7)
    z, one, zero = field.gen(), field.one(), field.zero()
    a, b, c = z - z ** 6, z ** 2 - z ** 5, z ** 4 - z ** 3
    r = -(a + b + c).inverse()
    generators = (
        ((z ** 4, zero, zero), (zero, z ** 2, zero), (zero, zero, z)),
        ((zero, one, zero), (zero, zero, one), (one, zero, zero)),
        tuple(tuple(r * e for e in row)
              for row in ((a, b, c), (b, c, a), (c, a, b))))
    for name, g in zip("STR", generators):
        if compose_with_matrix(F, g) != F:
            raise NotInvariant(f"symmetry check: F(g x) != F for the "
                               f"generator {name}")
    return generators


# ---------------------------------------------------------------------------
# exact flexes, tangents and lines as orbits of one checked seed

# on the classical model: the flex (1:0:0), tangent y = 0 there, and the
# bitangent x + y + z = 0
KLEIN_FLEX = (1, 0, 0)
KLEIN_BITANGENT = (1, 1, 1)

# any prime but 2 (the Euler relation divides by the degree) and 7 (the
# classical model's bad reduction) certifies the classical model
SMOOTHNESS_PRIME = 29

_LINE_TABLE = make_table(("t",))


def smoothness_certificate(F: Polynomial):
    """Macaulay certificate, modulo SMOOTHNESS_PRIME, that F is smooth.

    F's coefficients must be rational, in whatever field (InvalidField
    otherwise).  is_regular_maximal certifies its partials mod p; a full
    Macaulay rank mod p is a nonzero minor, so it is full over Q: the
    partials have no common zero, and F = sum x_i F_i / deg F is smooth,
    hence irreducible.  "NotRegular" means F is singular or p unlucky.
    """
    p, fp = SMOOTHNESS_PRIME, PrimeField(SMOOTHNESS_PRIME)

    def residue(c):
        if isinstance(c, NumberFieldElement) and c.is_rational():
            c = c.coeffs[0]
        if not isinstance(c, (int, Fraction)) or c.denominator % p == 0:
            raise InvalidField(f"smoothness mod {p}: {c!r} is not a "
                               f"rational with denominator prime to {p}")
        return fp.from_int(c.numerator * pow(c.denominator, -1, p))

    return is_regular_maximal(KoszulComplex(
        Polynomial(F.table, fp, {e: residue(c) for e, c in
                                 F.partial(name).terms.items()})
        for name in F.table.names))


def exact_bitangents(F: Polynomial, seed, generators):
    """The 28 bitangents of a smooth quartic F, the orbit of the seed
    covector under generators that fix F; CheckFailed names the first
    check that fails.

    Checked exactly: F is smooth, F restricts on the seed line to a
    quartic f with gcd(f, f') of degree 2 and squarefree (two distinct
    double roots), and the orbit has 28 lines.  A smooth quartic has 28
    bitangents, hyperflex lines counted (Plucker), so these are all.
    """
    _require_smooth_quartic(F)
    seed = LineP2.from_coords(F.field.one() * c for c in seed)
    g, _, _ = _contact_gcd(F, seed.coords, "bitangent contact")
    if (g.degree_in("t") != 2
            or univariate_gcd(g, g.partial("t"), "t").degree_in("t")):
        raise CheckFailed(f"bitangent contact: gcd(f, f') = {g!r}, "
                          f"need two distinct roots")
    return [v for v, in _orbit_of((seed,), generators, 28, "bitangent")]


def exact_flex_tangents(F: Polynomial, flex, generators):
    """The 24 (flex, tangent) pairs of a smooth quartic F, the orbit of one
    flex and the gradient of F there under generators that fix F, sorted
    by flex; CheckFailed names the first check that fails.

    On the tangent gcd(f, f') must be (t - r)^2, with contact point
    p + r q the flex: a triple contact, which g carries to the image
    pair.  At a smooth point Hess F vanishes iff the tangent meets F
    there with multiplicity at least 3, and exactly 3 makes the point an
    ordinary flex, where F and Hess F meet with multiplicity 1 (Fulton,
    Algebraic Curves, ch. 5).  A smooth F is irreducible and not a line,
    so Hess F meets it in 4 * 6 = 24 points with multiplicity (Bezout):
    the 24 distinct flexes of the orbit exhaust them, each simple.  A
    quartic meets a line in 4 points, so no line has triple contact at
    two flexes and the tangents are distinct.
    """
    _require_smooth_quartic(F)
    flex = PointP2.from_coords(F.field.one() * c for c in flex)
    line = LineP2.from_coords(_value(F.partial(name), flex.coords)
                              for name in F.table.names)
    g, p, q = _contact_gcd(F, line.coords, "flex tangent contact")
    c0, c1 = (g.terms.get((e,), F.field.zero()) for e in (0, 1))
    if g.degree_in("t") != 2 or c1 * c1 != 4 * c0:
        raise CheckFailed(f"flex tangent contact: gcd(f, f') = {g!r}, "
                          f"need the square of a linear factor")
    r = -c1 / 2
    if PointP2.from_coords(a + r * b for a, b in zip(p, q)) != flex:
        raise CheckFailed("flex tangent contact: the triple contact "
                          "point is not the flex")
    return _orbit_of((flex, line), generators, 24, "flex tangent")


def _require_smooth_quartic(F: Polynomial):
    if len(F.table) != 3:
        raise InvalidInput("expected a polynomial in three variables")
    if not F.is_homogeneous() or F.weighted_degree() != 4:
        raise InvalidInput("expected a homogeneous quartic")
    cert = smoothness_certificate(F)
    if cert.verdict != "Regular":
        ranks = ", ".join(f"{r['rank']}/{r['stratum_dim']} at degree "
                          f"{r['degree']}" for r in cert.ranks)
        raise CheckFailed(f"smoothness: Macaulay rank {ranks} modulo "
                          f"{SMOOTHNESS_PRIME}")


def _orbit_of(objects, generators, count: int, check: str):
    found = orbit(objects, generators, count)
    if len(found) != count:
        raise CheckFailed(f"{check} orbit: {len(found)} found, need {count}")
    return found


def _value(P: Polynomial, point):
    """P at an exact point, term by term."""
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
    p = l_k e_i - l_i e_k and q = (l_k e_j - l_j e_k) + c p span the line,
    for the first c in 0..4 with F(q) != 0.  Then f has degree 4, and no
    root of f, contact point or not, sits at q, outside the chart t.  A
    quartic that vanishes at five points of a line contains it, so
    CheckFailed if no c works.
    """
    k = max(m for m in range(3) if line[m])
    i, j = (m for m in range(3) if m != k)
    zero = F.field.zero()
    p, q0 = [zero] * 3, [zero] * 3
    p[i], p[k] = line[k], -line[i]
    q0[j], q0[k] = line[k], -line[j]
    for c in range(5):
        q = [b + c * a for a, b in zip(p, q0)]
        if _value(F, q):
            break
    else:
        raise CheckFailed(f"{check}: F vanishes on the line")
    f = substitute(F, {
        name: Polynomial(_LINE_TABLE, F.field, {(0,): p[m], (1,): q[m]})
        for m, name in enumerate(F.table.names)})
    return univariate_gcd(f, f.partial("t"), "t"), p, q

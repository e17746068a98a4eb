"""Flexes and bitangents of smooth plane quartics.

The Klein quartic's flexes and bitangents are exact over Q(zeta_7).  Each
set is the orbit of a seed under the 48 signed permutation matrices,
which are checked to fix the curve, and every property is checked in the
field: smoothness by a full Macaulay rank of the partials modulo a split
prime, F = Hess F = 0 at each flex, and gcd(q, q') of the quartic q that
F restricts to on each line.  The classical counts for a smooth quartic,
24 flexes (Bezout) and 28 bitangents (Plucker), make the orbits complete.
No check uses a tolerance.
"""

from __future__ import annotations

from itertools import permutations, product

from .errors import CheckFailed, InvalidField, InvalidInput, NotInvariant
from .fields import PrimeField, cyclotomic_field
from .geometry import LineP2, _image, _normalize, compose_with_matrix
from .koszul import GradedSequence, is_regular_maximal
from .poly import (
    Polynomial,
    SpecializationMap,
    hessian_det,
    make_table,
    substitute,
    univariate_gcd,
)

PLANE_VARS = ("x", "y", "z")


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
# The seeds were recognised once with mpmath.pslq from double-precision
# flexes and bitangents of a numeric solver that is no longer part of the
# package.  No verdict depends on where they came from: every orbit point
# is checked exactly.

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
    _require_ternary_quartic(F)
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
    _require_ternary_quartic(F)
    _require_smooth(F)
    moves = [LineP2.moved_by(g) for g in group]
    lines = sorted({line for seed in seeds for line in _orbit(seed, moves)},
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
    _require_ternary_quartic(F)
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


def _require_ternary_quartic(F: Polynomial):
    if len(F.table) != 3:
        raise InvalidInput("expected a polynomial in three variables")
    if not F.is_homogeneous() or F.weighted_degree() != 4:
        raise InvalidInput("expected a homogeneous quartic")


def _require_smooth(F: Polynomial):
    cert = smoothness_certificate(F)
    if cert.verdict != "Regular":
        ranks = ", ".join(f"{r['rank']}/{r['stratum_dim']} at degree "
                          f"{r['degree']}" for r in cert.ranks)
        raise CheckFailed(f"smoothness: Macaulay rank {ranks} modulo "
                          f"{SMOOTHNESS_PRIME}")


def _exact_key(v):
    return [repr(c) for c in v]


def _orbit(v, matrices):
    """The distinct normalised images m v over the matrices m, sorted.

    A point's orbit takes the group itself, a covector's the matrices
    LineP2.moved_by(g).
    """
    return sorted({_image(m, v) for m in matrices}, key=_exact_key)


def _value(P: Polynomial, point):
    """P at an exact point.  Each coordinate's powers are built once, and
    a term with a zero coordinate is skipped."""
    powers = [[None, x] for x in point]  # powers[i][k] = point[i] ** k
    total = P.field.zero()
    for e, c in P.terms.items():
        for x, ps, k in zip(point, powers, e):
            if k:
                if not x:
                    break
                while len(ps) <= k:
                    ps.append(ps[-1] * x)
                c = c * ps[k]
        else:
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
    f = substitute(F, SpecializationMap({
        name: Polynomial(_LINE_TABLE, F.field, {(0,): p[m], (1,): q[m]})
        for m, name in enumerate(F.table.names)}))
    return univariate_gcd(f, f.partial("t"), "t"), p, q

"""Lines on the Fermat cubic surface and finite group actions.

Plane points, plane lines (covectors) and lines in P^3 (Plucker vectors)
are one kind of object, an exact coordinate vector scaled to last nonzero
entry 1, and g moves each by one matrix built from its minors: a point by
g, a covector by the cofactor matrix, a space line by the 2x2 minors,
and orbits under a few generators close by breadth-first search.
Induced index permutations of the 27 Fermat-cubic lines over Q(zeta_3)
and of plane points and lines come from the generators of an elementary
abelian group, checked to satisfy its relations exactly, and feed the
faithfulness and freeness checks.
Projective equivalence of two ternary quartics under an explicit matrix
is decided exactly; when the exact comparison fails, a report of the
complex-embedded coefficients says by how much.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    CheckFailed,
    CollisionAtTolerance,
    Frozen,
    InvalidInput,
    InvalidLine,
    NotInvariant,
)
from .fields import QQ, cyclotomic_field, field_inverse, nf_embed_complex
from .numroots import chordal_distance
from .poly import Polynomial, SpecializationMap, make_table, substitute

SPACE_VARS = ("x", "y", "z", "w")

# proportionality calls embedded coefficient vectors
# proportional when they deviate by at most this, relative to their size.
NUMERIC_TOL = 1e-8


def _normalize(v):
    """v divided by its last nonzero coordinate; only nonzero coordinates
    are multiplied, and each zero, an int 0 from _dot too, becomes a
    field zero."""
    last = next((c for c in reversed(v) if c), None)
    if last is None:
        raise InvalidInput("the zero vector is no projective point")
    inv = field_inverse(last)
    zero = _field_of(last).zero()
    return tuple(c * inv if c else zero for c in v)


def _field_of(c):
    return QQ if isinstance(c, (int, Fraction)) else c.field


def _dot(u, v):
    """sum u_i v_i over the pairs with no zero factor, int 0 if none: most
    matrices acting here are monomial, so most products are zero."""
    products = [a * b for a, b in zip(u, v) if a and b]
    return sum(products[1:], products[0]) if products else 0


def _minor(a, b, c, d):
    """a d - b c with zero products skipped; int 0 if both vanish."""
    if b and c:
        return a * d - b * c if a and d else -(b * c)
    return a * d if a and d else 0


def _image(m, v):
    """The normalised image m v."""
    return _normalize(tuple(_dot(row, v) for row in m))


def _exact_key(v):
    return [repr(c) for c in v]


def images(m, vectors):
    """The normalised images m v of the vectors, sorted."""
    return sorted((_image(m, v) for v in vectors), key=_exact_key)


def orbit(objects, generators, limit: int):
    """The orbit of a tuple of projective objects under the group the
    generators generate, sorted coordinate tuples.

    Breadth first, each object moved by its class's moved_by(g): every
    tuple found is moved by every generator until nothing new appears
    (no group element is listed) or more than limit tuples are found.
    """
    moves = [[type(obj).moved_by(g) for obj in objects] for g in generators]
    found = [tuple(obj.coords for obj in objects)]
    for item in found:
        if len(found) > limit:
            break
        for ms in moves:
            image = tuple(_image(m, v) for m, v in zip(ms, item))
            if image not in found:
                found.append(image)
    return sorted(found, key=lambda item: [_exact_key(v) for v in item])


class _Projective(Frozen):
    """Exact projective coordinates, last nonzero coordinate 1; under g
    they move by the matrix moved_by(g) of the subclass."""

    _fields = ("coords",)

    def __init__(self, coords: tuple):
        self._set(coords)

    @classmethod
    def from_coords(cls, coords):
        return cls(_normalize(tuple(coords)))

    @property
    def field(self):
        return _field_of(self.coords[0])


class PointP2(_Projective):
    """Projective plane point; moves to g v."""

    @staticmethod
    def moved_by(g):
        return g


class LineP2(_Projective):
    """Plane line ax+by+cz = 0 as its covector v; moves to v g^-1, which
    is proportional to cof(g) v since (g^-1)^T = cof(g) / det g."""

    @staticmethod
    def moved_by(g):
        if not _det3(g):
            raise InvalidInput("matrix is singular")
        return _cofactors(g)


def _cross(u, v):
    return tuple(_minor(u[(k + 1) % 3], u[(k + 2) % 3],
                        v[(k + 1) % 3], v[(k + 2) % 3]) for k in range(3))


def _cofactors(m):
    """Row i of the cofactor matrix is row i+1 cross row i+2 (mod 3)."""
    return tuple(_cross(m[(i + 1) % 3], m[(i + 2) % 3]) for i in range(3))


def _det3(m):
    return _dot(m[0], _cross(m[1], m[2]))


# Plucker coordinates are indexed by these pairs, in this order.
PLUCKER_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class Line3D(_Projective):
    """A line in P^3 as its Plucker vector: p_ij = u_i v_j - u_j v_i over
    PLUCKER_PAIRS for two points u, v spanning it, unique up to scale."""

    @classmethod
    def from_forms(cls, forms):
        """The line a.x = b.x = 0.  With d_kl = a_k b_l - a_l b_k, p_ij is
        d_kl for the complementary pair, signed as the permutation
        (i, j, k, l): p = (d23, -d13, d12, d03, -d02, d01)."""
        for form in forms:
            if len(form) != 4:
                raise InvalidInput(f"a form has width {len(form)}, need 4")
        a, b = forms
        d = [a[k] * b[l] - a[l] * b[k] for k, l in PLUCKER_PAIRS]
        p = (d[5], -d[4], d[3], d[2], -d[1], d[0])
        if not any(p):
            raise InvalidLine("the two forms are dependent")
        return cls.from_coords(p)

    @staticmethod
    def moved_by(g):
        """The 6x6 matrix of the 2x2 minors of g on rows i, j and columns
        k, l, both pairs over PLUCKER_PAIRS; det g by Laplace on rows 0, 1."""
        m = tuple(tuple(_minor(g[i][k], g[i][l], g[j][k], g[j][l])
                        for k, l in PLUCKER_PAIRS) for i, j in PLUCKER_PAIRS)
        r, s = m[0], m[5]
        if not _dot(r, (s[5], -s[4], s[3], s[2], -s[1], s[0])):
            raise InvalidInput("matrix is singular")
        return m

    def spanning_points(self):
        """Columns k and l of the antisymmetric matrix P_ij = p_ij, for the
        first p_kl != 0: column k is u v_k - v u_k, a point of the line."""
        zero = self.field.zero()
        P = [[zero] * 4 for _ in range(4)]
        for (i, j), c in zip(PLUCKER_PAIRS, self.coords):
            P[i][j], P[j][i] = c, -c
        k, l = next(pair for pair, c in zip(PLUCKER_PAIRS, self.coords) if c)
        return [tuple(row[k] for row in P), tuple(row[l] for row in P)]


def fermat_cubic(field, names=SPACE_VARS) -> Polynomial:
    table = make_table(names)
    acc = Polynomial.zero(table, field)
    for name in names:
        acc = acc + Polynomial.variable(name, table, field) ** 3
    return acc


def fermat_lines():
    """The 27 lines on x^3+y^3+z^3+w^3 = 0, exact over Q(zeta_3).

    Three families of 3x3 lines: {x + w1*y = z + w2*w = 0},
    {x + w1*z = y + w2*w = 0}, {x + w1*w = y + w2*z = 0}, with w1, w2
    running over the cube roots of unity.
    """
    F = cyclotomic_field(3)
    zero, one = F.zero(), F.one()
    roots = (one, F.gen(), F.gen() ** 2)
    shapes = (
        lambda w1, w2: ((one, w1, zero, zero), (zero, zero, one, w2)),
        lambda w1, w2: ((one, zero, w1, zero), (zero, one, zero, w2)),
        lambda w1, w2: ((one, zero, zero, w1), (zero, one, w2, zero)),
    )
    lines = []
    for shape in shapes:
        for w1 in roots:
            for w2 in roots:
                lines.append(Line3D.from_forms(shape(w1, w2)))
    return lines


def line_on_surface(line: Line3D, F: Polynomial) -> bool:
    """Exact check: the parametrized line lies inside the cubic surface."""
    if len(F.table) != 4 or not F.is_homogeneous() or F.weighted_degree() != 3:
        raise InvalidInput("expected a homogeneous cubic in four variables")
    p, q = line.spanning_points()
    st = make_table(("s", "t"))
    images = {}
    for i, name in enumerate(F.table.names):
        images[name] = Polynomial(st, F.field, {(1, 0): p[i], (0, 1): q[i]})
    return not substitute(F, SpecializationMap(images))


def embedded(v):
    """Complex coordinates of an exact coordinate vector (nf_embed_complex)."""
    return tuple(nf_embed_complex(c) for c in v)


def induced_permutation(g, objects):
    """Index permutation sending each object to its image under g.

    The objects are of one kind and move by its moved_by(g); images are
    matched exactly.  Non-membership raises NotInvariant, a double match
    raises CollisionAtTolerance.
    """
    if not objects:
        return ()
    m = type(objects[0]).moved_by(g)
    index = {obj.coords: i for i, obj in enumerate(objects)}
    perm = [None] * len(objects)
    taken = [False] * len(objects)
    for i, obj in enumerate(objects):
        j = index.get(_image(m, obj.coords))
        if j is None:
            raise NotInvariant(f"image of object {i} is not in the set")
        if taken[j]:
            raise CollisionAtTolerance(f"two objects map to index {j}")
        perm[i] = j
        taken[j] = True
    return tuple(perm)


class GroupAction:
    """The objects acted on and every group element's permutation,
    identity first."""

    def __init__(self, objects: list, permutations: list):
        self.objects, self.permutations = objects, permutations


def compose_permutations(outer, inner):
    """Permutation of first applying inner, then outer."""
    return tuple(outer[inner[i]] for i in range(len(inner)))


def make_group_action(generators, p: int, objects) -> GroupAction:
    """The action of (Z/p)^r on the objects, from the r generator matrices.

    Only the generators move objects.  CheckFailed names the first
    generator whose permutation has order not dividing p or fails to
    commute with an earlier one; past that check e -> perm(g_1)^e_1 ...
    perm(g_r)^e_r is an action of (Z/p)^r, and it is listed for e in
    itertools.product(range(p), repeat=r) order, the identity first.
    """
    objects = list(objects)
    perms = [induced_permutation(g, objects) for g in generators]
    identity = tuple(range(len(objects)))
    powers = []
    for i, perm in enumerate(perms):
        row = [identity]
        for _ in range(p - 1):
            row.append(compose_permutations(perm, row[-1]))
        if compose_permutations(perm, row[-1]) != identity:
            raise CheckFailed(f"generator {i + 1}: permutation order does "
                              f"not divide {p}")
        for j, other in enumerate(perms[:i]):
            if compose_permutations(perm, other) != \
                    compose_permutations(other, perm):
                raise CheckFailed(f"generator {i + 1} does not commute "
                                  f"with generator {j + 1}")
        powers.append(row)
    listed = [identity]
    for row in reversed(powers):
        listed = [compose_permutations(power, q) for power in row
                  for q in listed]
    return GroupAction(objects, listed)


def common_fixed_check(action: GroupAction) -> dict:
    """Per nontrivial element: moved-object count and least displacement;
    per element its fixed count, and the objects in free orbits.

    PASS means every nontrivial element moves at least one object.  The
    displacement of a moved object is the chordal distance between the
    complex embeddings of its coordinates and its image's.  An object no
    nontrivial element fixes lies in a free orbit.
    """
    n = len(action.objects)
    emb = [embedded(obj.coords) for obj in action.objects]
    rows = []
    stabilized = set()
    for gi, perm in enumerate(action.permutations[1:], 1):
        moved = [i for i in range(n) if perm[i] != i]
        stabilized.update(i for i in range(n) if perm[i] == i)
        min_disp = min((chordal_distance(emb[perm[i]], emb[i])
                        for i in moved), default=None)
        rows.append({"element": gi, "moved": len(moved),
                     "min_displacement": min_disp})
    free = n - len(stabilized)
    return {"rows": rows,
            "verdict": "PASS" if all(r["moved"] for r in rows) else "FAIL",
            "group_order": len(action.permutations),
            "fixed_per_element": [n - r["moved"] for r in rows],
            "objects_in_free_orbits": free,
            "has_free_orbit": free > 0,
            "entirely_free": not stabilized}


def compose_with_matrix(F: Polynomial, m_rows) -> Polynomial:
    """F(M x): substitute each variable with its row of the matrix."""
    n = len(F.table)
    if len(m_rows) != n or any(len(r) != n for r in m_rows):
        raise InvalidInput("matrix does not match the variable count")
    images = {}
    for i, name in enumerate(F.table.names):
        terms = {}
        for j in range(n):
            if m_rows[i][j]:
                e = [0] * n
                e[j] = 1
                terms[tuple(e)] = m_rows[i][j]
        images[name] = Polynomial(F.table, F.field, terms)
    return substitute(F, SpecializationMap(images))


def verify_projective_equivalence(F: Polynomial, G: Polynomial, m_rows):
    """Decide F(Mx) = lambda * G exactly, as proportionality does."""
    if not _det3(m_rows):
        raise InvalidInput("matrix is singular")
    return proportionality(compose_with_matrix(F, m_rows), G)


def proportionality(FM: Polynomial, G: Polynomial):
    """Decide FM = lambda * G exactly; report numerically on failure.

    Returns the exact nonzero lambda on success.  Otherwise returns a
    report dict with the best numeric proportionality factor and the
    maximum coefficient deviation, judged at NUMERIC_TOL.
    """
    if FM.table != G.table or FM.field != G.field:
        raise InvalidInput("the two quartics live in different rings")
    if FM and G:
        e, lead = G.leading_term()
        cand = FM.terms.get(e)
        if cand is not None:
            lam = cand / lead
            if lam and FM == G * lam:
                return lam
    # numeric fallback: compare embedded coefficient vectors
    exps = sorted(set(FM.terms) | set(G.terms))
    fv = [nf_embed_complex(FM.terms.get(e, 0)) for e in exps]
    gv = [nf_embed_complex(G.terms.get(e, 0)) for e in exps]
    f_max = max(abs(c) for c in fv)
    k = max(range(len(gv)), key=lambda i: abs(gv[i]))
    report = {"exact": False, "lambda": None,
              "numeric_tol": NUMERIC_TOL, "monomials": len(exps)}
    if abs(gv[k]) == 0:
        report["numeric_proportional"] = False
        report["max_abs_deviation"] = f_max
        return report
    lam_num = fv[k] / gv[k]
    dev = max(abs(f - lam_num * g) for f, g in zip(fv, gv))
    scale = max(f_max, abs(gv[k]), 1.0)
    report["numeric_lambda"] = (lam_num.real, lam_num.imag)
    report["max_abs_deviation"] = dev
    report["numeric_proportional"] = dev <= NUMERIC_TOL * scale
    return report

"""Lines on the Fermat cubic surface and finite group actions.

The 27 lines are exact objects over Q(zeta_3): a line is the common
zero set of two independent linear forms in (x, y, z, w), canonically
presented by the reduced row echelon form of its 2x4 coefficient
matrix.  Group elements act exactly on these lines and on exact plane
points and lines; induced index permutations feed the faithfulness and
freeness checks.  Projective equivalence of two ternary quartics under
an explicit matrix is decided exactly; when the exact comparison fails,
a report of the complex-embedded coefficients says by how much.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CollisionAtTolerance,
    InvalidInput,
    InvalidLine,
    NotInvariant,
)
from .fields import cyclotomic_field, nf_embed_complex
from .linalg import Matrix
from .numroots import chordal_distance
from .poly import Polynomial, SpecializationMap, make_table, substitute

SPACE_VARS = ("x", "y", "z", "w")
PLANE_VARS = ("x", "y", "z")

# verify_projective_equivalence calls embedded coefficient vectors
# proportional when they deviate by at most this, relative to their size.
NUMERIC_TOL = 1e-8


@dataclass(frozen=True)
class Line3D:
    """A line in P^3 as the zero set of two independent linear forms.

    rows is the 2x4 reduced row echelon coefficient matrix, making the
    representation unique per line.
    """

    rows: tuple
    field: object

    @classmethod
    def from_forms(cls, row_lists, field):
        M = Matrix.from_rows([list(r) for r in row_lists], field, cols=4)
        R, pivots = M.rref()
        if len(pivots) != 2:
            raise InvalidLine(f"coefficient rank {len(pivots)}, need 2")
        rows = tuple(tuple(R.row(i)) for i in range(2))
        return cls(rows, field)

    def spanning_points(self):
        """Two independent points on the line (kernel of the form matrix)."""
        M = Matrix.from_rows([list(r) for r in self.rows], self.field, cols=4)
        return [tuple(v) for v in M.kernel_basis()]


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
                lines.append(Line3D.from_forms(shape(w1, w2), F))
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


def matrix_inverse(rows, field):
    """Inverse of a square matrix given as row tuples; exact."""
    n = len(rows)
    aug = [list(r) + [field.one() if i == j else field.zero()
                      for j in range(n)] for i, r in enumerate(rows)]
    R, pivots = Matrix.from_rows(aug, field, cols=2 * n).rref()
    if list(pivots) != list(range(n)):
        raise InvalidInput("matrix is singular")
    return tuple(tuple(R.row(i)[n:]) for i in range(n))


def _push_forms(line: Line3D, inv_matrix: Matrix) -> Line3D:
    """Image of the line under g, given g^-1 as a Matrix.

    A point P lies on g.L exactly when g^-1 P solves the old forms, so
    the new coefficient rows are rows * g^-1.
    """
    M = Matrix.from_rows([list(r) for r in line.rows], line.field, cols=4)
    return Line3D.from_forms((M * inv_matrix).row_lists(), line.field)


def _normalize(v):
    """v divided by its last nonzero coordinate."""
    last = next((c for c in reversed(v) if c), None)
    if last is None:
        raise InvalidInput("the zero vector is no projective point")
    inv = last.inverse()
    return tuple(c * inv for c in v)


def _plane_image(m, v, covector: bool = False):
    """The normalised image m v of a plane point, or v m of a covector."""
    rows = zip(*m) if covector else m    # v m is m^T v
    return _normalize(tuple(r[0] * v[0] + r[1] * v[1] + r[2] * v[2]
                            for r in rows))


@dataclass(frozen=True)
class _PlaneObject:
    """Exact projective coordinates, last nonzero coordinate 1."""

    coords: tuple

    @classmethod
    def from_coords(cls, coords):
        return cls(_normalize(tuple(coords)))

    @property
    def field(self):
        return self.coords[0].field


class PointP2(_PlaneObject):
    """Projective plane point; moves to g v."""


class LineP2(_PlaneObject):
    """Projective plane line ax+by+cz = 0 as a covector; moves to v g^-1."""


def embedded(v):
    """Complex coordinates of an exact point or covector (_embed_root)."""
    root = _embed_root(v[0].field)
    return tuple(nf_embed_complex(c, root) for c in v)


def _embed_root(field) -> int:
    """Deterministic embedding choice: the last root in (re, im) order.

    For a cyclotomic field that is exp(2 pi i/n); rationals ignore it.
    """
    roots = getattr(field, "embedding_roots", None)
    return len(roots()) - 1 if roots else 0


def induced_permutation(g, objects):
    """Index permutation sending each object to its image under g.

    Objects are exact and matched exactly: a Line3D moves by its forms
    times g^-1, a PointP2 to g v and a LineP2 to v g^-1.  Non-membership
    raises NotInvariant, a double match raises CollisionAtTolerance.
    """
    if not objects:
        return ()
    field = objects[0].field
    if isinstance(objects[0], Line3D):
        inv = Matrix.from_rows(
            [list(r) for r in matrix_inverse(g, field)], field)
        keys = [line.rows for line in objects]
        images = (_push_forms(line, inv).rows for line in objects)
    elif isinstance(objects[0], LineP2):
        inv = matrix_inverse(g, field)
        keys = [line.coords for line in objects]
        images = (_plane_image(inv, v, covector=True) for v in keys)
    else:
        keys = [point.coords for point in objects]
        images = (_plane_image(g, v) for v in keys)
    index = {key: i for i, key in enumerate(keys)}
    perm = [None] * len(objects)
    taken = [False] * len(objects)
    for i, image in enumerate(images):
        j = index.get(image)
        if j is None:
            raise NotInvariant(f"image of object {i} is not in the set")
        if taken[j]:
            raise CollisionAtTolerance(f"two objects map to index {j}")
        perm[i] = j
        taken[j] = True
    return tuple(perm)


@dataclass
class GroupAction:
    """Matrices (identity first), the objects acted on, and the perms."""

    matrices: list
    objects: list
    permutations: list


def _is_identity_matrix(m) -> bool:
    for i, row in enumerate(m):
        for j, entry in enumerate(row):
            want_one = i == j
            if bool(entry) != want_one:
                return False
            if want_one and entry * entry != entry:
                return False
    return True


def make_group_action(matrices, objects) -> GroupAction:
    if not matrices or not _is_identity_matrix(matrices[0]):
        raise InvalidInput("matrices[0] must be the identity")
    perms = [induced_permutation(g, objects) for g in matrices]
    return GroupAction(list(matrices), list(objects), perms)


def compose_permutations(outer, inner):
    """Permutation of first applying inner, then outer."""
    return tuple(outer[inner[i]] for i in range(len(inner)))


def homomorphism_spot_check(action: GroupAction, rng, samples: int = 10):
    """induced_permutation(g*h) == perm(g) after perm(h) on random pairs."""
    k = len(action.matrices)
    if k < 2:
        return True
    field = action.objects[0].field
    for _ in range(samples):
        i = rng.randrange(k)
        j = rng.randrange(k)
        gi, gj = (Matrix.from_rows([list(r) for r in action.matrices[m]],
                                   field) for m in (i, j))
        got = induced_permutation((gi * gj).row_lists(), action.objects)
        want = compose_permutations(action.permutations[i],
                                    action.permutations[j])
        if got != want:
            return False
    return True


def common_fixed_check(action: GroupAction) -> dict:
    """Per nontrivial element: moved-object count and least displacement.

    PASS means every nontrivial element moves at least one object.  The
    displacement of a moved plane object is the chordal distance between
    the complex embeddings of it and its image; lines in P^3 report none.
    """
    objects = action.objects
    emb = (None if not objects or isinstance(objects[0], Line3D)
           else [embedded(obj.coords) for obj in objects])
    rows = []
    verdict = "PASS"
    for gi in range(1, len(action.matrices)):
        perm = action.permutations[gi]
        moved = [i for i in range(len(perm)) if perm[i] != i]
        min_disp = None
        if emb is not None and moved:
            min_disp = min(chordal_distance(emb[perm[i]], emb[i])
                           for i in moved)
        if not moved:
            verdict = "FAIL"
        rows.append({"element": gi, "moved": len(moved),
                     "min_displacement": min_disp})
    return {"rows": rows, "verdict": verdict,
            "elements": len(action.matrices) - 1}


def k_group_matrices():
    """All 27 exact diagonal elements diag(z^a, z^b, z^c, 1), identity first."""
    F = cyclotomic_field(3)
    zero = F.zero()
    out = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                diag = (F.gen() ** a, F.gen() ** b, F.gen() ** c, F.one())
                rows = tuple(tuple(diag[i] if i == j else zero
                                   for j in range(4)) for i in range(4))
                out.append(rows)
    return out


def h_group_matrices(field):
    """The four sign diagonals diag(+-1, +-1, 1) over field, identity first."""
    one, zero = field.one(), field.zero()
    return [tuple(tuple(sign if i == j else zero for j in range(3))
                  for i, sign in enumerate((sx, sy, one)))
            for sy in (one, -one) for sx in (one, -one)]


def _det3(rows):
    a, b, c = rows[0]
    d, e, f = rows[1]
    g, h, i = rows[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


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


def verify_projective_equivalence(F: Polynomial, G: Polynomial, m_rows,
                                  root_index: int = 0):
    """Decide F(Mx) = lambda * G exactly; report numerically on failure.

    Returns the exact nonzero lambda on success.  Otherwise returns a
    report dict with the best numeric proportionality factor and the
    maximum coefficient deviation, judged at NUMERIC_TOL.
    """
    if F.table != G.table or F.field != G.field:
        raise InvalidInput("the two quartics live in different rings")
    if not _det3(m_rows):
        raise InvalidInput("matrix is singular")
    FM = compose_with_matrix(F, m_rows)
    if FM and G:
        e, lead = G.leading_term()
        cand = FM.terms.get(e)
        if cand is not None:
            lam = cand / lead
            if lam and FM == G * lam:
                return lam
    # numeric fallback: compare embedded coefficient vectors
    exps = sorted(set(FM.terms) | set(G.terms))
    fv = [nf_embed_complex(FM.terms.get(e, 0), root_index) for e in exps]
    gv = [nf_embed_complex(G.terms.get(e, 0), root_index) for e in exps]
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

"""Lines on the Fermat cubic surface and finite group actions.

The 27 lines are exact objects over Q(zeta_3): a line is the common
zero set of two independent linear forms in (x, y, z, w), canonically
presented by the reduced row echelon form of its 2x4 coefficient
matrix.  Group elements act exactly on lines and numerically on plane
points and lines; induced index permutations feed the faithfulness and
freeness checks.  Projective equivalence of two ternary quartics under
an explicit matrix is decided exactly, with a numeric fallback report
when the exact comparison fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CollisionAtTolerance,
    InvalidInput,
    InvalidLine,
    NotInvariant,
)
from .fields import cyclotomic_field, nf_embed_complex
from .linalg import Matrix
from .numroots import chordal_distance, normalize_projective
from .poly import Polynomial, SpecializationMap, make_table, substitute

SPACE_VARS = ("x", "y", "z", "w")
PLANE_VARS = ("x", "y", "z")


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


@dataclass(frozen=True)
class PointP2:
    """Projective plane point: largest-modulus coordinate is exactly 1."""

    coords: tuple

    @classmethod
    def from_coords(cls, coords):
        return cls(normalize_projective(tuple(complex(c) for c in coords)))


@dataclass(frozen=True)
class LineP2:
    """Projective plane line ax+by+cz = 0, normalized like PointP2."""

    coords: tuple

    @classmethod
    def from_coords(cls, coords):
        return cls(normalize_projective(tuple(complex(c) for c in coords)))


def _numeric_image(g, obj):
    m = np.asarray(g, dtype=complex)
    if isinstance(obj, PointP2):
        return tuple(m @ np.array(obj.coords))
    if isinstance(obj, LineP2):
        # Lines transform by the inverse: (l . g^-1 P) = 0.
        return tuple(np.array(obj.coords) @ np.linalg.inv(m))
    raise InvalidInput(f"cannot act on {type(obj).__name__}")


def induced_permutation(g, objects, tol: float = None):
    """Index permutation sending each object to its image under g.

    Exact matching for Line3D lists; nearest-object matching within tol
    for numeric plane points and lines.  Non-membership raises
    NotInvariant, a double match raises CollisionAtTolerance.
    """
    if not objects:
        return ()
    perm = [None] * len(objects)
    taken = [False] * len(objects)
    if isinstance(objects[0], Line3D):
        field = objects[0].field
        inv = Matrix.from_rows(
            [list(r) for r in matrix_inverse(g, field)], field)
        index = {line.rows: i for i, line in enumerate(objects)}
        for i, line in enumerate(objects):
            moved = _push_forms(line, inv)
            j = index.get(moved.rows)
            if j is None:
                raise NotInvariant(f"image of line {i} is not in the set")
            if taken[j]:
                raise CollisionAtTolerance(f"two lines map to index {j}")
            perm[i] = j
            taken[j] = True
        return tuple(perm)
    if tol is None:
        raise InvalidInput("numeric objects need a tolerance")
    for i, obj in enumerate(objects):
        image = normalize_projective(_numeric_image(g, obj))
        dists = [chordal_distance(image, o.coords) for o in objects]
        j = min(range(len(objects)), key=dists.__getitem__)
        if dists[j] >= tol:
            raise NotInvariant(
                f"image of object {i} misses the set by {dists[j]:.3e}")
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
    tol: float = None


def _is_identity_matrix(m, exact: bool) -> bool:
    if exact:
        for i, row in enumerate(m):
            for j, entry in enumerate(row):
                want_one = i == j
                if bool(entry) != want_one:
                    return False
                if want_one and entry * entry != entry:
                    return False
        return True
    arr = np.asarray(m, dtype=complex)
    return bool(np.allclose(arr, np.eye(arr.shape[0]), atol=1e-12))


def make_group_action(matrices, objects, tol: float = None) -> GroupAction:
    exact = bool(objects) and isinstance(objects[0], Line3D)
    if not matrices or not _is_identity_matrix(matrices[0], exact):
        raise InvalidInput("matrices[0] must be the identity")
    perms = [induced_permutation(g, objects, tol) for g in matrices]
    return GroupAction(list(matrices), list(objects), perms, tol)


def compose_permutations(outer, inner):
    """Permutation of first applying inner, then outer."""
    return tuple(outer[inner[i]] for i in range(len(inner)))


def homomorphism_spot_check(action: GroupAction, rng, samples: int = 10):
    """induced_permutation(g*h) == perm(g) after perm(h) on random pairs."""
    k = len(action.matrices)
    if k < 2:
        return True
    exact = isinstance(action.objects[0], Line3D)
    for _ in range(samples):
        i = rng.randrange(k)
        j = rng.randrange(k)
        if exact:
            gi = Matrix.from_rows([list(r) for r in action.matrices[i]],
                                  action.objects[0].field)
            gj = Matrix.from_rows([list(r) for r in action.matrices[j]],
                                  action.objects[0].field)
            product = (gi * gj).row_lists()
        else:
            product = (np.asarray(action.matrices[i], dtype=complex)
                       @ np.asarray(action.matrices[j], dtype=complex))
        got = induced_permutation(product, action.objects, action.tol)
        want = compose_permutations(action.permutations[i],
                                    action.permutations[j])
        if got != want:
            return False
    return True


def _displacement(action: GroupAction, mat_index: int, obj_index: int):
    obj = action.objects[obj_index]
    if isinstance(obj, Line3D):
        return None
    image = normalize_projective(
        _numeric_image(action.matrices[mat_index], obj))
    return chordal_distance(image, obj.coords)


def common_fixed_check(action: GroupAction) -> dict:
    """Per nontrivial element: moved-object count and least displacement.

    PASS means every nontrivial element moves at least one object, with
    displacement above 1000x the action tolerance when objects are
    numeric (exact objects either move or they do not).
    """
    rows = []
    verdict = "PASS"
    threshold = None if action.tol is None else 1e3 * action.tol
    for gi in range(1, len(action.matrices)):
        perm = action.permutations[gi]
        moved = [i for i in range(len(perm)) if perm[i] != i]
        min_disp = None
        for i in moved:
            d = _displacement(action, gi, i)
            if d is not None and (min_disp is None or d < min_disp):
                min_disp = d
        ok = bool(moved)
        if ok and threshold is not None and min_disp is not None:
            ok = min_disp > threshold
        if not ok:
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


def h_group_matrices():
    """The four sign-diagonal elements of order dividing 2, identity first."""
    return [np.diag([1.0, 1.0, 1.0]),
            np.diag([-1.0, 1.0, 1.0]),
            np.diag([1.0, -1.0, 1.0]),
            np.diag([-1.0, -1.0, 1.0])]


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
                                  numeric_tol: float = 1e-8,
                                  root_index: int = 0):
    """Decide F(Mx) = lambda * G exactly; report numerically on failure.

    Returns the exact nonzero lambda on success.  Otherwise returns a
    report dict with the best numeric proportionality factor and the
    maximum coefficient deviation, judged at numeric_tol.
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
    fv = np.array([nf_embed_complex(FM.terms.get(e, 0), root_index)
                   for e in exps])
    gv = np.array([nf_embed_complex(G.terms.get(e, 0), root_index)
                   for e in exps])
    k = int(np.argmax(np.abs(gv)))
    report = {"exact": False, "lambda": None,
              "numeric_tol": numeric_tol, "monomials": len(exps)}
    if abs(gv[k]) == 0:
        report["numeric_proportional"] = False
        report["max_abs_deviation"] = float(np.max(np.abs(fv)))
        return report
    lam_num = fv[k] / gv[k]
    dev = float(np.max(np.abs(fv - lam_num * gv)))
    scale = float(max(np.max(np.abs(fv)), np.max(np.abs(gv)), 1.0))
    report["numeric_lambda"] = (float(lam_num.real), float(lam_num.imag))
    report["max_abs_deviation"] = dev
    report["numeric_proportional"] = bool(dev <= numeric_tol * scale)
    return report

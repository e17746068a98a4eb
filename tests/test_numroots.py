import cmath
import math
import random

import numpy as np
import pytest

from enumtc.errors import InvalidInput
from enumtc.numroots import (
    aberth_roots,
    chordal_distance,
    cluster_points,
    damped_newton,
    normalize_projective,
    polyeig,
    projective_binary_roots,
)


def match_multisets(found, expected, tol):
    # Greedy nearest matching; fine when expected points are separated.
    left = list(expected)
    for z in found:
        best = min(range(len(left)), key=lambda i: abs(left[i] - z))
        assert abs(left[best] - z) < tol
        left.pop(best)
    assert not left


def scalar_aberth(coeffs, tol=1e-13, max_iter=200):
    # The one-polynomial loop aberth_roots batches, kept as its
    # reference; it reports a stall instead of raising.
    cs = [complex(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    zeros_at_origin = 0
    while cs[0] == 0:
        cs.pop(0)
        zeros_at_origin += 1
    degree = len(cs) - 1
    roots = [0j] * zeros_at_origin
    if degree == 0:
        return roots, True
    if degree == 1:
        return roots + [-cs[0] / cs[1]], True
    radius = 1.0 + max(abs(c / cs[-1]) for c in cs[:-1])
    z = [radius * cmath.exp(2j * math.pi * (k + 0.357) / degree)
         for k in range(degree)]
    der = [i * c for i, c in enumerate(cs)][1:]

    def horner(coeffs, x):
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    for _ in range(max_iter):
        moved = 0.0
        for i in range(degree):
            pi = horner(cs, z[i])
            floor = 8.0 * 2.220446049250313e-16 * horner(
                [abs(c) for c in cs], abs(z[i])).real
            if abs(pi) <= floor:
                continue
            di = horner(der, z[i])
            if di == 0:
                z[i] = z[i] * (1 + 1e-8) + 1e-8
                moved = math.inf
                continue
            ratio = pi / di
            s = 0j
            for j in range(degree):
                if j != i:
                    s += 1.0 / (z[i] - z[j])
            denom = 1.0 - ratio * s
            step = ratio if denom == 0 else ratio / denom
            z[i] = z[i] - step
            moved = max(moved, abs(step) / (1.0 + abs(z[i])))
        if moved < tol:
            return roots + z, True
    return roots + z, False


def poly_from_roots(roots):
    coeffs = np.array([1 + 0j])
    for r in roots:
        coeffs = np.convolve(coeffs, np.array([-r, 1 + 0j]))
    return coeffs


def test_cubic_roots():
    # (t-1)(t-2)(t-3) = -6 + 11 t - 6 t^2 + t^3, with the same cubic
    # scaled and with a trailing zero in the same batch
    rows = [[-6, 11, -6, 1], [-12, 22, -12, 2], [-6, 11, -6, 1, 0]]
    roots, ok = aberth_roots(rows)
    assert ok.all()
    for found in roots:
        match_multisets(found, [1, 2, 3], 1e-10)


def test_zero_roots_split_off():
    # t^2 (t - 5), 5 t^3, t (t - 1)(t + 1)
    roots, ok = aberth_roots([[0, 0, -5, 1], [0, 0, 0, 5], [0, -1, 0, 1]])
    assert ok.all()
    assert roots[0][:2].tolist() == [0, 0]
    match_multisets(roots[0], [0, 0, 5], 1e-10)
    assert roots[1].tolist() == [0, 0, 0]
    match_multisets(roots[2], [0, 1, -1], 1e-10)


def test_degree_one_and_invalid():
    roots, ok = aberth_roots([[3, -1], [0, 2, 0]])
    assert [r.tolist() for r in roots] == [[3.0], [0.0]]
    assert ok.tolist() == [True, True]
    for bad in ([7], [0, 0], []):
        with pytest.raises(InvalidInput):
            aberth_roots([[3, -1], bad])
    roots, ok = aberth_roots([])
    assert roots == [] and ok.size == 0


def test_random_roots_recovered():
    rng = random.Random(7001)
    expected, rows = [], []
    for _ in range(100):
        deg = rng.randrange(2, 9)
        roots = []
        while len(roots) < deg:
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if all(abs(z - w) > 0.3 for w in roots):
                roots.append(z)
        expected.append(roots)
        rows.append(poly_from_roots(roots))
    found, ok = aberth_roots(rows)
    assert ok.all()
    for got, roots, coeffs in zip(found, expected, rows):
        match_multisets(got, roots, 1e-7)
        match_multisets(got, list(np.roots(list(reversed(coeffs)))), 1e-6)


def test_aberth_lanes_run_as_if_alone():
    rng = random.Random(7002)
    rows = [poly_from_roots([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                             for _ in range(deg)]) for deg in (2, 5, 5, 9)]
    rows += [
        [0j, 0j, 2, -3, 0j, 1, 0j, 0j],       # t^2 (t-1)^2 (t+2), both ends
        [0j, 4, 1, 0j],                       # roots 0 and -4
        [0j, 0j, 5],                          # only roots at 0
        poly_from_roots([1.5, 1.5, -0.5j]),   # a double root
    ]
    # numpy's complex arithmetic rounds differently from Python's, and a
    # double root moves by about the square root of that, sqrt(eps)
    tols = [1e-12] * 4 + [1e-7, 1e-12, 1e-12, 1e-7]
    roots, ok = aberth_roots(rows)
    assert ok.all()
    for row, got, tol in zip(rows, roots, tols):
        (alone,), _ = aberth_roots([row])
        assert np.array_equal(alone, got)
        ref, ref_ok = scalar_aberth(row)
        assert ref_ok and len(ref) == len(got)
        assert max(abs(a - b) for a, b in zip(ref, got)) < tol
    # two rounds cannot finish the degree-9 lane: it reports that, and
    # no lane's stall changes another lane
    short, ok = aberth_roots(rows, max_iter=2)
    assert not ok[3] and ok[5:7].all()
    assert np.array_equal(short[5], roots[5])
    assert np.array_equal(short[6], roots[6])
    for i, row in enumerate(rows):
        (alone,), (alone_ok,) = aberth_roots([row], max_iter=2)
        assert np.array_equal(alone, short[i]) and alone_ok == ok[i]
    ref, ref_ok = scalar_aberth(rows[3], max_iter=2)
    assert not ref_ok
    assert max(abs(a - b) for a, b in zip(ref, short[3])) < 1e-12


def test_binary_form_roots():
    # s^3 t - s t^3 = s t (s - t)(s + t)
    roots = projective_binary_roots([0j, 1 + 0j, 0j, -1 + 0j, 0j], 4)
    assert roots[0] == (1 + 0j, 0j)
    assert roots[1] == (0j, 1 + 0j)
    finite = sorted(roots[2:], key=lambda st: st[1].real)
    assert abs(finite[0][1] + 1) < 1e-10
    assert abs(finite[1][1] - 1) < 1e-10
    with pytest.raises(InvalidInput):
        projective_binary_roots([0j, 0j], 1)
    with pytest.raises(InvalidInput):
        projective_binary_roots([1 + 0j], 2)


def test_normalize_projective():
    v = normalize_projective((3j, 1 + 0j))
    assert v[0] == 1
    assert abs(v[1] - (-1j / 3)) < 1e-15
    # scaling invariance
    w = normalize_projective((3j * (2 - 1j), (1 + 0j) * (2 - 1j)))
    assert max(abs(a - b) for a, b in zip(v, w)) < 1e-15
    with pytest.raises(InvalidInput):
        normalize_projective((0j, 0j))


def test_chordal_distance():
    assert chordal_distance((1, 0), (0, 1)) == 1.0
    assert chordal_distance((1, 0), (2, 0)) < 1e-15
    assert chordal_distance((1, 0), (1j, 0)) < 1e-15
    d = chordal_distance((1, 1), (1, 0))
    assert abs(d - math.sin(math.pi / 4)) < 1e-12


def test_cluster_points_merges_and_is_idempotent():
    pts = [(1 + 0j, 0j), (1 + 0j, 1e-9 + 0j), (0j, 1 + 0j),
           (1 + 0j, 1 + 0j)]
    clusters = cluster_points(pts, 1e-6)
    assert [ms for _, ms in clusters] == [[0, 1], [2], [3]]
    reps = [rep for rep, _ in clusters]
    again = cluster_points(reps, 1e-6)
    assert [ms for _, ms in again] == [[0], [1], [2]]


def test_cluster_points_chains_transitively():
    # chordal distance between angles a and b is |sin(a - b)|; p1 sits
    # within the radius of p0 and p2, which are farther apart.  p1 comes
    # last, so it has to join two groups that are already separate.
    p0, p1, p2 = [(math.cos(a) + 0j, math.sin(a) + 0j)
                  for a in (0.0, 0.3, 0.6)]
    assert chordal_distance(p0, p1) < 0.4 and chordal_distance(p1, p2) < 0.4
    assert chordal_distance(p0, p2) > 0.4
    clusters = cluster_points([p0, p2, p1], 0.4)
    assert clusters == [(p0, [0, 1, 2])]


def reference_clusters(points, radius):
    # pairwise union-find over the scalar chordal_distance
    parent = list(range(len(points)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if chordal_distance(points[i], points[j]) < radius:
                parent[find(j)] = find(i)
    groups = {}
    for i in range(len(points)):
        groups.setdefault(find(i), []).append(i)
    return [(points[ms[0]], ms)
            for ms in sorted(groups.values(), key=lambda ms: ms[0])]


def test_cluster_points_matches_pairwise_reference():
    rng = random.Random(20240611)
    radius = 1e-3

    def rand_point():
        return tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1))
                     for _ in range(3))

    def nudge(p):
        # a step of chordal length up to 1.6 radius in a random direction
        w = rand_point()
        size = rng.uniform(0.6, 1.6) * radius * math.sqrt(
            sum(abs(c) ** 2 for c in p) / sum(abs(c) ** 2 for c in w))
        return tuple(a + size * b for a, b in zip(p, w))

    pts = []
    for _ in range(40):
        # random chains: neighbours fall just inside or just outside the
        # radius, and a shuffled chain can join groups formed earlier
        pts.append(rand_point())
        for _ in range(rng.randrange(4)):
            pts.append(nudge(pts[-1]))
    rng.shuffle(pts)
    dists = [chordal_distance(p, q) for i, p in enumerate(pts)
             for q in pts[i + 1:]]
    assert sum(0.5 * radius < d < radius for d in dists) > 10
    assert sum(radius < d < 2 * radius for d in dists) > 10
    assert min(abs(d - radius) for d in dists) > 1e-9 * radius
    got = cluster_points(pts, radius)
    assert got == reference_clusters(pts, radius)
    assert 1 < len(got) < len(pts)
    with pytest.raises(InvalidInput):
        cluster_points(pts[:2] + [(0j, 0j, 0j)], radius)


def test_polyeig_scalar_and_singular_lead():
    vals = polyeig([np.array([[-2.0]]), np.array([[1.0]])])
    assert len(vals) == 1 and abs(vals[0] - 2) < 1e-12
    # det(M(a)) = (a^2 - 1)(a - 3); the a^2 block has singular lead,
    # so one generalized eigenvalue is infinite and gets dropped.
    M0 = np.array([[-1.0, 0.0], [0.0, -3.0]])
    M1 = np.array([[0.0, 0.0], [0.0, 1.0]])
    M2 = np.array([[1.0, 0.0], [0.0, 0.0]])
    vals = polyeig([M0, M1, M2])
    match_multisets(vals, [1, -1, 3], 1e-10)


def test_polyeig_trims_zero_lead():
    vals = polyeig([np.array([[-5.0]]), np.array([[1.0]]),
                    np.array([[0.0]])])
    assert len(vals) == 1 and abs(vals[0] - 5) < 1e-12
    assert polyeig([np.array([[1.0]])]) == []
    with pytest.raises(InvalidInput):
        polyeig([np.eye(2), np.eye(3)])


def test_damped_newton_square_system():
    def fun(Z):
        x, y = Z.T
        return np.stack([x * x + y * y - 5, x * y - 2], axis=1)

    def jac(Z):
        x, y = Z.T
        return np.stack([np.stack([2 * x, 2 * y], axis=1),
                         np.stack([y, x], axis=1)], axis=1)

    Z, res, ok = damped_newton(fun, jac, np.array([[2.2, 0.8]]), tol=1e-12)
    assert ok[0] and res[0] < 1e-12
    assert abs(Z[0, 0] - 2) < 1e-8 and abs(Z[0, 1] - 1) < 1e-8


def test_damped_newton_reports_stall():
    def fun(Z):
        return Z * 0 + 1.0

    def jac(Z):
        return np.ones((len(Z), 1, 1))

    Z, res, ok = damped_newton(fun, jac, np.array([[0.0]]), tol=1e-12,
                               max_iter=5)
    assert not ok[0] and res[0] == 1.0 and Z[0, 0] == 0


def test_damped_newton_lanes_run_as_if_alone():
    # z^2 = 4, with the Jacobian's sign flipped where Re z < 0: those
    # lanes are sent uphill and stall where they start
    def fun(Z):
        return Z * Z - 4

    def jac(Z):
        return (np.where(Z.real < 0, -2, 2) * Z)[:, :, None]

    starts = np.array([[1.3 + 0.2j],      # converges to 2
                       [-2 - 1e-13 + 0j],  # stalls under the floor
                       [-3 + 0j]])         # stalls above it
    Z, res, ok = damped_newton(fun, jac, starts, tol=1e-15, floor=1e-11)
    assert ok.tolist() == [True, True, False]
    assert abs(Z[0, 0] - 2) < 1e-14 and res[0] < 1e-15
    assert 0 < res[1] <= 1e-11 and Z[1, 0] == starts[1, 0]
    assert res[2] == 5.0 and Z[2, 0] == -3
    for i in range(len(starts)):
        Zi, ri, oki = damped_newton(fun, jac, starts[i:i + 1], tol=1e-15,
                                    floor=1e-11)
        assert np.array_equal(Zi[0], Z[i])
        assert ri[0] == res[i] and oki[0] == ok[i]


def test_aberth_against_roots_of_unity():
    rows = [[-1 + 0j] + [0j] * (n - 1) + [1 + 0j] for n in (12, 7)]
    roots, ok = aberth_roots(rows)
    assert ok.all()
    for found, n in zip(roots, (12, 7)):
        expected = [cmath.exp(2j * cmath.pi * k / n) for k in range(n)]
        match_multisets(found, expected, 1e-9)

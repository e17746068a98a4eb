"""Numeric root extraction and refinement.

Simultaneous (Aberth) iteration for univariate complex roots,
projective root lists for binary forms, chordal-metric clustering,
finite eigenvalues of matrix polynomials via a companion pencil, and a
damped Newton corrector that runs a batch of systems in lockstep.
Everything here consumes plain complex numbers; exact coefficients are
embedded upstream, so structural zeros arrive as exact 0j.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import scipy.linalg

from .errors import InvalidInput, NumericFailure


def poly_eval(coeffs, z):
    """Horner evaluation; coefficients low to high."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def poly_derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def _eval_with_floor(coeffs, z):
    """Horner value plus the roundoff floor sum(|c_k| |z|^k) * eps."""
    acc = 0j
    mag = 0.0
    az = abs(z)
    for c in reversed(coeffs):
        acc = acc * z + c
        mag = mag * az + abs(c)
    return acc, 8.0 * 2.220446049250313e-16 * mag


def aberth_roots(coeffs, tol: float = 1e-13, max_iter: int = 200):
    """All complex roots of a univariate polynomial, low-to-high coeffs.

    Exact zero leading (low-order) coefficients contribute roots at 0;
    the remaining roots come from simultaneous iteration.  Convergence
    failure raises NumericFailure.
    """
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) <= 1:
        raise InvalidInput("need degree >= 1 to extract roots")
    zeros_at_origin = 0
    while cs[0] == 0:
        cs.pop(0)
        zeros_at_origin += 1
    degree = len(cs) - 1
    roots = [0j] * zeros_at_origin
    if degree == 0:
        return roots
    if degree == 1:
        return roots + [-cs[0] / cs[1]]
    lead = cs[-1]
    radius = 1.0 + max(abs(c / lead) for c in cs[:-1])
    # Slightly irrational angular offset avoids symmetric stalls.
    start = [radius * cmath.exp(2j * math.pi * (k + 0.357) / degree)
             for k in range(degree)]
    der = poly_derivative(cs)
    z = list(start)
    for _ in range(max_iter):
        moved = 0.0
        for i in range(degree):
            pi, floor = _eval_with_floor(cs, z[i])
            if abs(pi) <= floor:
                # backward-stable root: |p(z)| is below evaluation noise,
                # which is the plateau multiple roots converge onto
                continue
            di = poly_eval(der, z[i])
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
            return roots + z
    raise NumericFailure(f"root iteration stalled after {max_iter} rounds")


def projective_binary_roots(coeffs, degree: int, tol: float = 1e-13):
    """The `degree` projective roots of a binary form.

    coeffs[i] multiplies s^(degree-i) t^i.  Roots are (s, t) pairs
    normalized by normalize_projective; (1, 0) appears with the
    multiplicity of the t factor, (0, 1) with that of the s factor.
    """
    if len(coeffs) != degree + 1:
        raise InvalidInput("coefficient list does not match the degree")
    support = [i for i, c in enumerate(coeffs) if c != 0]
    if not support:
        raise InvalidInput("the zero form has no root list")
    mu, top = support[0], support[-1]
    nu = degree - top
    roots = [(1 + 0j, 0j)] * mu + [(0j, 1 + 0j)] * nu
    middle = coeffs[mu:top + 1]
    if len(middle) > 1:
        for t in aberth_roots(middle, tol=tol):
            roots.append(normalize_projective((1 + 0j, t)))
    return roots


def normalize_projective(vec):
    """Scale so the first largest-modulus coordinate equals exactly 1."""
    best = max(range(len(vec)), key=lambda i: abs(vec[i]))
    pivot = vec[best]
    if pivot == 0:
        raise InvalidInput("cannot normalize the zero vector")
    out = tuple(c / pivot for c in vec)
    return out[:best] + (1 + 0j,) + out[best + 1:]


def chordal_distance(u, v) -> float:
    """sin of the angle between the lines spanned by u and v.

    Computed as |u wedge v| / (|u| |v|); unlike the 1 - cos^2 form
    this keeps full precision at small angles.
    """
    nu = math.sqrt(sum(abs(c) ** 2 for c in u))
    nv = math.sqrt(sum(abs(c) ** 2 for c in v))
    if nu == 0 or nv == 0:
        raise InvalidInput("zero vector has no projective distance")
    wedge = 0.0
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            wedge += abs(u[i] * v[j] - u[j] * v[i]) ** 2
    return min(1.0, math.sqrt(wedge) / (nu * nv))


def cluster_points(points, radius: float):
    """Merge points closer than radius (chordal distance), transitively.

    Returns (representative, member_indices) pairs, representative
    being the member list's first point; order follows first members.
    Each point meets all earlier ones in one array expression, so memory
    stays linear in the number of points.
    """
    P = np.array(points, dtype=complex)
    norms = np.linalg.norm(P, axis=-1)
    if len(P) and not norms.all():
        raise InvalidInput("zero vector has no projective distance")
    label = np.arange(len(P))  # smallest member index of each component
    for i in range(1, len(P)):
        u, V = P[i], P[:i]
        wedge = sum(np.abs(u[a] * V[:, b] - u[b] * V[:, a]) ** 2
                    for a in range(len(u)) for b in range(a + 1, len(u)))
        dist = np.minimum(1.0, np.sqrt(wedge) / (norms[i] * norms[:i]))
        near = label[:i][dist < radius]
        if near.size:
            label[np.isin(label, near)] = label[i] = near.min()
    groups = {}
    for i, g in enumerate(label.tolist()):
        groups.setdefault(g, []).append(i)
    return [(points[ms[0]], ms) for ms in groups.values()]


def polyeig(mats, drop_infinite: float = 1e-10):
    """Finite eigenvalues of M(a) = sum mats[k] a^k via a companion pencil.

    mats are square numpy arrays of one size.  Generalized eigenvalues
    with |beta| <= drop_infinite * |alpha| count as infinite and are
    dropped.
    """
    mats = [np.asarray(m, dtype=complex) for m in mats]
    while len(mats) > 1 and not mats[-1].any():
        mats.pop()
    size = mats[0].shape[0]
    if any(m.shape != (size, size) for m in mats):
        raise InvalidInput("matrix polynomial entries must share one square size")
    d = len(mats) - 1
    if d == 0:
        return []
    big = size * d
    A = np.zeros((big, big), dtype=complex)
    B = np.eye(big, dtype=complex)
    for k in range(d - 1):
        A[k * size:(k + 1) * size, (k + 1) * size:(k + 2) * size] = np.eye(size)
    for k in range(d):
        A[(d - 1) * size:, k * size:(k + 1) * size] = -mats[k]
    B[(d - 1) * size:, (d - 1) * size:] = mats[d]
    alpha, beta = scipy.linalg.eig(A, B, right=False, homogeneous_eigvals=True)
    out = []
    for a, b in zip(alpha, beta):
        if abs(b) > drop_infinite * max(1.0, abs(a)):
            out.append(complex(a / b))
    return out


def damped_newton(fun, jac, Z0, tol: float = 1e-13, max_iter: int = 80,
                  floor: float = 0.0):
    """Newton with step halving on a batch of complex square systems.

    Row i of Z0 (n x k) is lane i.  fun maps the m lanes still running
    to their (m, k') residuals, jac to their (m, k', k) Jacobians.  Each
    lane iterates as if alone: it stops below tol, takes the first of up
    to 25 halved steps that lowers its residual norm, and stalls when
    none does.  Returns (Z, residual norms, converged): converged below
    tol, or stalled at most floor, which drives tol below evaluation
    noise safely.
    """
    Z = np.array(Z0, dtype=complex)
    R = np.asarray(fun(Z), dtype=complex)
    best = np.linalg.norm(R, axis=1)
    running = np.ones(len(Z), dtype=bool)
    for _ in range(max_iter):
        lanes = np.flatnonzero(running & ~(best < tol))
        if not lanes.size:
            break
        J = np.asarray(jac(Z[lanes]), dtype=complex)
        try:
            step = np.linalg.solve(J, -R[lanes, :, None])[..., 0]
        except np.linalg.LinAlgError:
            step = np.array([np.linalg.lstsq(j, -r, rcond=None)[0]
                             for j, r in zip(J, R[lanes])])
        for halving in range(25):
            trial = Z[lanes] + 0.5 ** halving * step
            Rt = np.asarray(fun(trial), dtype=complex)
            nt = np.linalg.norm(Rt, axis=1)
            down = nt < best[lanes]
            hit = lanes[down]
            Z[hit], R[hit], best[hit] = trial[down], Rt[down], nt[down]
            lanes, step = lanes[~down], step[~down]
            if not lanes.size:
                break
        running[lanes] = False
    return Z, best, (best < tol) | (best <= floor)

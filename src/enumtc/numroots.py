"""Numeric root extraction and refinement.

Simultaneous (Aberth) iteration for the complex roots of a batch of
univariate polynomials, projective root lists for binary forms,
chordal-metric clustering, finite eigenvalues of matrix polynomials via
a companion pencil, and a damped Newton corrector that runs a batch of
systems in lockstep.
Everything here consumes plain complex numbers; exact coefficients are
embedded upstream, so structural zeros arrive as exact 0j.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInput, NumericFailure


def aberth_roots(rows, tol: float = 1e-13, max_iter: int = 200):
    """All complex roots of each row's polynomial, coefficients low to high.

    Returns (roots, converged): roots[i] is a complex array of row i's
    roots, and converged[i] is False when row i still moved after
    max_iter rounds.  Exact zero high-order coefficients lower a row's
    degree and exact zero low-order ones give roots at 0; a row of
    degree < 1 raises InvalidInput.  The rows left with one degree run
    as lanes of one simultaneous (Aberth) iteration, each as if alone.
    """
    rows = [np.asarray(r, dtype=complex) for r in rows]
    groups = {}
    for i, r in enumerate(rows):
        support = np.flatnonzero(r)
        if not support.size or support[-1] < 1:
            raise InvalidInput("need degree >= 1 to extract roots")
        lo, hi = support[0], support[-1]
        groups.setdefault(hi - lo, []).append((i, lo, hi))
    roots = [None] * len(rows)
    converged = np.ones(len(rows), dtype=bool)
    for members in groups.values():
        Z, ok = _aberth_lanes(
            np.array([rows[i][lo:hi + 1] for i, lo, hi in members]).T,
            tol, max_iter)
        for (i, lo, _), z, o in zip(members, Z.T, ok):
            roots[i] = np.concatenate([np.zeros(lo, dtype=complex), z])
            converged[i] = o
    return roots, converged


def _aberth_lanes(C, tol, max_iter):
    """Aberth iteration on the columns of C, (degree + 1) x lanes.

    Every column has nonzero ends.  Returns the roots (degree x lanes)
    and which lanes converged.
    """
    degree, lanes = C.shape[0] - 1, C.shape[1]
    if degree < 2:  # no root left, or the one root -c_0 / c_1
        return -C[:degree] / C[degree:], np.ones(lanes, dtype=bool)
    radius = 1.0 + np.abs(C[:-1] / C[-1]).max(axis=0)
    # Slightly irrational angular offset avoids symmetric stalls.
    circle = np.exp(2j * np.pi * (np.arange(degree) + 0.357) / degree)
    Z = circle[:, None] * radius
    # Horner tables for p, p' (top entry 0) and sum |c_k| |z|^k
    H = np.stack([C, np.vstack([C[1:] * np.arange(1, degree + 1)[:, None],
                                np.zeros(lanes)]), np.abs(C)], axis=1)
    running = np.arange(lanes)
    converged = np.zeros(lanes, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            if not running.size:
                break
            z, h = Z[:, running], H[:, :, None, running]
            # root i is still unmoved when its turn comes, so its values
            # and Newton ratio are taken for all roots at once
            at = np.stack([z, z, np.abs(z)])
            acc = h[degree]
            for k in range(degree - 1, -1, -1):
                acc = acc * at + h[k]
            p, dp, mag = acc[0], acc[1], acc[2].real
            # |p| below the roundoff floor 8 eps sum(|c_k| |z|^k) marks a
            # backward-stable root: the plateau multiple roots converge onto
            live = ~(np.abs(p) <= 8.0 * 2.220446049250313e-16 * mag)
            flat = dp == 0
            ratio = p / dp
            nudged = z * (1 + 1e-8) + 1e-8
            step = np.zeros_like(z)
            # Gauss-Seidel order: root i sees the roots updated before it
            for i in range(degree):
                inv = 1.0 / (z[i] - z)
                inv[i] = 0
                denom = 1.0 - ratio[i] * inv.sum(axis=0)
                step[i] = np.where(denom == 0, ratio[i], ratio[i] / denom)
                z[i] = np.where(live[i], np.where(flat[i], nudged[i],
                                                  z[i] - step[i]), z[i])
            gain = np.where(flat, np.inf, np.abs(step) / (1.0 + np.abs(z)))
            moved = np.fmax.reduce(np.where(live, gain, 0.0), axis=0,
                                   initial=0.0)
            Z[:, running] = z
            done = moved < tol
            converged[running[done]] = True
            running = running[~done]
    return Z, converged


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
        (ts,), (ok,) = aberth_roots([middle], tol=tol)
        if not ok:
            raise NumericFailure("root iteration stalled")
        roots += [normalize_projective((1 + 0j, complex(t))) for t in ts]
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
    # imported by its only user, so importing enumtc does not load scipy
    import scipy.linalg

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

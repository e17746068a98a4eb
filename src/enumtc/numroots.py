"""Distance between complex coordinate vectors.

common_fixed_check in geometry.py reports how far a group element moves
an exact plane point or line by the chordal distance of the complex
embeddings.
"""

from __future__ import annotations

import math

from .errors import InvalidInput


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

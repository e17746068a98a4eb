import math

import pytest

from enumtc.errors import InvalidInput
from enumtc.numroots import chordal_distance, normalize_projective


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

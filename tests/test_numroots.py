import math

import pytest

from enumtc.errors import InvalidInput
from enumtc.numroots import chordal_distance


def test_chordal_distance():
    assert chordal_distance((1, 0), (0, 1)) == 1.0
    assert chordal_distance((1, 0), (2, 0)) < 1e-15
    assert chordal_distance((1, 0), (1j, 0)) < 1e-15
    d = chordal_distance((1, 1), (1, 0))
    assert abs(d - math.sin(math.pi / 4)) < 1e-12
    with pytest.raises(InvalidInput):
        chordal_distance((0j, 0j), (1, 0))

"""Reference listing of a diagonal subgroup's elements, for the tests."""

from itertools import product
from math import prod


def matrices(datum):
    """Every group element as an n x n diagonal matrix: the product of
    the g_i^e_i for e in itertools.product(range(p), repeat=r) order, so
    the identity comes first and generator i sits at the i-th unit
    vector."""
    gens = datum.generator_matrices()
    n, zero = datum.n, gens[0][0][1]
    out = []
    for e in product(range(datum.p), repeat=len(gens)):
        diag = [prod((g[j][j] ** k for g, k in zip(gens, e)),
                     start=gens[0][j][j] ** 0) for j in range(n)]
        out.append(tuple(tuple(diag[i] if i == j else zero
                               for j in range(n)) for i in range(n)))
    return out

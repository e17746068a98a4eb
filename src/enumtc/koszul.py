"""Koszul complexes, regularity certificates, and quotient Hilbert series.

A homogeneous sequence in a weighted polynomial ring over F_p gives a
Koszul complex with wedge-basis boundary matrices per internal degree,
ranked by ``linalg.rank_mod_p``; its higher homology vanishes exactly
on regular sequences.  Maximal-length sequences (as many elements as
variables) are certified regular through Artinian vanishing of the
quotient: the quotient is a cyclic graded module, so once the Macaulay
strata are full for every degree t with s < t <= s + max(weight), where
s = sum(d_i) - sum(w_j), they are full forever, the quotient is
Artinian, and n homogeneous forms in n variables are a system of
parameters iff they are regular.
"""

from __future__ import annotations

from itertools import combinations, permutations
from operator import add

from .errors import (
    CollapseHypothesisUnmet,
    Frozen,
    InvalidField,
    InvalidInput,
    UnsupportedLength,
)
from .fields import PrimeField
from .linalg import rank_mod_p
from .poly import Polynomial, monomials_of_weighted_degree, polynomial_to_json


class GradedSequence(Frozen):
    """Homogeneous nonconstant elements of one weighted polynomial ring."""

    _fields = ("elements",)

    def __init__(self, elements: tuple):
        self._set(elements)
        for f in self.elements:
            if not isinstance(f, Polynomial):
                raise InvalidInput("sequence entries must be polynomials")
            if not f or f.is_constant():
                raise InvalidInput("sequence entries must be nonconstant")
            if not f.is_homogeneous():
                raise InvalidInput("sequence entries must be homogeneous")
        if self.elements:
            t0 = self.elements[0].table
            f0 = self.elements[0].field
            for f in self.elements:
                if f.table != t0 or f.field != f0:
                    raise InvalidInput("sequence entries in different rings")

    def __len__(self):
        return len(self.elements)

    @property
    def table(self):
        return self._first().table

    @property
    def field(self):
        return self._first().field

    def _first(self):
        # the empty sequence is legal, but a KoszulComplex must name its ring
        if not self.elements:
            raise InvalidInput("an empty sequence has no ring")
        return self.elements[0]

    def degrees(self):
        return tuple(f.weighted_degree() for f in self.elements)


class KoszulComplex:
    """Exterior complex on a graded sequence, organized by internal degree.

    K_i has basis {monomial * e_J : |J| = i}; the boundary sends e_J to
    sum_k (-1)^(k+1) f_{j_k} e_{J minus j_k}.  Internal degree of e_J is
    the sum of the element degrees over J.  The field must be F_p: each
    element's coefficients are read once as their residues, and each
    basis is built once.
    """

    def __init__(self, seq: GradedSequence):
        self.seq = seq
        self.table = seq.table
        self.field = seq.field
        if not isinstance(self.field, PrimeField):
            raise InvalidField(f"Koszul complexes are over F_p only, "
                               f"not over {self.field!r}")
        self.p = self.field.p
        self.degrees = seq.degrees()
        self._terms = [[(e, c.residue) for e, c in f.terms.items()]
                       for f in seq.elements]
        self._bases = {}

    def module_basis(self, i: int, t: int):
        """Basis of K_i in internal degree t: a tuple of (monomial, J)
        pairs, J strictly increasing."""
        basis = self._bases.get((i, t))
        if basis is None:
            basis = self._bases[i, t] = tuple(
                (m, J) for J in combinations(range(len(self.seq)), i)
                for m in monomials_of_weighted_degree(
                    self.table, t - sum(self.degrees[j] for j in J)))
        return basis

    def boundary_matrix(self, i: int, t: int):
        """(rows, src, dst) for d_i: (K_i)_t -> (K_{i-1})_t.

        Row r is the image of src[r] in the dst basis: the transpose of
        d_i, of the same rank.  Entries are ints: an F_p residue, possibly
        negated.
        """
        if not 1 <= i <= len(self.seq):
            raise InvalidInput(f"homological index {i} out of range")
        src = self.module_basis(i, t)
        dst = self.module_basis(i - 1, t)
        column = {key: c for c, key in enumerate(dst)}
        rows = []
        # m e_J -> sum_k (-1)^k m f_{j_k} e_{J minus j_k}, k from 0
        for m, J in src:
            row = [0] * len(dst)
            for k, j in enumerate(J):
                rest = J[:k] + J[k + 1:]
                for e, c in self._terms[j]:
                    row[column[tuple(map(add, e, m)), rest]] = \
                        c if k % 2 == 0 else -c
            rows.append(row)
        return rows, src, dst


def koszul_homology_dim(K: KoszulComplex, t: int):
    """[dim H_i(K)_t for i = 0..k], ranking each of d_1..d_k once.

    dim H_i = dim K_i - rank d_i - rank d_(i+1), with d_0 = d_(k+1) = 0.
    """
    k = len(K.seq)
    dims = [len(K.module_basis(i, t)) for i in range(k + 1)]
    ranks = [0] + [rank_mod_p(K.boundary_matrix(i, t)[0], K.p)
                   for i in range(1, k + 1)] + [0]
    return [dims[i] - ranks[i] - ranks[i + 1] for i in range(k + 1)]


class RegularityCertificate:
    def __init__(self, elements: list, degrees: tuple, weights: tuple, s: int,
                 checked_degrees: list, ranks: list, verdict: str):
        self.elements = elements
        self.degrees = degrees
        self.weights = weights
        self.s = s
        self.checked_degrees = checked_degrees
        self.ranks = ranks
        self.verdict = verdict

    def to_json(self):
        return {
            "elements": [polynomial_to_json(f) for f in self.elements],
            "degrees": list(self.degrees),
            "weights": list(self.weights),
            "s": self.s,
            "checked_degrees": list(self.checked_degrees),
            "ranks": list(self.ranks),
            "verdict": self.verdict,
            "method": "artinian-window",
        }


def macaulay_rank(K: KoszulComplex, t: int):
    """Rank of {monomial * f_i} -> degree-t monomials, plus the stratum dim.

    This is the first Koszul differential d_1: (K_1)_t -> (K_0)_t.
    """
    rows, _, dst = K.boundary_matrix(1, t)
    return rank_mod_p(rows, K.p), len(dst)


def is_regular_maximal(seq: GradedSequence) -> RegularityCertificate:
    """Certify a maximal-length homogeneous sequence regular or not.

    Requires as many elements as variables; other lengths raise
    UnsupportedLength, since the Artinian window certifies nothing for
    them.
    """
    table = seq.table
    if len(seq) != len(table):
        raise UnsupportedLength(
            f"{len(seq)} elements in {len(table)} variables; the Artinian "
            "window certificate needs a maximal sequence")
    degs = seq.degrees()
    weights = table.weights
    s = sum(degs) - sum(weights)
    top = s + max(weights)
    K = KoszulComplex(seq)
    checked, ranks, full = [], [], True
    for t in range(s + 1, top + 1):
        rank, dim = macaulay_rank(K, t)
        checked.append(t)
        ranks.append({"degree": t, "rank": rank, "stratum_dim": dim})
        if rank < dim:
            full = False
    verdict = "Regular" if full else "NotRegular"
    return RegularityCertificate(list(seq.elements), degs, weights, s,
                                 checked, ranks, verdict)


def permuted_regularity(seq: GradedSequence):
    """Re-certify every permutation of a maximal sequence.

    Returns a list of {order, verdict} rows; any NotRegular outcome is
    reported rather than raised, so callers can surface the contradiction.
    """
    rows = []
    for perm in permutations(range(len(seq))):
        reordered = GradedSequence(tuple(seq.elements[i] for i in perm))
        cert = is_regular_maximal(reordered)
        rows.append({"order": list(perm), "verdict": cert.verdict})
    return rows


class HilbertSeries:
    """Graded dimensions h_0..h_D with a declared top degree."""

    def __init__(self, coeffs: list):
        self.coeffs = list(coeffs)
        while self.coeffs and self.coeffs[-1] == 0:
            self.coeffs.pop()

    def top_degree(self) -> int:
        return len(self.coeffs) - 1

    def total(self) -> int:
        return sum(self.coeffs)

    def is_palindromic(self) -> bool:
        return self.coeffs == self.coeffs[::-1]

    def alternating_sum(self) -> int:
        return sum(c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs))

    def convolve_binomial(self, m: int) -> "HilbertSeries":
        """Multiply by (1+t)^m."""
        out = list(self.coeffs)
        for _ in range(m):
            out = [a + b for a, b in
                   zip(out + [0], [0] + out)]
        return HilbertSeries(out)


def quotient_hilbert(seq: GradedSequence) -> HilbertSeries:
    """Graded dimensions of ring/(sequence) by Macaulay corank, in degrees
    up to s = sum(d_i) - sum(w_j).

    The sequence must be maximal; certified regular, its series is finite
    and ends at s.
    """
    if len(seq) != len(seq.table):
        raise InvalidInput("the quotient series needs a maximal sequence")
    K = KoszulComplex(seq)
    s = sum(seq.degrees()) - sum(seq.table.weights)
    return HilbertSeries([dim - rank for rank, dim in
                          (macaulay_rank(K, t) for t in range(s + 1))])


def em_poincare(cert, exterior_count: int) -> HilbertSeries:
    """Quotient series of a certified sequence convolved with (1+t)^m.

    The exterior factor enters only as the (1+t)^m Poincare factor; the
    certificate from is_regular_maximal must read Regular, since the
    identification of the quotient with the target cohomology needs the
    collapse.
    """
    if exterior_count < 0:
        raise InvalidInput("exterior_count must be >= 0")
    if cert.verdict != "Regular":
        raise CollapseHypothesisUnmet("sequence is not regular")
    seq = GradedSequence(tuple(cert.elements))
    return quotient_hilbert(seq).convolve_binomial(exterior_count)


def tor_concentration_check(seq: GradedSequence, up_to: int):
    """Verify higher Koszul homology vanishes in all degrees <= up_to.

    Returns {ok, failures, checked_up_to}; failures list (i, t, dim)
    triples with nonzero homology, empty when Tor is concentrated in
    homological degree 0.
    """
    K = KoszulComplex(seq)
    homology = [koszul_homology_dim(K, t) for t in range(up_to + 1)]
    failures = [{"i": i, "t": t, "dim": h[i]}
                for i in range(1, len(seq) + 1)
                for t, h in enumerate(homology) if h[i]]
    return {"ok": not failures, "failures": failures, "checked_up_to": up_to}

"""Koszul complexes, regularity certificates, and quotient Hilbert series.

A homogeneous sequence in a weighted polynomial ring over F_p is held as
its Koszul complex: wedge-basis boundary matrices per internal degree,
each ranked by ``linalg.rank_mod_p`` at most once, the complex keeping
the rank.  Its higher homology vanishes exactly on regular sequences.
Maximal-length sequences (as many elements as variables) are certified
regular through Artinian vanishing of the quotient: the quotient is a
cyclic graded module, so once the Macaulay strata are full for every
degree t with s < t <= s + max(weight), where s = sum(d_i) - sum(w_j),
they are full forever, the quotient is Artinian, and n homogeneous
forms in n variables are a system of parameters iff they are regular.
The certificate keeps the complex, so the quotient series (Macaulay
coranks in degrees 0..s) and the Tor check read the ranks it took.
"""

from __future__ import annotations

from itertools import combinations, permutations
from operator import add

from .errors import (
    CollapseHypothesisUnmet,
    InvalidField,
    InvalidInput,
    UnsupportedLength,
)
from .fields import PrimeField
from .linalg import rank_mod_p
from .poly import Polynomial, monomials_of_weighted_degree, polynomial_to_json


class KoszulComplex:
    """Koszul complex of a homogeneous sequence, by internal degree.

    The elements are nonconstant homogeneous polynomials of one weighted
    ring over F_p, at least one.  K_i has basis {monomial * e_J : |J| = i};
    the boundary sends e_J to sum_k (-1)^(k+1) f_{j_k} e_{J minus j_k}.
    Internal degree of e_J is the sum of the element degrees over J.  Each
    element's coefficients are read once as their residues, and each basis
    and each rank is computed once, when first asked for.
    """

    def __init__(self, elements):
        self.elements = tuple(elements)
        for f in self.elements:
            if not isinstance(f, Polynomial):
                raise InvalidInput("sequence entries must be polynomials")
            if not f or f.is_constant():
                raise InvalidInput("sequence entries must be nonconstant")
            if not f.is_homogeneous():
                raise InvalidInput("sequence entries must be homogeneous")
        if not self.elements:
            raise InvalidInput("an empty sequence has no ring")
        self.table, self.field = self.elements[0].table, self.elements[0].field
        if any(f.table != self.table or f.field != self.field
               for f in self.elements):
            raise InvalidInput("sequence entries in different rings")
        if not isinstance(self.field, PrimeField):
            raise InvalidField(f"Koszul complexes are over F_p only, "
                               f"not over {self.field!r}")
        self.p = self.field.p
        self.degrees = tuple(f.weighted_degree() for f in self.elements)
        self._terms = [[(e, c.residue) for e, c in f.terms.items()]
                       for f in self.elements]
        self._bases = {}
        self._ranks = {}

    def __len__(self):
        return len(self.elements)

    def module_basis(self, i: int, t: int):
        """Basis of K_i in internal degree t: a tuple of (monomial, J)
        pairs, J strictly increasing."""
        basis = self._bases.get((i, t))
        if basis is None:
            basis = self._bases[i, t] = tuple(
                (m, J) for J in combinations(range(len(self)), i)
                for m in monomials_of_weighted_degree(
                    self.table, t - sum(self.degrees[j] for j in J)))
        return basis

    def boundary_matrix(self, i: int, t: int):
        """(rows, src, dst) for d_i: (K_i)_t -> (K_{i-1})_t.

        Row r is the image of src[r] in the dst basis: the transpose of
        d_i, of the same rank.  Entries are ints: an F_p residue, possibly
        negated.
        """
        if not 1 <= i <= len(self):
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

    def rank(self, i: int, t: int) -> int:
        """Rank of d_i in internal degree t, ranked on first request."""
        rank = self._ranks.get((i, t))
        if rank is None:
            rank = self._ranks[i, t] = rank_mod_p(
                self.boundary_matrix(i, t)[0], self.p)
        return rank


def koszul_homology_dim(K: KoszulComplex, t: int):
    """[dim H_i(K)_t for i = 0..k], from the complex's ranks of d_1..d_k.

    dim H_i = dim K_i - rank d_i - rank d_(i+1), with d_0 = d_(k+1) = 0.
    """
    k = len(K)
    dims = [len(K.module_basis(i, t)) for i in range(k + 1)]
    ranks = [0] + [K.rank(i, t) for i in range(1, k + 1)] + [0]
    return [dims[i] - ranks[i] - ranks[i + 1] for i in range(k + 1)]


class RegularityCertificate:
    """A verdict, the Macaulay ranks it rests on and the complex ranked."""

    def __init__(self, K: KoszulComplex, s: int, checked_degrees: list,
                 ranks: list, verdict: str):
        self.complex = K
        self.s = s
        self.checked_degrees = checked_degrees
        self.ranks = ranks
        self.verdict = verdict

    def to_json(self):
        return {
            "elements": [polynomial_to_json(f) for f in self.complex.elements],
            "degrees": list(self.complex.degrees),
            "weights": list(self.complex.table.weights),
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
    return K.rank(1, t), len(K.module_basis(0, t))


def is_regular_maximal(K: KoszulComplex) -> RegularityCertificate:
    """Certify a maximal-length homogeneous sequence regular or not.

    Requires as many elements as variables; other lengths raise
    UnsupportedLength, since the Artinian window certifies nothing for
    them.
    """
    weights = K.table.weights
    if len(K) != len(weights):
        raise UnsupportedLength(
            f"{len(K)} elements in {len(weights)} variables; the Artinian "
            "window certificate needs a maximal sequence")
    s = sum(K.degrees) - sum(weights)
    checked, ranks, full = [], [], True
    for t in range(s + 1, s + max(weights) + 1):
        rank, dim = macaulay_rank(K, t)
        checked.append(t)
        ranks.append({"degree": t, "rank": rank, "stratum_dim": dim})
        if rank < dim:
            full = False
    verdict = "Regular" if full else "NotRegular"
    return RegularityCertificate(K, s, checked, ranks, verdict)


def permuted_regularity(K: KoszulComplex):
    """Re-certify each ordering of a maximal sequence; the identity is K.

    Returns a list of {order, verdict} rows; any NotRegular outcome is
    reported rather than raised, so callers can surface the contradiction.
    """
    rows = []
    for perm in permutations(range(len(K))):
        ordered = K if list(perm) == sorted(perm) else \
            KoszulComplex(K.elements[i] for i in perm)
        cert = is_regular_maximal(ordered)
        rows.append({"order": list(perm), "verdict": cert.verdict})
    return rows


def em_poincare(cert: RegularityCertificate, exterior_count: int) -> list:
    """Quotient series of a certified sequence times (1+t)^m, as a list.

    The quotient's dimensions in degrees 0..s are the Macaulay coranks of
    the certified complex.  The certificate from is_regular_maximal must
    read Regular, since the identification of the quotient with the target
    cohomology needs the collapse.
    """
    if exterior_count < 0:
        raise InvalidInput("exterior_count must be >= 0")
    if cert.verdict != "Regular":
        raise CollapseHypothesisUnmet("sequence is not regular")
    series = [dim - rank for rank, dim in
              (macaulay_rank(cert.complex, t) for t in range(cert.s + 1))]
    for _ in range(exterior_count):
        series = [a + b for a, b in zip(series + [0], [0] + series)]
    return series


def tor_concentration_check(K: KoszulComplex, up_to: int):
    """Verify higher Koszul homology vanishes in all degrees <= up_to.

    Returns {ok, failures, checked_up_to}; failures list (i, t, dim)
    triples with nonzero homology, empty when Tor is concentrated in
    homological degree 0.
    """
    homology = [koszul_homology_dim(K, t) for t in range(up_to + 1)]
    failures = [{"i": i, "t": t, "dim": h[i]}
                for i in range(1, len(K) + 1)
                for t, h in enumerate(homology) if h[i]]
    return {"ok": not failures, "failures": failures, "checked_up_to": up_to}

"""Restriction of Chern-class generators to diagonal abelian subgroups.

A subgroup (Z/p)^r of PU_n generated by commuting diagonal matrices of
prime order p is recorded as exact root-of-unity diagonals.  Each
diagonal slot j carries a character of the subgroup, read off from the
entry exponents; on degree-2 classes the restriction sends tau_j to the
corresponding linear form xi for odd p and to the square of a degree-1
linear form when p = 2.  Composing c_i -> sigma_i(tau) with that
specialization, mod p, produces the restricted images of the polynomial
generators in degree order.

K and H are defined here and only here: the same datum gives the
restricted cohomology and, through generator_matrices(), the generators
that act on the lines, flexes and bitangents.  Non-diagonal or higher
prime power subgroups are out of scope.  Diagonal generators commute by
construction; geometry.make_group_action checks the relations on the
permutations they induce.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod

from .errors import InconsistentEvidence, InvalidField, InvalidInput
from .fields import PrimeField, QQ, cyclotomic_field, is_prime
from .nabla import stated_image_generators
from .poly import (
    Polynomial,
    SpecializationMap,
    elementary_symmetric,
    make_table,
    substitute,
)


def tau_table(n: int):
    """Degree-2 diagonal classes tau_1..tau_n."""
    return make_table(tuple(f"tau{j}" for j in range(1, n + 1)), (2,) * n)


def chern_to_tau_map(n: int, p: int) -> SpecializationMap:
    """c_i -> i-th elementary symmetric polynomial in tau_1..tau_n, mod p."""
    Fp = PrimeField(p)
    tau = tau_table(n)
    images = {f"c{i}": elementary_symmetric(i, tau, Fp)
              for i in range(1, n + 1)}
    return SpecializationMap(images, check_grading=True)


def _canonical_root(field, p: int):
    """The fixed primitive p-th root all entries are compared against."""
    if p == 2:
        return field.from_int(-1)
    root = field.gen()
    if root ** p != field.one() or root == field.one():
        raise InvalidField(f"field generator is not a primitive {p}-th root")
    return root


def _entry_exponent(entry, root, p: int, field, where: str) -> int:
    power = field.one()
    for e in range(p):
        if entry == power:
            return e
        power = power * root
    raise InvalidInput(f"{where}: entry is not a power of the canonical root")


def exponent_grid(generators, p: int, field):
    """grid[i][j] = e with generator i acting on slot j by root**e."""
    root = _canonical_root(field, p)
    grid = []
    for i, diag in enumerate(generators):
        row = [_entry_exponent(entry, root, p, field,
                               f"generator {i + 1}, slot {j + 1}")
               for j, entry in enumerate(diag)]
        grid.append(row)
    return grid


def _slot_marker(p: int, i: int, width: int):
    # Exponent tuple of the monomial generator i contributes to a tau image:
    # xi_i for p odd, u_i^2 for p = 2 (squaring is additive in char 2).
    e = [0] * width
    e[i] = 2 if p == 2 else 1
    return tuple(e)


def _tau_images(grid, n: int, p: int, target) -> dict:
    Fp = PrimeField(p)
    images = {}
    for j in range(n):
        acc = Polynomial.zero(target, Fp)
        for i, row in enumerate(grid):
            if row[j] % p == 0:
                continue
            e = [0] * len(target)
            e[i] = 1
            acc = acc + Polynomial.monomial(tuple(e), Fp.from_int(row[j]),
                                            target, Fp)
        if p == 2:
            acc = acc * acc
        images[f"tau{j + 1}"] = acc
    return images


@dataclass(frozen=True)
class SubgroupDatum:
    """Diagonal elementary abelian subgroup with its stored tau images.

    generators holds one diagonal tuple per generator; entries are exact
    field elements of multiplicative order dividing p.  tau_map is data,
    not derived here: verify_specialization_from_generators recomputes
    the images from the entry exponents and confirms agreement.
    """

    n: int
    p: int
    field: object
    generators: tuple
    tau_map: SpecializationMap
    name: str = ""

    def __post_init__(self):
        if self.n < 2:
            raise InvalidInput("ambient rank must be at least 2")
        if not is_prime(self.p):
            raise InvalidInput(f"p={self.p} is not prime")
        one = self.field.one()
        for i, diag in enumerate(self.generators):
            if len(diag) != self.n:
                raise InvalidInput(f"generator {i + 1} is not {self.n}x{self.n}")
            if all(entry == one for entry in diag):
                raise InvalidInput(f"generator {i + 1} is the identity")
            for j, entry in enumerate(diag):
                if entry ** self.p != one:
                    raise InvalidInput(
                        f"generator {i + 1}, slot {j + 1}: "
                        f"entry order does not divide {self.p}")
        expected_names = {f"tau{j}" for j in range(1, self.n + 1)}
        if set(self.tau_map.images) != expected_names:
            raise InvalidInput("tau_map must cover exactly tau_1..tau_n")

    @property
    def exterior_count(self) -> int:
        """Exterior generators of H*(B(Z/p)^r; F_p): r for odd p, none for
        p = 2, where the degree-1 classes are polynomial."""
        return 0 if self.p == 2 else len(self.generators)

    def _diagonal(self, entries):
        zero, n = self.field.zero(), self.n
        return tuple(tuple(entries[i] if i == j else zero for j in range(n))
                     for i in range(n))

    def generator_matrices(self):
        """The generators as n x n diagonal matrices over field."""
        return [self._diagonal(g) for g in self.generators]

    def matrices(self):
        """Every group element as an n x n diagonal matrix over field: the
        product of the g_i^e_i for e in itertools.product(range(p),
        repeat=r) order, so the identity comes first and generator i
        sits at the i-th unit vector."""
        one, n = self.field.one(), self.n
        out = []
        for e in product(range(self.p), repeat=len(self.generators)):
            diag = [prod((g[j] ** k for g, k in zip(self.generators, e)),
                         start=one) for j in range(n)]
            out.append(self._diagonal(diag))
        return out


def make_subgroup_datum(n, p, field, generators, target_names=None,
                        name="") -> SubgroupDatum:
    """Build a datum with the tau images derived from the generators."""
    generators = tuple(tuple(d) for d in generators)
    r = len(generators)
    if target_names is None:
        stem = "u" if p == 2 else "xi"
        target_names = tuple(f"{stem}{i}" for i in range(1, r + 1))
    if len(target_names) != r:
        raise InvalidInput("one target variable per generator")
    weight = 1 if p == 2 else 2
    target = make_table(tuple(target_names), (weight,) * r)
    grid = exponent_grid(generators, p, field)
    images = _tau_images(grid, n, p, target)
    tau_map = SpecializationMap(images, check_grading=True)
    return SubgroupDatum(n, p, field, generators, tau_map, name)


def k_datum() -> SubgroupDatum:
    """(Z/3)^3 of diagonal cube roots of unity in PU_4; p = 3, m = 3."""
    F = cyclotomic_field(3)
    z, one = F.gen(), F.one()
    gens = ((z, one, one, one),
            (one, z, one, one),
            (one, one, z, one))
    F3 = PrimeField(3)
    target = make_table(("xi1", "xi2", "xi3"), (2, 2, 2))
    images = {
        "tau1": Polynomial.variable("xi1", target, F3),
        "tau2": Polynomial.variable("xi2", target, F3),
        "tau3": Polynomial.variable("xi3", target, F3),
        "tau4": Polynomial.zero(target, F3),
    }
    tau_map = SpecializationMap(images, check_grading=True)
    return SubgroupDatum(4, 3, F, gens, tau_map, "K")


def h_datum() -> SubgroupDatum:
    """(Z/2)^2 of diagonal signs in PU_3; p = 2, no exterior factor."""
    one = Fraction(1)
    gens = ((-one, one, one),
            (one, -one, one))
    F2 = PrimeField(2)
    target = make_table(("u", "v"))
    u = Polynomial.variable("u", target, F2)
    v = Polynomial.variable("v", target, F2)
    images = {
        "tau1": u * u,
        "tau2": v * v,
        "tau3": Polynomial.zero(target, F2),
    }
    tau_map = SpecializationMap(images, check_grading=True)
    return SubgroupDatum(3, 2, QQ, gens, tau_map, "H")


def phi_star_generators(datum: SubgroupDatum):
    """Restricted generator images over F_p, in increasing degree.

    Composite: generator in c_1..c_n -> sigma_i(tau) -> stored tau
    specialization, everything reduced mod p throughout (the maps are
    defined over the integers, so early reduction is harmless).
    """
    if datum.n % datum.p == 0:
        raise InvalidInput(f"p={datum.p} divides n={datum.n}")
    Fp = PrimeField(datum.p)
    _, gens = stated_image_generators(datum.n, Fp)
    c_to_sigma = chern_to_tau_map(datum.n, datum.p)
    out = []
    for g in gens:
        in_tau = substitute(g, c_to_sigma)
        out.append(substitute(in_tau, datum.tau_map))
    return out


def verify_specialization_from_generators(datum: SubgroupDatum) -> bool:
    """Recompute tau images from the diagonals and compare with the stored map.

    A mismatch raises InconsistentEvidence naming the first generator
    whose exponent disagrees (or the tau with spurious terms).
    """
    sample = next(iter(datum.tau_map.images.values()))
    target = sample.table
    grid = exponent_grid(datum.generators, datum.p, datum.field)
    if grid and len(target) != len(grid):
        raise InvalidInput("target table size differs from generator count")
    expected = _tau_images(grid, datum.n, datum.p, target)
    Fp = PrimeField(datum.p)
    for j in range(1, datum.n + 1):
        name = f"tau{j}"
        stored = datum.tau_map.images[name]
        want = expected[name]
        if stored == want:
            continue
        for i, row in enumerate(grid):
            marker = _slot_marker(datum.p, i, len(target))
            got = stored.terms.get(marker, Fp.zero())
            if got != Fp.from_int(row[j - 1]):
                raise InconsistentEvidence(
                    f"image of {name} disagrees with generator {i + 1}: "
                    f"expected exponent {row[j - 1]} mod {datum.p}")
        raise InconsistentEvidence(
            f"image of {name} has terms not induced by any generator")
    return True

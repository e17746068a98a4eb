"""Restriction of Chern-class generators to diagonal abelian subgroups.

A subgroup (Z/p)^r of PU_n generated by r diagonal matrices of prime
order p is its exponent grid: generator i acts on slot j by
root**grid[i][j], where root is -1 in QQ for p = 2 and the generator of
Q(zeta_p) for odd p.  Slot j carries the character sum_i grid[i][j] xi_i
of the subgroup, so on degree-2 classes the restriction sends tau_j to
that linear form for odd p and to the square of a degree-1 form when
p = 2.  Composing c_i -> sigma_i(tau) with that specialization, mod p,
produces the restricted images of the polynomial generators in degree
order.

K and H are defined here and only here: the same grid gives the
restricted cohomology and, through generator_matrices(), the generators
that act on the lines, flexes and bitangents.  Non-diagonal or higher
prime power subgroups are out of scope.  Diagonal generators commute by
construction; geometry.make_group_action checks the relations on the
permutations they induce.
"""

from .errors import Frozen, InvalidInput
from .fields import PrimeField, QQ, cyclotomic_field, is_prime
from .linalg import rank_mod_p
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


class SubgroupDatum(Frozen):
    """Diagonal elementary abelian subgroup (Z/p)^r of PU_n.

    grid holds one row of n ints per generator: generator i acts on slot
    j by root**grid[i][j].  The rows must be independent mod p, so that
    the r generators span a group of order p^r.
    """

    _fields = ("n", "p", "grid", "name")

    def __init__(self, n: int, p: int, grid: tuple, name: str = ""):
        self._set(n, p, grid, name)
        if self.n < 2:
            raise InvalidInput("ambient rank must be at least 2")
        if not is_prime(self.p):
            raise InvalidInput(f"p={self.p} is not prime")
        for i, row in enumerate(self.grid):
            if len(row) != self.n or any(type(e) is not int for e in row):
                raise InvalidInput(f"generator {i + 1} is not {self.n} "
                                   f"int exponents")
        if rank_mod_p(self.grid, self.p) < len(self.grid):
            raise InvalidInput(f"the {len(self.grid)} generators are "
                               f"dependent mod {self.p}")

    @property
    def exterior_count(self) -> int:
        """Exterior generators of H*(B(Z/p)^r; F_p): r for odd p, none for
        p = 2, where the degree-1 classes are polynomial."""
        return 0 if self.p == 2 else len(self.grid)

    def generator_matrices(self):
        """The generators as n x n diagonal matrices over QQ for p = 2 and
        over Q(zeta_p) for odd p."""
        field = QQ if self.p == 2 else cyclotomic_field(self.p)
        root = field.from_int(-1) if self.p == 2 else field.gen()
        zero, n = field.zero(), self.n
        return [tuple(tuple(root ** (row[i] % self.p) if i == j else zero
                            for j in range(n)) for i in range(n))
                for row in self.grid]

    def tau_map(self) -> SpecializationMap:
        """tau_j -> sum_i grid[i][j] xi_i over F_p for odd p, and the
        square of sum_i grid[i][j] u_i for p = 2, whose degree-1 classes
        are named u, v, w, ..."""
        r, Fp = len(self.grid), PrimeField(self.p)
        names = tuple(chr(ord("u") + i) if self.p == 2 else f"xi{i + 1}"
                      for i in range(r))
        target = make_table(names, (1 if self.p == 2 else 2,) * r)
        xs = [Polynomial.variable(x, target, Fp) for x in names]
        images = {}
        for j in range(self.n):
            form = sum((x * row[j] for x, row in zip(xs, self.grid)),
                       Polynomial.zero(target, Fp))
            images[f"tau{j + 1}"] = form * form if self.p == 2 else form
        return SpecializationMap(images, check_grading=True)


def k_datum() -> SubgroupDatum:
    """(Z/3)^3 of diagonal cube roots of unity in PU_4; p = 3, m = 3."""
    return SubgroupDatum(4, 3, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
                         "K")


def h_datum() -> SubgroupDatum:
    """(Z/2)^2 of diagonal signs in PU_3; p = 2, no exterior factor."""
    return SubgroupDatum(3, 2, ((1, 0, 0), (0, 1, 0)), "H")


def phi_star_generators(datum: SubgroupDatum):
    """Restricted generator images over F_p, in increasing degree.

    Composite: generator in c_1..c_n -> sigma_i(tau) -> the datum's tau
    specialization, everything reduced mod p throughout (the maps are
    defined over the integers, so early reduction is harmless).
    """
    if datum.n % datum.p == 0:
        raise InvalidInput(f"p={datum.p} divides n={datum.n}")
    Fp = PrimeField(datum.p)
    _, gens = stated_image_generators(datum.n, Fp)
    c_to_sigma = chern_to_tau_map(datum.n, datum.p)
    tau_map = datum.tau_map()
    return [substitute(substitute(g, c_to_sigma), tau_map) for g in gens]

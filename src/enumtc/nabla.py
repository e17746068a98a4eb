"""A degree -2 derivation on the Chern-class ring and its kernel.

The ring is F[c_1..c_n] with |c_i| = 2i.  The derivation acts by
nabla(c_k) = (n-k+1) c_{k-1} with c_0 = 1, extended by additivity and the
Leibniz rule.  Degreewise kernels are computed by exact linear algebra,
and a stated generating set can be checked against them: membership,
span of products, and the dimension count against the subring generated
by c_2..c_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import GeneratorCheckFailure, InvalidInput
from .fields import QQ
from .linalg import Matrix
from .poly import Polynomial, make_table, monomials_of_weighted_degree

CERTIFIED_DEGREE_BOUND = 12


@dataclass(frozen=True)
class NablaContext:
    n: int
    field: object
    table: object

    @property
    def p(self):
        return getattr(self.field, "p", None)


def make_context(n: int, field) -> NablaContext:
    if n < 2:
        raise InvalidInput("rank must be at least 2")
    table = make_table(tuple(f"c{i}" for i in range(1, n + 1)),
                       tuple(2 * i for i in range(1, n + 1)))
    return NablaContext(n, field, table)


def nabla(f: Polynomial, ctx: NablaContext) -> Polynomial:
    """Leibniz extension of c_k -> (n-k+1) c_{k-1}; lowers degree by 2."""
    if f.table != ctx.table or f.field != ctx.field:
        raise InvalidInput("polynomial is not in the context ring")
    result = Polynomial.zero(ctx.table, ctx.field)
    for k in range(1, ctx.n + 1):
        pf = f.partial(f"c{k}")
        if not pf:
            continue
        scale = ctx.n - k + 1
        if k > 1:
            pf = pf * Polynomial.variable(f"c{k - 1}", ctx.table, ctx.field)
        result = result + scale * pf
    return result


def nabla_matrix(ctx: NablaContext, degree: int):
    """Matrix of the derivation from weighted degree `degree` to degree-2.

    Returns (matrix, source monomials, target monomials); rows index the
    target basis.
    """
    sources = monomials_of_weighted_degree(ctx.table, degree)
    targets = monomials_of_weighted_degree(ctx.table, degree - 2)
    images = [nabla(Polynomial.monomial(e, ctx.field.one(), ctx.table,
                                        ctx.field), ctx).terms
              for e in sources]
    return Matrix.from_columns(images, targets, ctx.field), sources, targets


def kernel_of_nabla(ctx: NablaContext, degree: int):
    """Basis of the degreewise kernel, as polynomials.

    Odd or unrepresentable degrees give the zero space.  Degrees beyond
    CERTIFIED_DEGREE_BOUND are computed the same way; callers decide how
    to label them.
    """
    M, sources, _ = nabla_matrix(ctx, degree)
    basis = []
    for v in M.kernel_basis():
        terms = {e: c for e, c in zip(sources, v) if c}
        basis.append(Polynomial(ctx.table, ctx.field, terms))
    return basis


@lru_cache(maxsize=256)
def integral_kernel_dim(n: int, degree: int) -> int:
    """Dimension of the degreewise kernel over Q: sources minus rank."""
    M, sources, _ = nabla_matrix(make_context(n, QQ), degree)
    return len(sources) - M.rank()


def bsu_monomial_count(ctx: NablaContext, degree: int) -> int:
    """Monomials in c_2..c_n of the given weighted degree."""
    use = tuple(range(1, ctx.n))
    return len(monomials_of_weighted_degree(ctx.table, degree, use=use))


def stated_image_generators(n: int, field):
    """The claimed kernel generators, as exact integer polynomials."""
    ctx = make_context(n, field)

    def c(i):
        return Polynomial.variable(f"c{i}", ctx.table, ctx.field)

    if n == 3:
        gens = [c(1) ** 2 - 3 * c(2),
                2 * c(1) ** 3 - 9 * c(1) * c(2) + 27 * c(3)]
    elif n == 4:
        gens = [3 * c(1) ** 2 - 8 * c(2),
                c(1) ** 3 - 4 * c(1) * c(2) + 8 * c(3),
                3 * c(1) ** 4 - 16 * c(1) ** 2 * c(2)
                + 64 * c(1) * c(3) - 256 * c(4)]
    else:
        raise InvalidInput(f"no stated generator list for n={n}")
    return ctx, gens


def generated_dim(ctx: NablaContext, gens, degree: int) -> int:
    """Dimension of the span of degree-`degree` products of generators."""
    degs = [g.weighted_degree() for g in gens]
    products = []

    def rec(i, remaining, current):
        if remaining == 0:
            products.append(current)
            return
        if i == len(gens):
            return
        e = 0
        acc = current
        while e * degs[i] <= remaining:
            if e > 0:
                acc = acc * gens[i]
            rec(i + 1, remaining - e * degs[i], acc)
            e += 1

    rec(0, degree, Polynomial.one(ctx.table, ctx.field))
    monomials = monomials_of_weighted_degree(ctx.table, degree)
    return Matrix.from_columns([p.terms for p in products], monomials,
                               ctx.field).rank()


def verify_generators(ctx: NablaContext, gens, max_degree: int):
    """Check a claimed generating set for the degreewise image.

    Per even degree k <= max_degree three facts are checked: every listed
    generator is killed by the derivation in ctx's own field, products of
    generators span a space of the right dimension, and that dimension
    equals the count of monomials in c_2..c_n.

    kernel_dim is always computed over Q.  The derivation degenerates
    modulo small primes (2c_1 vanishes mod 2, 3c_1 mod 3), so the mod-p
    kernel can be strictly larger than the reduction of the integral
    kernel; the quantity the claims consume is the integral kernel rank
    per degree, which the rational computation gives exactly.  It is
    integral_kernel_dim(n, degree): the source count minus the rank of
    the QQ nabla matrix, ranked on ints (linalg.rank_int) and cached per
    (n, degree), so every field of a claim shares one rank per degree.
    The span of generator products is taken over ctx's field, so for
    F_p contexts the check is: mod-p span rank = integral kernel rank =
    subring count.

    Returns one report row per degree; any failure raises
    GeneratorCheckFailure naming the degree and witness.
    """
    p = ctx.p
    if p is not None and ctx.n % p == 0:
        raise InvalidInput(f"p={p} divides n={ctx.n}")
    for g in gens:
        img = nabla(g, ctx)
        if img:
            raise GeneratorCheckFailure(
                f"claimed generator {g!r} is not in the kernel")
        if not g.is_homogeneous():
            raise GeneratorCheckFailure(f"generator {g!r} not homogeneous")
    rows = []
    for degree in range(0, max_degree + 1, 2):
        kdim = integral_kernel_dim(ctx.n, degree)
        bdim = bsu_monomial_count(ctx, degree)
        gdim = generated_dim(ctx, gens, degree)
        ok = kdim == bdim == gdim
        status = "ok" if degree <= CERTIFIED_DEGREE_BOUND else \
            "ok-beyond-certified-window"
        if not ok:
            status = "fail"
        rows.append({"n": ctx.n, "p": p, "degree": degree,
                     "kernel_dim": kdim, "bsu_dim": bdim,
                     "generated_dim": gdim, "status": status})
        if not ok:
            raise GeneratorCheckFailure(
                f"degree {degree}: kernel {kdim}, subring count {bdim}, "
                f"generated {gdim}")
    return rows

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

from .errors import GeneratorCheckFailure, InvalidInput
from .fields import QQ
from .linalg import Matrix, rank_int, rank_mod_p
from .poly import Polynomial, make_table, monomials_of_weighted_degree

CERTIFIED_DEGREE_BOUND = 12


@dataclass(frozen=True)
class NablaContext:
    n: int
    field: object
    table: object


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


def generated_dim(ctx: NablaContext, gens, degree: int, primes):
    """Span dimensions of the degree-`degree` products of integral generators.

    The products are built once over Q and their coefficient rows read
    as ints, so reducing them mod p gives the products over F_p.  Returns
    the rank over Q, then the rank mod each prime of `primes` in order.
    """
    degs = [g.weighted_degree() for g in gens]
    products = []

    def rec(i, remaining, current):
        # skip gens[i] from here on, or take one more factor of it
        if remaining == 0:
            products.append(current)
        elif i < len(gens):
            rec(i + 1, remaining, current)
            if degs[i] <= remaining:
                rec(i, remaining - degs[i], current * gens[i])

    rec(0, degree, Polynomial.one(ctx.table, ctx.field))
    monomials = monomials_of_weighted_degree(ctx.table, degree)
    rows = [[f.terms.get(m, 0).numerator for m in monomials]
            for f in products]
    return [rank_int(rows)] + [rank_mod_p(rows, p) for p in primes]


def verify_generators(ctx: NablaContext, gens, max_degree: int, primes):
    """Check integral generators of the kernel over Q and modulo primes.

    ctx is the Q context.  Integrality, p not dividing n, kernel
    membership and homogeneity are checked once, over Q: both the
    generators and the derivation are integral, so this holds mod p too.
    Then per even degree k <= max_degree and per field, Q first and then
    `primes` in order, the span of generator products must have the
    integral kernel rank and the count of monomials in c_2..c_n.  The
    kernel rank is always taken over Q: the derivation degenerates mod
    small primes (2c_1 vanishes mod 2), so a mod-p kernel can be larger.

    Returns one {"p", "rows"} table per field (p is None for Q).  The
    first failing row, field by field, raises GeneratorCheckFailure
    naming the field and the degree.
    """
    if ctx.field != QQ:
        raise InvalidInput("generators are checked over QQ")
    if max_degree < 0:
        raise InvalidInput(f"max_degree must be >= 0, got {max_degree}")
    for p in primes:
        if ctx.n % p == 0:
            raise InvalidInput(f"p={p} divides n={ctx.n}")
    for g in gens:
        if any(c.denominator != 1 for c in g.terms.values()):
            raise InvalidInput(f"generator {g!r} is not integral")
        if nabla(g, ctx):
            raise GeneratorCheckFailure(
                f"claimed generator {g!r} is not in the kernel")
        if not g.is_homogeneous():
            raise GeneratorCheckFailure(f"generator {g!r} not homogeneous")
    degrees = range(0, max_degree + 1, 2)
    dims = [(integral_kernel_dim(ctx.n, d), bsu_monomial_count(ctx, d),
             generated_dim(ctx, gens, d, primes)) for d in degrees]
    tables = []
    for i, p in enumerate([None, *primes]):
        rows = []
        for degree, (kdim, bdim, gdims) in zip(degrees, dims):
            gdim = gdims[i]
            if not kdim == bdim == gdim:
                raise GeneratorCheckFailure(
                    f"{'QQ' if p is None else f'p={p}'}, degree {degree}: "
                    f"kernel {kdim}, subring count {bdim}, generated {gdim}")
            status = "ok" if degree <= CERTIFIED_DEGREE_BOUND else \
                "ok-beyond-certified-window"
            rows.append({"n": ctx.n, "p": p, "degree": degree,
                         "kernel_dim": kdim, "bsu_dim": bdim,
                         "generated_dim": gdim, "status": status})
        tables.append({"p": p, "rows": rows})
    return tables

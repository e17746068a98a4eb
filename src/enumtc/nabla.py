"""A degree -2 derivation on the Chern-class ring and its kernel.

The ring is F[c_1..c_n] with |c_i| = 2i.  The derivation acts by
nabla(c_k) = (n-k+1) c_{k-1} with c_0 = 1, extended by additivity and the
Leibniz rule.  One integer rule on monomials gives both ``nabla`` and the
int rows of ``nabla_matrix``.  Degreewise kernel ranks are taken on those
rows, and a stated generating set can be checked against them:
membership, span of products, and the dimension count against the
subring generated by c_2..c_n.

Ranks over Q are ranks modulo the prime Q_PRIME.  For int rows the rank
modulo a prime is at most the rank over Q, so in each degree, with gen
the span of the generator products and ker the kernel,

    gen_P <= gen_Q <= ker_Q <= ker_P.

The middle step holds because the generators are checked to lie in the
kernel exactly, over Q, and nabla is a derivation, so their products do
too.  ``verify_generators`` requires ker_P == gen_P on the Q row, which
makes every term equal and the Q values exact; an unlucky prime fails
the check rather than verifying.
"""

from __future__ import annotations

from .errors import Frozen, GeneratorCheckFailure, InvalidInput
from .fields import QQ, is_prime
from .linalg import rank_mod_p
from .poly import Polynomial, make_table, monomials_of_weighted_degree

CERTIFIED_DEGREE_BOUND = 12
Q_PRIME = 2**31 - 1


class NablaContext(Frozen):
    _fields = ("n", "field", "table")

    def __init__(self, n: int, field, table):
        self._set(n, field, table)


def make_context(n: int, field) -> NablaContext:
    if n < 2:
        raise InvalidInput("rank must be at least 2")
    table = make_table(tuple(f"c{i}" for i in range(1, n + 1)),
                       tuple(2 * i for i in range(1, n + 1)))
    return NablaContext(n, field, table)


def _nabla_monomial(n: int, e):
    """c^e -> sum_k e_k (n-k+1) c^(e - d_k + d_(k-1)), with c_0 = 1, as
    distinct (exponent, int coefficient) pairs."""
    out = []
    for k, ek in enumerate(e):
        # index k holds c_(k+1), whose image is (n-k) c_k
        if ek:
            image = list(e)
            image[k] -= 1
            if k:
                image[k - 1] += 1
            out.append((tuple(image), ek * (n - k)))
    return out


def nabla(f: Polynomial, ctx: NablaContext) -> Polynomial:
    """Leibniz extension of c_k -> (n-k+1) c_{k-1}; lowers degree by 2."""
    if f.table != ctx.table or f.field != ctx.field:
        raise InvalidInput("polynomial is not in the context ring")
    terms = {}
    for e, c in f.terms.items():
        for image, a in _nabla_monomial(ctx.n, e):
            terms[image] = terms.get(image, 0) + a * c
    return Polynomial(ctx.table, ctx.field, terms)


def nabla_matrix(ctx: NablaContext, degree: int):
    """(rows, sources, targets) for the derivation from weighted degree
    `degree` to degree-2, on monomials.

    Row r is the image of sources[r] in the targets basis: the transpose
    of the derivation's matrix.  Entries are the monomial rule's ints,
    whatever ctx.field is.
    """
    sources = monomials_of_weighted_degree(ctx.table, degree)
    targets = monomials_of_weighted_degree(ctx.table, degree - 2)
    column = {e: c for c, e in enumerate(targets)}
    rows = []
    for e in sources:
        row = [0] * len(targets)
        for image, a in _nabla_monomial(ctx.n, e):
            row[column[image]] = a
        rows.append(row)
    return rows, sources, targets


def integral_kernel_dim(n: int, degree: int) -> int:
    """Dimension of the degreewise kernel modulo Q_PRIME: sources minus
    rank.  It bounds the dimension over Q from above."""
    rows, sources, _ = nabla_matrix(make_context(n, QQ), degree)
    return len(sources) - rank_mod_p(rows, Q_PRIME)


def bsu_monomial_count(ctx: NablaContext, degree: int) -> int:
    """Monomials in c_2..c_n of the given weighted degree: those of the
    degree without c_1."""
    return sum(1 for e in monomials_of_weighted_degree(ctx.table, degree)
               if not e[0])


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


def generated_dims(ctx: NablaContext, gens, max_degree: int, primes):
    """Per even degree 0..max_degree, the span rank of the generator
    products modulo Q_PRIME (a lower bound for the rank over Q), then
    mod each prime of `primes` in order.

    A product g_i1 ... g_ik, i1 <= ... <= ik, is its prefix times g_ik:
    one multiplication per product for the whole window, on the int
    coefficients of the integral generators, so mod p the rows are the
    products over F_p.
    """
    degs = [g.weighted_degree() for g in gens]
    if any(d < 1 for d in degs):
        raise InvalidInput("generators must have positive degree")
    gens = [Polynomial(ctx.table, ctx.field,
                       {e: c.numerator for e, c in g.terms.items()})
            for g in gens]
    # (last factor's index, product, degree), the empty product first
    one = Polynomial(ctx.table, ctx.field, {(0,) * len(ctx.table): 1})
    found = [(0, one, 0)]
    for last, f, d in found:
        for i in range(last, len(gens)):
            if d + degs[i] <= max_degree:
                found.append((i, f * gens[i], d + degs[i]))
    dims = []
    for degree in range(0, max_degree + 1, 2):
        monomials = monomials_of_weighted_degree(ctx.table, degree)
        rows = [[f.terms.get(m, 0) for m in monomials]
                for _, f, d in found if d == degree]
        dims.append([rank_mod_p(rows, p) for p in (Q_PRIME, *primes)])
    return dims


def verify_generators(ctx: NablaContext, gens, max_degree: int, primes):
    """Check integral generators of the kernel over Q and modulo primes.

    ctx is the Q context.  Every p must be prime and must not divide n.
    Integrality, nonconstant generators, kernel membership and
    homogeneity are checked once, over Q: both the generators and the
    derivation are integral, so this holds mod p too.
    Then per even degree k <= max_degree and per field, Q first and then
    `primes` in order, the span of generator products must have the
    integral kernel rank and the count of monomials in c_2..c_n.  On the
    Q row both ranks are taken modulo Q_PRIME, and their equality makes
    them the Q values (module docstring).  The other rows read that Q
    kernel rank, only once every Q row has passed: the derivation
    degenerates mod small primes (2c_1 vanishes mod 2), so a mod-p
    kernel can be larger.

    Returns one {"p", "rows"} table per field (p is None for Q).  The
    first failing row, field by field, raises GeneratorCheckFailure
    naming the field and the degree.
    """
    if ctx.field != QQ:
        raise InvalidInput("generators are checked over QQ")
    if max_degree < 0:
        raise InvalidInput(f"max_degree must be >= 0, got {max_degree}")
    for p in primes:
        if not is_prime(p):
            raise InvalidInput(f"p={p} is not prime")
        if ctx.n % p == 0:
            raise InvalidInput(f"p={p} divides n={ctx.n}")
    for g in gens:
        if any(c.denominator != 1 for c in g.terms.values()):
            raise InvalidInput(f"generator {g!r} is not integral")
        if g.is_constant():
            raise InvalidInput(f"generator {g!r} is zero or constant")
        if nabla(g, ctx):
            raise GeneratorCheckFailure(
                f"claimed generator {g!r} is not in the kernel")
        if not g.is_homogeneous():
            raise GeneratorCheckFailure(f"generator {g!r} not homogeneous")
    degrees = range(0, max_degree + 1, 2)
    dims = [(integral_kernel_dim(ctx.n, d), bsu_monomial_count(ctx, d), g)
            for d, g in zip(degrees, generated_dims(ctx, gens, max_degree,
                                                    primes))]
    tables = []
    for i, p in enumerate([None, *primes]):
        rows = []
        for degree, (kdim, bdim, gdims) in zip(degrees, dims):
            gdim = gdims[i]
            if not kdim == bdim == gdim:
                raise GeneratorCheckFailure(
                    f"{'QQ' if p is None else f'p={p}'}, degree {degree}: "
                    f"kernel {kdim}, subring count {bdim}, generated {gdim}"
                    + (f" (kernel and generated are ranks modulo {Q_PRIME}, "
                       f"bounds on the Q values)" if p is None else ""))
            status = "ok" if degree <= CERTIFIED_DEGREE_BOUND else \
                "ok-beyond-certified-window"
            rows.append({"n": ctx.n, "p": p, "degree": degree,
                         "kernel_dim": kdim, "bsu_dim": bdim,
                         "generated_dim": gdim, "status": status})
        tables.append({"p": p, "rows": rows})
    return tables

import random
from fractions import Fraction

import pytest

from enumtc import nabla as nabla_module
from enumtc.claims import Config, run_claims
from enumtc.errors import GeneratorCheckFailure, InvalidInput
from enumtc.fields import QQ, PrimeField
from enumtc.linalg import Matrix, rank_int, rank_mod_p
from enumtc.nabla import (
    bsu_monomial_count,
    generated_dims,
    integral_kernel_dim,
    make_context,
    nabla,
    nabla_matrix,
    stated_image_generators,
    verify_generators,
)
from enumtc.poly import Polynomial, monomials_of_weighted_degree


def cvar(ctx, i):
    return Polynomial.variable(f"c{i}", ctx.table, ctx.field)


def kernel_of_nabla(ctx, degree):
    """Reference kernel basis, as polynomials: nabla of each source
    monomial on field elements, then Matrix.kernel_basis."""
    sources = monomials_of_weighted_degree(ctx.table, degree)
    targets = monomials_of_weighted_degree(ctx.table, degree - 2)
    zero, one = ctx.field.zero(), ctx.field.one()
    images = [nabla(Polynomial.monomial(e, one, ctx.table, ctx.field),
                    ctx).terms for e in sources]
    M = Matrix.from_rows([[image.get(e, zero) for image in images]
                          for e in targets], ctx.field, cols=len(sources))
    return [Polynomial(ctx.table, ctx.field, dict(zip(sources, v)))
            for v in M.kernel_basis()]


def test_nabla_on_c2_n3():
    ctx = make_context(3, QQ)
    out = nabla(cvar(ctx, 2), ctx)
    assert out == 2 * cvar(ctx, 1)


def test_nabla_of_constant():
    ctx = make_context(3, QQ)
    assert not nabla(Polynomial.one(ctx.table, ctx.field), ctx)


def test_nabla_kills_stated_n4_degree4():
    ctx = make_context(4, QQ)
    f = 3 * cvar(ctx, 1) ** 2 - 8 * cvar(ctx, 2)
    assert not nabla(f, ctx)


def test_nabla_lowers_degree_by_two():
    ctx = make_context(4, QQ)
    f = cvar(ctx, 2) * cvar(ctx, 3)
    out = nabla(f, ctx)
    assert out.is_homogeneous()
    assert out.weighted_degree() == f.weighted_degree() - 2


def test_nabla_wrong_ring():
    ctx3 = make_context(3, QQ)
    ctx4 = make_context(4, QQ)
    with pytest.raises(InvalidInput):
        nabla(cvar(ctx4, 1), ctx3)


def test_nabla_is_derivation_randomized():
    rng = random.Random(2026)
    for field in (QQ, PrimeField(5)):
        ctx = make_context(3, field)

        def rand_poly():
            p = Polynomial.zero(ctx.table, ctx.field)
            for _ in range(4):
                e = tuple(rng.randrange(3) for _ in range(3))
                p = p + Polynomial.monomial(
                    e, ctx.field.from_int(rng.randrange(1, 7)),
                    ctx.table, ctx.field)
            return p

        for _ in range(25):
            f, g = rand_poly(), rand_poly()
            lhs = nabla(f * g, ctx)
            rhs = nabla(f, ctx) * g + f * nabla(g, ctx)
            assert lhs == rhs


def test_degree8_matrix_n4():
    ctx = make_context(4, QQ)
    rows, sources, targets = nabla_matrix(ctx, 8)
    assert len(sources) == len(rows) == 5
    assert targets == [(3, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0)]
    assert rank_int(rows) == 3
    # one int row per source monomial, in the (c1^3, c1c2, c3) target basis
    assert dict(zip(sources, map(tuple, rows))) == {
        (4, 0, 0, 0): (16, 0, 0), (2, 1, 0, 0): (3, 8, 0),
        (0, 2, 0, 0): (0, 6, 0), (1, 0, 1, 0): (0, 2, 4),
        (0, 0, 0, 1): (0, 0, 1)}


def test_kernel_dims_small_n3():
    ctx = make_context(3, QQ)
    assert kernel_of_nabla(ctx, 2) == []
    k4 = kernel_of_nabla(ctx, 4)
    assert len(k4) == 1
    gen = cvar(ctx, 1) ** 2 - 3 * cvar(ctx, 2)
    # the kernel basis spans the same line
    v = k4[0]
    lead_e, lead_c = v.leading_term()
    scaled = v * (Fraction(1) / lead_c)
    assert scaled == gen * Fraction(1, 1) or scaled * 1 == gen


def test_kernel_degree8_n4_dimension():
    ctx = make_context(4, QQ)
    assert len(kernel_of_nabla(ctx, 8)) == 2


def test_kernel_odd_degree_empty():
    ctx = make_context(3, QQ)
    assert kernel_of_nabla(ctx, 5) == []


def test_bsu_counts():
    ctx = make_context(4, QQ)
    # degree 8 monomials in c2, c3, c4: c2^2 and c4
    assert bsu_monomial_count(ctx, 8) == 2
    assert bsu_monomial_count(ctx, 2) == 0
    assert bsu_monomial_count(ctx, 0) == 1


def test_stated_generators_integer_kernel_membership():
    for n in (3, 4):
        ctx, gens = stated_image_generators(n, QQ)
        for g in gens:
            assert not nabla(g, ctx)
            # exact integer coefficients
            for c in g.terms.values():
                assert c.denominator == 1


def test_verify_generators_n3_all_primes():
    ctx, gens = stated_image_generators(3, QQ)
    tables = verify_generators(ctx, gens, 12, (2, 5, 7))
    assert [t["p"] for t in tables] == [None, 2, 5, 7]
    for table in tables:
        rows = table["rows"]
        assert len(rows) == 7
        assert all(r["status"] == "ok" for r in rows)
        assert all(r["p"] == table["p"] for r in rows)


def test_verify_generators_n4_p3():
    ctx, gens = stated_image_generators(4, QQ)
    tables = verify_generators(ctx, gens, 12, (3,))
    assert [t["p"] for t in tables] == [None, 3]
    rows = tables[1]["rows"]
    assert all(r["status"] == "ok" for r in rows)
    by_degree = {r["degree"]: r for r in rows}
    assert by_degree[8]["kernel_dim"] == 2
    assert by_degree[8]["bsu_dim"] == 2
    assert by_degree[8]["generated_dim"] == 2


def test_verify_generators_rejects_p_dividing_n():
    ctx, gens = stated_image_generators(4, QQ)
    for primes in ((2,), (3, 5, 2)):
        with pytest.raises(InvalidInput, match="p=2 divides n=4"):
            verify_generators(ctx, gens, 8, primes)


def test_verify_generators_rejects_composite_p():
    # ranks in Z/4 or Z/9 are not ranks over a field
    ctx, gens = stated_image_generators(3, QQ)
    for primes in ((4,), (2, 9), (1,)):
        with pytest.raises(InvalidInput, match="is not prime"):
            verify_generators(ctx, gens, 8, primes)


def test_verify_generators_catches_bad_generator():
    ctx, gens = stated_image_generators(3, QQ)
    bad = gens + [cvar(ctx, 2)]
    with pytest.raises(GeneratorCheckFailure):
        verify_generators(ctx, bad, 8, ())


def test_verify_generators_catches_missing_generator():
    # dropping the degree-6 generator must break the span at degree 6
    ctx, gens = stated_image_generators(3, QQ)
    with pytest.raises(GeneratorCheckFailure) as exc:
        verify_generators(ctx, gens[:1], 12, (5,))
    assert "degree 6" in str(exc.value)
    assert str(exc.value).startswith("QQ, degree 6:")


def test_verify_generators_rejects_constant_and_zero_generators():
    ctx, gens = stated_image_generators(4, QQ)
    for g in (Polynomial.one(ctx.table, ctx.field),
              Polynomial.zero(ctx.table, ctx.field)):
        with pytest.raises(InvalidInput, match="zero or constant"):
            verify_generators(ctx, gens + [g], 4, ())


def test_generated_dim_degree0():
    ctx, gens = stated_image_generators(3, QQ)
    assert generated_dims(ctx, gens, 0, ()) == [[1]]
    assert generated_dims(ctx, gens, 0, (2, 5, 7)) == [[1, 1, 1, 1]]
    # degree 2 holds no product: rank 0 in every field
    assert generated_dims(ctx, gens, 3, (2,)) == [[1, 1], [0, 0]]


def test_generated_dims_refuses_degree_zero_generators():
    # an unbounded product search would never end on these
    ctx, gens = stated_image_generators(4, QQ)
    for g in (Polynomial.one(ctx.table, ctx.field),
              Polynomial.zero(ctx.table, ctx.field)):
        with pytest.raises(InvalidInput, match="positive degree"):
            generated_dims(ctx, gens + [g], 8, ())


def test_rational_kernel_dim_matches_bsu_window():
    # integral kernel rank equals the c2..cn count in every degree <= 12
    for n in (3, 4):
        ctx = make_context(n, QQ)
        for degree in range(0, 13, 2):
            assert len(kernel_of_nabla(ctx, degree)) == \
                bsu_monomial_count(ctx, degree)


def test_mod_p_kernel_can_exceed_integral_rank():
    # The derivation degenerates mod 2: both degree-4 monomials die for
    # n=3, so the F_2 kernel is 2-dimensional while the integral kernel
    # has rank 1.  This is why verify_generators ranks the kernel over Q.
    ctx2 = make_context(3, PrimeField(2))
    assert len(kernel_of_nabla(ctx2, 4)) == 2
    ctx3 = make_context(4, PrimeField(3))
    assert len(kernel_of_nabla(ctx3, 6)) == 2
    assert bsu_monomial_count(ctx3, 6) == 1


def test_integral_kernel_dim_matches_kernel_basis():
    # odd degrees included: the derivation maps them to the zero space
    for n in (3, 4):
        ctx = make_context(n, QQ)
        for degree in range(17):
            assert integral_kernel_dim(n, degree) == \
                len(kernel_of_nabla(ctx, degree))


def test_fields_of_a_claim_share_one_rank_per_degree(monkeypatch):
    built, ranked = [], []
    build, rank = nabla_module.nabla_matrix, nabla_module.rank_int

    def spy_build(ctx, degree):
        out = build(ctx, degree)
        built.append((degree, out[0]))
        return out

    def spy_rank(rows):
        ranked.extend(d for d, b in built if b is rows)
        return rank(rows)

    monkeypatch.setattr(nabla_module, "nabla_matrix", spy_build)
    monkeypatch.setattr(nabla_module, "rank_int", spy_rank)
    ctx, gens = stated_image_generators(4, QQ)
    tables = verify_generators(ctx, gens, 14, (3, 5, 7))
    assert [t["p"] for t in tables] == [None, 3, 5, 7]
    for table in tables:
        assert [r["degree"] for r in table["rows"]] == list(range(0, 15, 2))
    assert sorted(ranked) == [d for d, _ in built] == list(range(0, 15, 2))


def _per_field_generated_dim(gens, degree):
    """Span rank of the degree-`degree` generator products in gens' field."""
    table, field = gens[0].table, gens[0].field
    products = [Polynomial.one(table, field)]
    for g in gens:
        # multiply in any power of g that still fits the degree
        out = []
        for f in products:
            while f.weighted_degree() <= degree:
                out.append(f)
                f = f * g
        products = out
    products = [f for f in products if f.weighted_degree() == degree]
    monomials = monomials_of_weighted_degree(table, degree)
    zero = field.zero()
    return Matrix.from_rows([[f.terms.get(m, zero) for m in monomials]
                             for f in products], field,
                            cols=len(monomials)).rank()


def test_extra_prime_table_matches_per_field_reference():
    report = run_claims(["nabla-generators-n3"], Config(prime=11))
    tables = report.claim("nabla-generators-n3").evidence["fields"]
    assert [t["p"] for t in tables] == [None, 2, 5, 7, 11]
    _, gens = stated_image_generators(3, PrimeField(11))
    qctx = make_context(3, QQ)
    reference = []
    for degree in range(0, 13, 2):
        kdim = len(kernel_of_nabla(qctx, degree))
        reference.append({"n": 3, "p": 11, "degree": degree,
                          "kernel_dim": kdim,
                          "bsu_dim": bsu_monomial_count(qctx, degree),
                          "generated_dim": _per_field_generated_dim(gens,
                                                                    degree),
                          "status": "ok"})
    assert tables[-1]["rows"] == reference


def test_generator_scaled_by_p_fails_only_modulo_p():
    ctx, (g1, g2) = stated_image_generators(3, QQ)
    gens = [g1, 5 * g2]
    tables = verify_generators(ctx, gens, 12, ())
    assert all(r["status"] == "ok" for r in tables[0]["rows"])
    with pytest.raises(GeneratorCheckFailure) as exc:
        verify_generators(ctx, gens, 12, (2, 5, 7))
    assert str(exc.value).startswith("p=5, degree 6:")


def test_verify_generators_rejects_bad_input_before_any_rank(monkeypatch):
    def no_rank(*args):
        raise AssertionError("a rank was taken")

    monkeypatch.setattr(nabla_module, "integral_kernel_dim", no_rank)
    monkeypatch.setattr(nabla_module, "generated_dims", no_rank)
    ctx, (g1, g2) = stated_image_generators(3, QQ)
    with pytest.raises(InvalidInput, match="not integral"):
        verify_generators(ctx, [g1, g2 * Fraction(1, 2)], 12, (2,))
    with pytest.raises(InvalidInput, match="max_degree"):
        verify_generators(ctx, [g1, g2], -2, (2,))
    fctx, fgens = stated_image_generators(3, PrimeField(5))
    with pytest.raises(InvalidInput, match="over QQ"):
        verify_generators(fctx, fgens, 12, ())


def _recursive_generated_dim(ctx, gens, degree, primes):
    """Ranks of the degree-`degree` generator products, each product
    rebuilt from 1 by a recursion that takes or skips each generator."""
    degs = [g.weighted_degree() for g in gens]
    products = []

    def rec(i, remaining, current):
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


@pytest.mark.parametrize("n,primes", [(3, (2, 5, 7)), (4, (3, 5, 7))])
def test_generated_dims_match_per_degree_recursion(n, primes):
    ctx, gens = stated_image_generators(n, QQ)
    assert generated_dims(ctx, gens, 28, primes) == [
        _recursive_generated_dim(ctx, gens, d, primes)
        for d in range(0, 29, 2)]


def test_claim_builds_each_degrees_products_once(monkeypatch):
    # one multiplication per product of degree <= max_degree: 23 + 46 at
    # 28, where a rebuild from 1 in every degree took 132 + 226, and
    # 6 + 8 at the default 12 (16 + 20)
    multiplied, passes, inside = [0], [], [False]
    mul, build = Polynomial.__mul__, nabla_module.generated_dims

    def counted_mul(self, other):
        multiplied[0] += inside[0]
        return mul(self, other)

    def spy(ctx, gens, top, primes):
        passes.append(top)
        inside[0] = True
        try:
            return build(ctx, gens, top, primes)
        finally:
            inside[0] = False

    monkeypatch.setattr(Polynomial, "__mul__", counted_mul)
    monkeypatch.setattr(nabla_module, "generated_dims", spy)
    for config, products in ((Config(max_degree=28), 69), (Config(), 14)):
        multiplied[0] = 0
        passes.clear()
        report = run_claims(["nabla-generators-n3", "nabla-generators-n4"],
                            config)
        assert all(rec.status == "verified" for rec in report.records)
        assert passes == [config.max_degree] * 2
        assert multiplied[0] == products

"""Polynomial arithmetic, factorization, roots, and the bivariate type."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excpoly import (
    BiPoly,
    FieldElem,
    UniPoly,
    dickson,
    factor,
    make_field,
    roots,
)

G2 = make_field(2, 1)
G8 = make_field(2, 3)


def rand_poly(ctx, rng, maxdeg, monic=False):
    d = rng.randrange(maxdeg + 1)
    cs = [rng.randrange(ctx.order) for _ in range(d + 1)]
    if monic:
        cs[-1] = 1
    elif cs[-1] == 0:
        cs[-1] = 1 + rng.randrange(ctx.order - 1)
    return UniPoly(ctx, cs)


def test_normalization_and_degree():
    f = UniPoly(G2, (1, 1, 0, 0))
    assert f.degree == 1 and f.lead == 1
    assert UniPoly.zero(G2).degree == -1
    assert UniPoly.zero(G2).is_zero()


def test_gcd_of_square_and_its_root():
    f = UniPoly(G2, (1, 0, 1))  # X^2 + 1 = (X + 1)^2
    g = UniPoly(G2, (1, 1))
    assert f.gcd(g) == g
    assert g.gcd(f) == g


def test_divmod_of_monomials():
    f = UniPoly.monomial(G2, 3)
    g = UniPoly.monomial(G2, 2)
    q, r = divmod(f, g)
    assert q == UniPoly.X(G2) and r.is_zero()


def test_mul_divmod_round_trip_seeded():
    rng = random.Random(97)
    for _ in range(1000):
        f = rand_poly(G8, rng, 8)
        g = rand_poly(G8, rng, 8)
        if g.is_zero():
            continue
        prod = f * g
        q, r = divmod(prod, g)
        assert q == f and r.is_zero()
        assert prod.degree == f.degree + g.degree
        # a perturbed dividend must produce the matching remainder
        h = prod + UniPoly.one(G8)
        q2, r2 = divmod(h, g)
        assert q2 * g + r2 == h and (r2.is_zero() or r2.degree < g.degree)


def test_divide_by_zero_polynomial():
    with pytest.raises(ZeroDivisionError):
        divmod(UniPoly.X(G8), UniPoly.zero(G8))


def test_negative_degrees_are_refused():
    with pytest.raises(ValueError):
        UniPoly.monomial(make_field(2, 2), -1)
    with pytest.raises(ValueError):
        UniPoly.X(G8).times_x_power(-2)
    assert UniPoly.monomial(G8, 0, 5).c == (5,)
    assert UniPoly.X(G8).times_x_power(0) == UniPoly.X(G8)


def test_eval_of_trace_polynomial_at_one():
    t8 = UniPoly(G2, (0, 1, 1, 0, 1))  # X^4 + X^2 + X
    assert t8(FieldElem(G2, 1)).i == 1
    assert t8(FieldElem(G2, 0)).i == 0


def test_eval_basics_seeded():
    rng = random.Random(11)
    for _ in range(50):
        f = rand_poly(G8, rng, 6)
        g = rand_poly(G8, rng, 6)
        x = FieldElem(G8, rng.randrange(8))
        assert f(FieldElem(G8, 0)).i == f.coeff(0)
        assert (f + g)(x) == f(x) + g(x)
        assert (f * g)(x) == f(x) * g(x)


def test_compose_frobenius_shift():
    sq = UniPoly(G2, (0, 0, 1))
    lin = UniPoly(G2, (1, 1))
    assert sq.compose(lin) == UniPoly(G2, (1, 0, 1))


def test_compose_identity_and_degree():
    rng = random.Random(5)
    x = UniPoly.X(G8)
    for _ in range(25):
        f = rand_poly(G8, rng, 7)
        assert f.compose(x) == f
        g = rand_poly(G8, rng, 5)
        if f.degree >= 1 and g.degree >= 1:
            assert f.compose(g).degree == f.degree * g.degree


def test_compose_of_dickson_polynomials():
    one = FieldElem(G2, 1)
    d3 = dickson(3, one)
    d5 = dickson(5, one)
    assert d3.compose(d5).degree == 15


def test_factor_quartic_with_all_small_factors():
    f = UniPoly(G2, (0, 1, 0, 0, 1))  # X^4 + X
    fac = factor(f, seed=1)
    assert fac.unit == 1
    got = sorted((p.to_json()["coeffs"], m) for p, m in fac.factors)
    want = sorted(
        [([0, 1], 1), ([1, 1], 1), ([1, 1, 1], 1)]
    )
    assert got == want


def test_factor_irreducible_returns_itself():
    f = UniPoly(G2, (1, 1, 1))
    fac = factor(f, seed=3)
    assert fac.factors == [(f, 1)]


def test_factor_shape_of_field_polynomial():
    # X^8 + X is the product of the irreducibles of degree dividing 3:
    # the two linears and both cubics, every multiplicity 1
    f = UniPoly.monomial(G2, 8) + UniPoly.X(G2)
    fac = factor(f, seed=0)
    degs = sorted(p.degree for p, _m in fac.factors)
    assert degs == [1, 1, 3, 3]
    assert all(m == 1 for _p, m in fac.factors)


@pytest.mark.parametrize("p,e", [(2, 1), (2, 3), (3, 3)])
def test_factor_reassemble_seeded(p, e):
    ctx = make_field(p, e)
    rng = random.Random(1000 * p + e)
    for trial in range(170):
        f = rand_poly(ctx, rng, 40)
        if f.degree < 1:
            continue
        fac = factor(f, seed=trial)
        assert fac.product() == f, f"reassembly failed for trial {trial}"
        assert sum(q.degree * m for q, m in fac.factors) == f.degree
        for q, _m in fac.factors:
            assert q.is_monic()
        # factors are themselves irreducible: refactoring is a fixed point
        if trial % 17 == 0:
            for q, _m in fac.factors:
                if q.degree >= 1:
                    assert factor(q, seed=trial + 1).factors == [(q, 1)]


def test_factor_determinism_across_seeds():
    ctx = make_field(2, 3)
    rng = random.Random(8)
    for _ in range(20):
        f = rand_poly(ctx, rng, 12, monic=True)
        if f.degree < 1:
            continue
        a = factor(f, seed=42)
        b = factor(f, seed=42)
        c = factor(f, seed=43)
        assert a.factors == b.factors
        assert sorted(a.factors, key=repr) == sorted(c.factors, key=repr)


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor(UniPoly.zero(G2), seed=0)


def test_roots_with_multiplicity_sum_to_degree_when_split():
    # (X + a)^2 (X + b) keeps its multiplicities through the pipeline
    ctx = make_field(2, 3)
    a, b = 3, 5
    f = UniPoly(ctx, (a, 1)) * UniPoly(ctx, (a, 1)) * UniPoly(ctx, (b, 1))
    rs = sorted((r.i, m) for r, m in roots(f, ctx))
    assert rs == [(a, 2), (b, 1)]


def test_roots_simple_cases():
    f = UniPoly(G2, (0, 1, 1))  # X^2 + X
    rs = sorted((r.i, m) for r, m in roots(f, G2))
    assert rs == [(0, 1), (1, 1)]
    assert roots(UniPoly(G2, (1, 1, 1)), G2) == []
    sq = UniPoly(G2, (1, 0, 1))  # (X + 1)^2
    assert [(r.i, m) for r, m in roots(sq, G2)] == [(1, 2)]
    with pytest.raises(ValueError):
        roots(UniPoly.zero(G2), G2)


@pytest.mark.parametrize("p,e", [(2, 14), (3, 11)])
def test_roots_above_the_enumeration_limit(p, e):
    # fields past 2^12 elements: the split runs by trace (p = 2) or by
    # quadratic character (p = 3)
    ctx = make_field(p, e)
    rng = random.Random(100 * p + e)
    a, b = rng.sample(range(ctx.order), 2)
    # a rootless quadratic: X^2 + X + c with trace 1, or X^2 - c for a non-square c
    while True:
        c = rng.randrange(1, ctx.order)
        # the absolute trace c + c^2 + ... + c^(2^(e-1)) of GF(2^e) over GF(2)
        if p == 2 and functools.reduce(ctx.add, (ctx.pow_(c, 1 << k) for k in range(e))) == 1:
            quad = UniPoly(ctx, (c, 1, 1))
            break
        if p == 3 and ctx.pow_(c, (ctx.order - 1) // 2) != 1:
            quad = UniPoly(ctx, (ctx.neg(c), 0, 1))
            break
    f = UniPoly(ctx, (ctx.neg(a), 1)) * UniPoly(ctx, (ctx.neg(b), 1)).pow_(2) * quad
    assert [(r.i, m) for r, m in roots(f, ctx)] == sorted([(a, 1), (b, 2)])


def test_roots_of_shifted_trace_polynomial():
    from excpoly import embed

    t8p1 = UniPoly(G2, (1, 1, 1, 0, 1))  # X^4 + X^2 + X + 1
    rs = roots(t8p1, G8)
    assert len(rs) == 4
    lifted = t8p1.map_coeffs(embed(G2, G8))
    for r, m in rs:
        assert lifted(r).i == 0 and m == 1


@pytest.mark.parametrize("p,e", [(2, 6), (3, 3)])
def test_roots_match_exhaustive_evaluation(p, e):
    ctx = make_field(p, e)
    rng = random.Random(14 * p + e)
    from excpoly import embed

    for trial in range(25):
        f = rand_poly(ctx, rng, 9)
        if f.degree < 1:
            continue
        pairs = roots(f, ctx)
        assert sum(m for _r, m in pairs) <= f.degree
        got = sorted(r.i for r, _m in pairs)
        direct = sorted(x for x in ctx.elements() if f.eval_index(x) == 0)
        assert got == direct, f"trial {trial} mismatch"
        # each multiplicity is the number of times X - r divides f
        for r, m in pairs:
            lin = UniPoly(ctx, (ctx.neg(r.i), 1))
            work, times = f, 0
            while True:
                q, rem = divmod(work, lin)
                if not rem.is_zero():
                    break
                work, times = q, times + 1
            assert m == times, f"trial {trial}, root {r.i}"
    # roots in an extension of the coefficient field
    sub = make_field(2, 2)
    sup = make_field(2, 6)
    up = embed(sub, sup)
    g = UniPoly(sub, (sub.gen, 0, 1))  # X^2 + omega
    got = sorted(r.i for r, _m in roots(g, sup))
    g_up = g.map_coeffs(up)
    direct = sorted(x for x in sup.elements() if g_up.eval_index(x) == 0)
    assert got == direct


@pytest.mark.parametrize("p,e", [(2, 6), (3, 4)])
def test_fibers_partition_the_field(p, e):
    """Summing distinct-root counts of f - t over all t covers each x once."""
    ctx = make_field(p, e)
    rng = random.Random(e + 100)
    f = rand_poly(ctx, rng, 5)
    while f.degree < 2:
        f = rand_poly(ctx, rng, 5)
    total = 0
    for t in ctx.elements():
        h = f - UniPoly.const(ctx, t)
        total += len({r.i for r, _m in roots(h, ctx)})
    assert total == ctx.order


def test_pow_mod_matches_naive():
    rng = random.Random(77)
    for _ in range(20):
        f = rand_poly(G8, rng, 4)
        g = rand_poly(G8, rng, 5)
        if g.degree < 1:
            continue
        n = rng.randrange(1, 50)
        naive = UniPoly.one(G8)
        for _i in range(n):
            naive = (naive * f) % g
        assert f.pow_mod(n, g) == naive


def test_unipoly_json_wire_format():
    f = UniPoly(G8, (3, 0, 5))
    obj = f.to_json()
    assert set(obj) == {"field", "coeffs"}
    assert obj["coeffs"] == [3, 0, 5]
    assert obj["field"] == G8.to_json()


@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
@settings(max_examples=80, deadline=None)
def test_product_degree_additivity(a0, a1, b0, b1):
    f = UniPoly(G8, (a0, a1, 1))
    g = UniPoly(G8, (b0, b1, 1))
    assert (f * g).degree == 4
    assert (f * g) == (g * f)


# ---------------------------------------------------------------------------
# bivariate polynomials


def test_freshman_dream_in_two_variables():
    x = BiPoly.X(G2)
    y = BiPoly.Y(G2)
    sq = (x + y).pow_(2)
    assert sq == BiPoly(G2, {(2, 0): 1, (0, 2): 1})


def test_bipoly_mul_commutes_seeded():
    rng = random.Random(33)
    for _ in range(40):
        a = BiPoly(
            G8,
            {
                (rng.randrange(4), rng.randrange(4)): 1 + rng.randrange(7)
                for _k in range(4)
            },
        )
        b = BiPoly(
            G8,
            {
                (rng.randrange(4), rng.randrange(4)): 1 + rng.randrange(7)
                for _k in range(3)
            },
        )
        assert a * b == b * a


def test_bipoly_stores_no_zero_terms():
    a = BiPoly(G2, {(1, 0): 1})
    b = BiPoly(G2, {(1, 0): 1, (0, 1): 1})
    s = a + b
    assert (1, 0) not in s.terms
    assert s == BiPoly.Y(G2)
    assert BiPoly(G2, {(2, 2): 0}).is_zero()


def test_bipoly_substitution_consistency_seeded():
    """Full evaluation equals substituting one variable at a time."""
    rng = random.Random(90)
    for _ in range(30):
        a = BiPoly(
            G8,
            {
                (rng.randrange(5), rng.randrange(5)): 1 + rng.randrange(7)
                for _k in range(5)
            },
        )
        xv = rng.randrange(8)
        yv = rng.randrange(8)
        direct = a.eval(xv, yv)
        stage1 = a.subst(x=BiPoly.const(G8, xv))
        stage2 = stage1.subst(y=BiPoly.const(G8, yv))
        assert stage2.is_zero() and direct == 0 or stage2.coeff(0, 0) == direct
        # and in the other order
        other = a.subst(y=BiPoly.const(G8, yv)).subst(x=BiPoly.const(G8, xv))
        assert other == stage2


def test_bipoly_swap_and_rational_substitution():
    x = BiPoly.X(G8)
    y = BiPoly.Y(G8)
    sym = x * y + x + y
    assert sym.swap_vars() == sym
    # X := 1/Y with the denominator declared: Y^degx clears it
    f = x.pow_(2) + y
    cleared = f.subst(x=(BiPoly.const(G8, 1), y))
    assert cleared == BiPoly.const(G8, 1) + y.pow_(3)

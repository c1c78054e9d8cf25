"""Family constructors, the two forms of the degree q(q-1)/2 family, and
parameter recovery from twisted members."""

import random

import pytest

from excpoly import families
from excpoly import (
    CanonicalForm,
    FamilySpec,
    FieldElem,
    NotInFamily,
    UniPoly,
    canonicalize,
    dickson,
    f_closed,
    f_product,
    family_iv,
    family_v,
    make_field,
    trace_poly,
)

G4 = make_field(2, 2)
G8 = make_field(2, 3)
G16 = make_field(2, 4)


def nonprime_elements(ctx):
    return [FieldElem(ctx, i) for i in range(2, ctx.order)]


# ---------------------------------------------------------------------------
# trace polynomial


def test_trace_poly_small_cases():
    t4 = trace_poly(4)
    assert t4.to_json()["coeffs"] == [0, 1, 1]
    t8 = trace_poly(8)
    assert t8.to_json()["coeffs"] == [0, 1, 1, 0, 1]
    for q in (2, 4, 8, 16, 32):
        t = trace_poly(q)
        assert t.degree == q // 2
        assert sum(1 for c in t.to_json()["coeffs"] if c) == q.bit_length() - 1


def test_trace_poly_rejects_non_powers_of_two():
    with pytest.raises(ValueError):
        trace_poly(6)
    with pytest.raises(ValueError):
        trace_poly(27)


@pytest.mark.parametrize("q", [4, 8, 16])
def test_trace_squaring_identity(q):
    """T(X)^2 + T(X) = X^q + X as polynomials."""
    ctx = make_field(2, q.bit_length() - 1)
    t = trace_poly(q, ctx)
    lhs = t * t + t
    rhs = UniPoly.monomial(ctx, q) + UniPoly.X(ctx)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# closed form and product form


def test_f_closed_q4_basics():
    for a in nonprime_elements(G4):
        f = f_closed(4, a)
        assert f.is_monic() and f.degree == 6
        assert f.ctx is G4


def test_f_closed_q8_even_quotient():
    t8 = trace_poly(8, G4)
    for a in nonprime_elements(G4):
        f = f_closed(8, a)
        assert f.degree == 28
        g = f.exact_div(t8 + UniPoly.const(G4, a.i))
        odd = [k for k in range(g.degree + 1) if k % 2 and g.coeff(k)]
        assert odd == [], f"odd-degree terms at {odd}"


def test_f_closed_q8_x_squared_valuation():
    """X^2 exactly divides the member iff alpha lies in GF(q)."""
    for a in nonprime_elements(G8):
        f = f_closed(8, a)
        assert f.coeff(0) == 0 and f.coeff(1) == 0 and f.coeff(2) != 0
    for a in nonprime_elements(G4):
        f = f_closed(8, a)
        v = 0
        while f.coeff(v) == 0:
            v += 1
        assert v != 2


def test_f_closed_rejects_prime_field_alpha():
    for i in (0, 1):
        with pytest.raises(ValueError):
            f_closed(8, FieldElem(G4, i))


def test_f_product_q4_matches_closed_form():
    for a in nonprime_elements(G4):
        fp = f_product(4, a)
        assert fp.ctx is G4 and fp.degree == 6 and fp.is_monic()
        shifted = FieldElem(G4, G4.add(a.i, 1))
        if shifted.i not in (0, 1):
            assert fp == f_closed(4, shifted)


def test_f_product_quotient_is_a_perfect_square():
    t4 = trace_poly(4, G16)
    for a in nonprime_elements(G16):
        fp = f_product(4, a)
        g = fp.exact_div(t4 + UniPoly.const(G16, G16.add(a.i, 1)))
        assert all(g.coeff(k) == 0 for k in range(1, g.degree + 1, 2))
        root = UniPoly(G16, [G16.sqrt_(g.coeff(2 * i)) for i in range(g.degree // 2 + 1)])
        assert root * root == g


def test_f_product_descends_from_the_compositum():
    # a in GF(4), product over GF(8)*: the result still lands in GF(4)
    for a in nonprime_elements(G4):
        fp = f_product(8, a)
        assert fp.ctx is G4
        assert fp == f_closed(8, FieldElem(G4, G4.add(a.i, 1)))


# ---------------------------------------------------------------------------
# Dickson polynomials


def test_dickson_degree_two():
    assert dickson(2, FieldElem(G4, 1)) == UniPoly.monomial(G4, 2)
    g9 = make_field(3, 2)
    got = dickson(2, FieldElem(g9, 1))
    assert got == UniPoly(g9, (1, 0, 1))  # X^2 - 2 = X^2 + 1 mod 3


def test_dickson_degree_three_char2():
    for ctx in (G4, G8):
        for ai in range(1, ctx.order):
            a = FieldElem(ctx, ai)
            assert dickson(3, a) == UniPoly(ctx, (0, a.i, 0, 1))


def rec_dickson(d, alpha):
    ctx = alpha.ctx
    prev = UniPoly.const(ctx, 2 % ctx.p)
    cur = UniPoly.X(ctx)
    if d == 0:
        return prev
    for _ in range(d - 1):
        prev, cur = cur, UniPoly.X(ctx) * cur - prev.scale(alpha.i)
    return cur


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2)])
def test_dickson_formula_equals_recurrence(p, e):
    ctx = make_field(p, e)
    rng = random.Random(p * 100 + e)
    units = [1 + rng.randrange(ctx.order - 1) for _ in range(3)]
    for ai in units:
        a = FieldElem(ctx, ai)
        for d in range(1, 41):
            assert dickson(d, a) == rec_dickson(d, a), f"d={d}, alpha={ai}"


def test_dickson_functional_identity_sample():
    ctx = make_field(2, 8)
    rng = random.Random(555)
    for _ in range(40):
        ai = 1 + rng.randrange(ctx.order - 1)
        yi = 1 + rng.randrange(ctx.order - 1)
        d = 1 + rng.randrange(11)
        x = ctx.add(yi, ctx.div(ai, yi))
        lhs = dickson(d, FieldElem(ctx, ai)).eval_index(x)
        rhs = ctx.add(ctx.pow_(yi, d), ctx.pow_(ctx.div(ai, yi), d))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# additive twists


def test_family_iv_degree_and_shape():
    one = FieldElem(G4, 1)
    f = family_iv(8, 1, one)
    assert f.degree == 28 and f.coeff(0) == 0
    # X * (1 + X + X^3)^9 expanded
    inner = UniPoly(G4, (1, 1, 0, 1))
    assert f == inner.pow_(9).times_x_power(1)
    assert family_iv(8, 9, one).degree == 28
    assert family_iv(8, 3, one).degree == 28


def test_family_iv_rejects_bad_parameters():
    one = FieldElem(G4, 1)
    with pytest.raises(ValueError):
        family_iv(8, 2, one)  # 2 does not divide 9
    with pytest.raises(ValueError):
        family_iv(4, 1, one)  # even exponent
    with pytest.raises(ValueError):
        family_iv(8, 1, FieldElem(G4, 0))


def test_family_v_degrees():
    g9 = make_field(3, 2)
    a = FieldElem(g9, g9.gen)
    assert family_v(27, 1, a).degree == 351
    assert family_v(27, 7, a).degree == 351


def test_family_v_rejects_bad_parameters():
    g9 = make_field(3, 2)
    a = FieldElem(g9, g9.gen)
    with pytest.raises(ValueError):
        family_v(27, 2, a)  # 8 does not divide 28
    with pytest.raises(ValueError):
        family_v(9, 1, a)  # even exponent
    with pytest.raises(ValueError):
        family_v(27, 1, FieldElem(g9, 0))


def test_members_have_nonzero_derivative():
    built = [
        f_closed(4, FieldElem(G4, 2)),
        f_closed(8, FieldElem(G4, 3)),
        f_closed(16, FieldElem(G16, 5)),
        family_iv(8, 1, FieldElem(G4, 1)),
        family_v(27, 1, FieldElem(make_field(3, 2), 1)),
        dickson(7, FieldElem(G4, 2)),
    ]
    for f in built:
        assert not f.derivative().is_zero()


# ---------------------------------------------------------------------------
# family specs


def test_family_spec_build_and_json():
    spec = FamilySpec(kind="char2_new", q=8, alpha=FieldElem(G4, 2))
    f = spec.build()
    assert f.degree == 28
    obj = spec.to_json()
    assert obj["kind"] == "char2_new" and obj["q"] == 8
    assert obj["alpha"]["index"] == 2
    assert obj["alpha"]["field"] == G4.to_json()

    pspec = FamilySpec(kind="power", d=5, field=G8)
    assert pspec.build() == UniPoly.monomial(G8, 5)
    assert pspec.to_json() == {"kind": "power", "d": 5, "field": G8.to_json()}


def test_family_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        FamilySpec(kind="cyclotomic")


def test_family_spec_build_honors_member_preconditions():
    bad = FamilySpec(kind="char2_new", q=8, alpha=FieldElem(G4, 1))
    with pytest.raises(ValueError):
        bad.build()
    bad2 = FamilySpec(kind="char2_additive_twist", q=8, n=2, alpha=FieldElem(G4, 1))
    with pytest.raises(ValueError):
        bad2.build()


# ---------------------------------------------------------------------------
# canonicalization


def test_canonicalize_identity_composition():
    for a in nonprime_elements(G4):
        form = canonicalize(f_closed(8, a), 8)
        assert (form.alpha, form.zeta.i, form.gamma.i, form.eta.i, form.delta.i) == (
            a,
            1,
            0,
            1,
            0,
        )


def test_canonicalize_recovers_shift_and_offset():
    rng = random.Random(808)
    a = FieldElem(G4, 2)
    base = f_closed(8, a)
    for _ in range(10):
        c = rng.randrange(4)
        g = base.compose(UniPoly(G4, (c, 1))) + UniPoly.one(G4)
        form = canonicalize(g, 8)
        assert form.alpha == a
        assert form.gamma.i == c and form.delta.i == 1
        assert form.zeta.i == 1 and form.eta.i == 1
        assert form.reassemble() == g


def test_canonicalize_rejects_monomial():
    with pytest.raises(NotInFamily):
        canonicalize(UniPoly.monomial(G4, 28), 8)


def test_canonicalize_rejects_wrong_degree_and_bad_q():
    with pytest.raises(NotInFamily):
        canonicalize(UniPoly.monomial(G4, 27), 8)
    with pytest.raises(NotInFamily):
        canonicalize(UniPoly.monomial(G4, 15), 6)
    for q in (0, 2):
        with pytest.raises(NotInFamily):
            canonicalize(UniPoly.monomial(G4, 28), q)


def test_canonicalize_full_twist_round_trip():
    rng = random.Random(4321)
    for _ in range(15):
        ai = 2 + rng.randrange(14)
        z = 1 + rng.randrange(15)
        g = rng.randrange(16)
        eta = 1 + rng.randrange(15)
        d = rng.randrange(16)
        form = CanonicalForm(
            q=8,
            alpha=FieldElem(G16, ai),
            zeta=FieldElem(G16, z),
            gamma=FieldElem(G16, g),
            eta=FieldElem(G16, eta),
            delta=FieldElem(G16, d),
        )
        f = form.reassemble()
        got = canonicalize(f, 8)
        assert got == form
        assert got.reassemble() == f


def test_canonicalize_q4_correction_term():
    """The q = 4 read of the gamma coefficient needs the extra alpha+1
    contribution; a twisted member round-trips only if it is applied."""
    rng = random.Random(99)
    for _ in range(10):
        ai = 2 + rng.randrange(14)
        z = 1 + rng.randrange(15)
        g = rng.randrange(16)
        eta = 1 + rng.randrange(15)
        d = rng.randrange(16)
        form = CanonicalForm(
            q=4,
            alpha=FieldElem(G16, ai),
            zeta=FieldElem(G16, z),
            gamma=FieldElem(G16, g),
            eta=FieldElem(G16, eta),
            delta=FieldElem(G16, d),
        )
        f = form.reassemble()
        assert canonicalize(f, 4) == form


def test_canonicalize_builds_the_family_member_once(monkeypatch):
    """One f_closed per canonicalize, delta read from the reassembly with
    delta = 0; the full reassembly still refuses a coefficient no step reads."""
    form = CanonicalForm(q=8, alpha=FieldElem(G16, 7), zeta=FieldElem(G16, 3),
                         gamma=FieldElem(G16, 5), eta=FieldElem(G16, 9),
                         delta=FieldElem(G16, 11))
    f = form.reassemble()
    built = []
    f_closed_real = families.f_closed

    def spy(q, alpha):
        built.append(q)
        return f_closed_real(q, alpha)

    monkeypatch.setattr(families, "f_closed", spy)
    assert canonicalize(f, 8) == form
    assert built == [8]
    coeffs = list(f.c)
    coeffs[5] ^= 1
    with pytest.raises(NotInFamily, match="reassembly mismatch"):
        canonicalize(UniPoly(G16, coeffs), 8)
    assert built == [8, 8]

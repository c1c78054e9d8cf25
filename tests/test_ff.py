"""Field arithmetic: construction, axioms, Frobenius, embeddings."""

import ast
import functools
import operator
import os
import pathlib
import pickle
import random
import re
import subprocess
import sys

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import excpoly
from excpoly import BiPoly, FieldElem, UniPoly, embed, ff, field_from_json, make_field
from excpoly.curves import FnField, RatFn
from excpoly.ff import MAX_ORDER, FieldCtx, TABLE_LIMIT, is_prime, lift, log_p, prime_factors

# every field here stays at or below 2^12 elements, so the per-element
# sweeps are exhaustive
AXIOM_FIELDS = [(2, 1), (2, 2), (2, 4), (2, 8), (2, 12), (3, 1), (3, 2), (3, 3), (3, 7)]


def test_make_field_basics():
    g2 = make_field(2, 1)
    assert g2.order == 2
    assert sorted(g2.elements()) == [0, 1]
    assert make_field(2, 3).order == 8
    assert make_field(3, 2).order == 9
    # cached: the same (p, e) hands back the identical context
    assert make_field(2, 3) is make_field(2, 3)


def test_make_field_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_field(5, 2)
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(2, 33)
    # the size guard comes before the modulus search and the primality test
    with pytest.raises(ValueError, match="size guard"):
        make_field(2, 27)
    for p in (2**89 - 1, 10**30 + 57):
        with pytest.raises(ValueError, match="size guard"):
            FieldCtx(p, 1, (0, 1))


def test_field_json_round_trip():
    for p, e in [(2, 4), (3, 3)]:
        ctx = make_field(p, e)
        obj = ctx.to_json()
        assert obj["p"] == p and obj["e"] == e
        assert len(obj["modulus"]) == e + 1 and obj["modulus"][-1] == 1
        assert field_from_json(obj) is ctx


def test_field_pickles_as_its_wire_form():
    ctx = make_field(2, 16)
    blob = pickle.dumps(ctx)
    assert pickle.loads(blob) is ctx
    assert len(blob) < 200          # no log tables cross a process boundary
    other = FieldCtx(2, 4, (1, 0, 0, 1, 1))
    assert other != make_field(2, 4)
    back = pickle.loads(pickle.dumps(other))
    assert back == other and back.modulus == other.modulus
    f = UniPoly(other, (3, 0, 7, 1))
    assert pickle.loads(pickle.dumps(f)) == f


@pytest.mark.parametrize("threads,jobs,cpus,size", [
    (8, 3, 8, 3), (64, 10, 2, 2), (2, 1, 8, None), (0, 5, 8, None), (4, 5, None, None)])
def test_fan_out_pool_never_exceeds_jobs_or_cpus(monkeypatch, threads, jobs, cpus, size):
    sizes = []

    class FakePool:
        """Records its size and runs starmap serially: no process starts."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, args):
            return [fn(*a) for a in args]

    monkeypatch.setattr(ff.multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    got = ff._fan_out(operator.add, [(k, 1) for k in range(jobs)], threads)
    assert got == list(range(1, jobs + 1))
    assert sizes == ([] if size is None else [size])


def test_generator_order_in_gf16():
    ctx = make_field(2, 4)
    g = ctx.gen
    cur = 1
    seen = set()
    for k in range(1, 15):
        cur = ctx.mul(cur, g)
        assert cur != 1, f"generator closed at order {k}"
        seen.add(cur)
    assert ctx.mul(cur, g) == 1
    assert len(seen) == 14  # all nonzero non-identity powers distinct


def _reference_tables(ctx):
    """exp/log by the chain cur -> cur * gen through _mul_raw, the table
    build before p = 2 stepped by shift and fold."""
    n = ctx.order - 1
    exp, log = [0] * (2 * n), [-1] * ctx.order
    cur = 1
    for i in range(n):
        exp[i] = exp[i + n] = cur
        log[cur] = i
        cur = ctx._mul_raw(cur, ctx.gen)
    assert cur == 1
    return exp, log


@pytest.mark.parametrize("p,e", [(2, e) for e in range(2, 17)] + [(3, 3)])
def test_table_build_matches_the_multiplication_chain(monkeypatch, p, e):
    real = FieldCtx._mul_raw
    calls = []

    def spy(self, a, b):
        calls.append(b)
        return real(self, a, b)

    ctx = FieldCtx(p, e, make_field(p, e).modulus)
    ref = _reference_tables(ctx)
    monkeypatch.setattr(FieldCtx, "_mul_raw", spy)
    ctx._build_tables()
    # p = 2 shifts and folds; p = 3 still multiplies by the generator
    assert calls == ([] if p == 2 else [ctx.gen] * (ctx.order - 1))
    assert (ctx._exp, ctx._log) == ref


@pytest.mark.parametrize("modulus,patched,match", [
    # irreducible, but x has order 5 in GF(16)^*
    ((1, 1, 1, 1, 1), ("_is_primitive",), "closed early"),
    # X^2: the chain 1, x, 0 ends at 0
    ((0, 0, 1), ("_is_irreducible", "_is_primitive"), "does not divide"),
])
def test_table_build_errors_fire(monkeypatch, modulus, patched, match):
    """Census mutants: a modulus the field checks wrongly let through must
    stop the table build."""
    for name in patched:
        monkeypatch.setattr(ff, name, lambda *args: True)
    with pytest.raises(ArithmeticError, match=match):
        FieldCtx(2, len(modulus) - 1, modulus)


@pytest.mark.parametrize("p,e", AXIOM_FIELDS)
def test_field_axioms(p, e):
    ctx = make_field(p, e)
    # inverses: exhaustive over every nonzero element
    for a in range(1, ctx.order):
        assert ctx.mul(a, ctx.inv(a)) == 1
        assert ctx.add(a, ctx.neg(a)) == 0
    # associativity / distributivity / commutativity on seeded triples
    rng = random.Random(20_000 + 31 * p + e)
    for _ in range(200):
        a = rng.randrange(ctx.order)
        b = rng.randrange(ctx.order)
        c = rng.randrange(ctx.order)
        assert ctx.add(a, b) == ctx.add(b, a)
        assert ctx.mul(a, b) == ctx.mul(b, a)
        assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))


def test_characteristic():
    g8 = make_field(2, 3)
    for a in g8.elements():
        assert g8.add(a, a) == 0
    g27 = make_field(3, 3)
    for a in g27.elements():
        assert g27.add(a, g27.add(a, a)) == 0


@pytest.mark.parametrize("p,e", AXIOM_FIELDS)
def test_frobenius_order_is_exactly_e(p, e):
    ctx = make_field(p, e)
    for a in ctx.elements():
        cur = a
        for _ in range(e):
            cur = ctx.frob(cur)
        assert cur == a, f"frobenius^{e} moved {a}"
    # no proper power of the map is the identity
    for ell in {2, 3, 5, 7, 11}:
        if e % ell:
            continue
        d = e // ell
        moved = any(ctx.pow_(a, p**d) != a for a in ctx.elements())
        assert moved, f"frobenius^{d} already fixes GF({p}^{e})"


def test_frob_above_the_tables_is_one_product(monkeypatch):
    ctx = make_field(2, 18)
    assert ctx._log is None
    real = FieldCtx._mul_raw
    calls = []

    def spy(self, a, b):
        calls.append((a, b))
        return real(self, a, b)

    monkeypatch.setattr(FieldCtx, "_mul_raw", spy)
    a = 123457
    assert ctx.frob(a) == real(ctx, a, a)
    assert calls == [(a, a)]


def test_pow_and_frobenius_agree_in_gf8():
    ctx = make_field(2, 3)
    for a in ctx.elements():
        # x^8 = x, and three squarings are one Frobenius cycle
        assert ctx.pow_(a, 8) == a
        assert ctx.frob(ctx.frob(ctx.frob(a))) == a


def test_pow_edge_cases():
    ctx = make_field(2, 4)
    assert ctx.pow_(0, 0) == 1
    assert ctx.pow_(0, 5) == 0
    g = ctx.gen
    assert ctx.mul(ctx.pow_(g, -1), g) == 1
    with pytest.raises(ZeroDivisionError):
        ctx.pow_(0, -1)
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


def test_sqrt_is_inverse_of_squaring():
    ctx = make_field(2, 4)
    for a in ctx.elements():
        assert ctx.sqrt_(ctx.mul(a, a)) == a


@given(st.integers(0, 8), st.integers(0, 8), st.integers(-20, 40))
@settings(max_examples=120, deadline=None)
def test_arith_dispatch_matches_operators(ai, bi, k):
    """The FieldElem operators dispatch to the context's packed-index
    arithmetic, and ctx.inv and ctx.frob agree with them."""
    ctx = make_field(3, 2)
    a = FieldElem(ctx, ai)
    b = FieldElem(ctx, bi)
    assert (a + b).i == ctx.add(ai, bi) and (a + b) - b == a
    assert (a - b).i == ctx.sub(ai, bi)
    assert (a * b).i == ctx.mul(ai, bi)
    assert (-a).i == ctx.neg(ai) and a + -a == ctx.zero
    assert FieldElem(ctx, ctx.frob(ai)) == a**3 == a * a * a
    if ai != 0:
        assert FieldElem(ctx, ctx.inv(ai)) * a == ctx.one
        assert a**k * a**-k == ctx.one and a**k == a**(k % 8)
    if bi != 0:
        assert (a / b) * b == a


def test_field_ops_reject_mixed_fields():
    a = make_field(2, 2).one
    b = make_field(2, 3).one
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(ValueError):
            op(a, b)


def test_every_scalar_door_checks_the_field():
    """Each constructor that takes a field scalar accepts a FieldElem of its
    own field or an int in [0, order), and refuses anything else by name."""
    ctx = make_field(2, 4)
    fn = FnField(ctx, 4, RatFn.one(ctx), RatFn.one(ctx))
    doors = {
        "UniPoly.const": lambda a: UniPoly.const(ctx, a),
        "UniPoly.monomial": lambda a: UniPoly.monomial(ctx, 2, a),
        "UniPoly.scale": UniPoly.X(ctx).scale,
        "UniPoly.__call__": UniPoly.X(ctx),
        "BiPoly.const": lambda a: BiPoly.const(ctx, a),
        "BiPoly.scale": BiPoly.X(ctx).scale,
        "BiPoly.eval at x": lambda a: BiPoly.X(ctx).eval(a, 1),
        "BiPoly.eval at y": lambda a: BiPoly.Y(ctx).eval(1, a),
        "RatFn.const": lambda a: RatFn.const(ctx, a),
        "RatFn.scale": RatFn.one(ctx).scale,
        "FnField.scale_c": lambda a: fn.scale_c(fn.one_el, a),
        "FieldCtx.__call__": ctx,
    }
    # GF(4) embeds in GF(16), where its element 2 is 6: an index is no lift
    foreign = (FieldElem(make_field(2, 2), 2), FieldElem(make_field(2, 3), 1))
    for name, door in doors.items():
        for good in (FieldElem(ctx, 15), 15, 0):
            door(good)
        for bad in foreign + (16, 99, -1):
            with pytest.raises(ValueError):
                door(bad)
                pytest.fail(f"{name} accepted {bad!r}")


@pytest.mark.parametrize("p,e", [(2, 16), (3, 4)])
def test_index_codec_is_a_bijection(p, e):
    ctx = make_field(p, e)
    for i in range(ctx.order):
        cs = ctx.coeffs(i)
        assert len(cs) == e and all(0 <= c < p for c in cs)
        assert sum(c * p**k for k, c in enumerate(cs)) == i


def test_element_wrapper_basics():
    ctx = make_field(2, 2)
    assert ctx(3).i == 3
    assert ctx.zero == FieldElem(ctx, 0) and not ctx.zero
    assert ctx.one.i == 1
    with pytest.raises(ValueError):
        ctx(4)
    with pytest.raises(ValueError):
        ctx(-1)


# ---------------------------------------------------------------------------
# embeddings


def test_prime_field_embeds_with_identity_on_one():
    emb = embed(make_field(2, 1), make_field(2, 3))
    assert emb.apply(0) == 0
    assert emb.apply(1) == 1


def test_embedding_gf4_into_gf16():
    sub = make_field(2, 2)
    sup = make_field(2, 4)
    emb = embed(sub, sup)
    # the image of the source generator keeps its multiplicative order
    img = emb.apply(sub.gen)
    assert sup.pow_(img, 3) == 1 and img != 1
    # and is a root of the source modulus inside the target
    acc = 0
    for c in reversed(sub.modulus):
        acc = sup.add(sup.mul(acc, img), c)
    assert acc == 0
    # ring homomorphism, exhaustively on the 16 source pairs
    for a in sub.elements():
        for b in sub.elements():
            assert emb.apply(sub.add(a, b)) == sup.add(emb.apply(a), emb.apply(b))
            assert emb.apply(sub.mul(a, b)) == sup.mul(emb.apply(a), emb.apply(b))
    # section inverts on the image and rejects outsiders
    hits = 0
    for b in sup.elements():
        j = emb.section_index(b)
        if j is not None:
            assert emb.apply(j) == b
            hits += 1
    assert hits == sub.order


def test_embedding_rejects_non_divisible_degrees():
    with pytest.raises(ValueError):
        embed(make_field(2, 2), make_field(2, 3))
    with pytest.raises(ValueError):
        embed(make_field(2, 2), make_field(3, 2))


# ---------------------------------------------------------------------------
# additive solvability


@pytest.mark.parametrize("q,m", [(4, 1), (4, 2), (8, 1)])
def test_additive_equation_solvable_iff_trace_vanishes(q, m):
    """v^q + v = c has solutions exactly on the kernel of the trace
    c + c^q + ... + c^(q^(m-1)) of GF(q^m) over GF(q), q of them."""
    e = q.bit_length() - 1
    ctx = make_field(2, e * m)
    for c in ctx.elements():
        sols = sum(1 for v in ctx.elements() if ctx.add(ctx.pow_(v, q), v) == c)
        if functools.reduce(ctx.add, (ctx.pow_(c, q**k) for k in range(m))) == 0:
            assert sols == q, f"trace-zero c = {c} has {sols} solutions"
        else:
            assert sols == 0, f"trace-nonzero c = {c} is solvable"


# ---------------------------------------------------------------------------
# same-degree and large odd-characteristic embeddings, lift, log_p


def test_same_degree_embedding_between_moduli_is_a_homomorphism():
    sub = FieldCtx(2, 4, (1, 0, 0, 1, 1))
    sup = make_field(2, 4)
    assert sub != sup
    emb = embed(sub, sup)
    for a in sub.elements():
        for b in sub.elements():
            assert emb.apply(sub.mul(a, b)) == sup.mul(emb.apply(a), emb.apply(b))
            assert emb.apply(sub.add(a, b)) == sup.add(emb.apply(a), emb.apply(b))
    # lift reads a non-canonical alpha through the embedding, not as an index
    alpha = FieldElem(sub, sub.gen)
    assert lift(alpha, sup) == FieldElem(sup, emb.root)


def test_odd_characteristic_embedding_above_the_enumeration_limit():
    sub = make_field(3, 3)
    sup = make_field(3, 12)
    emb = embed(sub, sup)
    rng = random.Random(3012)
    for _ in range(200):
        a, b = rng.randrange(sub.order), rng.randrange(sub.order)
        assert emb.apply(sub.mul(a, b)) == sup.mul(emb.apply(a), emb.apply(b))
        assert emb.apply(sub.add(a, b)) == sup.add(emb.apply(a), emb.apply(b))
    assert emb.section_index(emb.apply(sub.gen)) == sub.gen


def test_lift_moves_elements_and_polynomials():
    g4, g16 = make_field(2, 2), make_field(2, 4)
    x = FieldElem(g4, 2)
    assert lift(x, g4) is x
    assert lift(x, g16) == FieldElem(g16, embed(g4, g16).apply(2))
    f = UniPoly(g4, (1, 2, 3))
    assert lift(f, g4) is f
    assert lift(f, g16) == f.map_coeffs(embed(g4, g16))
    with pytest.raises(ValueError):
        lift(x, make_field(2, 3))
    with pytest.raises(ValueError):
        lift(f, make_field(3, 2))


def test_log_p():
    assert [log_p(q, 2) for q in (2, 4, 8, 1 << 20)] == [1, 2, 3, 20]
    assert log_p(27, 3) == 3
    for q, p in ((1, 2), (0, 2), (6, 2), (12, 2), (8, 3), (18, 3)):
        with pytest.raises(ValueError):
            log_p(q, p)


# ---------------------------------------------------------------------------
# integer helpers, differential against sympy (a test dependency only)

# Carmichael numbers, then the least strong pseudoprimes to the first 1..12
# prime bases (OEIS A014233) that lie below is_prime's certified bound
PSEUDOPRIMES = (
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745, 825265, 321197185,
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
)


def _unit_orders():
    """p^e - 1 for every small prime p and every p^e under the size guard."""
    for p in (2, 3, 5, 7, 11, 13):
        q = p
        while q <= MAX_ORDER:
            yield q - 1
            q *= p


def test_integer_helpers_match_sympy_on_fixed_inputs():
    for n in range(1, 5000):
        assert prime_factors(n) == sorted(sympy.factorint(n)), n
    for n in range(-3, 20000):
        assert is_prime(n) == sympy.isprime(n), n
    for n in _unit_orders():
        if n >= 1:
            assert prime_factors(n) == sorted(sympy.factorint(n)), n
        for m in (n, n + 2):
            assert is_prime(m) == sympy.isprime(m), m
    for n in PSEUDOPRIMES:
        assert not sympy.isprime(n)
        assert not is_prime(n), n
    for k in (31, 61, 67, 79):  # Mersenne numbers, prime and composite
        assert is_prime(2**k - 1) == sympy.isprime(2**k - 1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, MAX_ORDER))
def test_prime_factors_matches_sympy(n):
    assert prime_factors(n) == sorted(sympy.factorint(n))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.integers(-10, MAX_ORDER), st.integers(MAX_ORDER, 3 * 10**24)))
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


def test_integer_helpers_name_their_range():
    for n in (0, -4, MAX_ORDER + 1):
        with pytest.raises(ValueError):
            prime_factors(n)
    bound = 3317044064679887385961981  # strong pseudoprime to the 13 bases
    assert is_prime(bound - 2) == sympy.isprime(bound - 2)
    for n in (bound, bound + 1, 10**30 + 57):
        with pytest.raises(ValueError, match="3.3"):
            is_prime(n)


def _subprocess_env():
    """The environment for a child interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(excpoly.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def test_package_import_leaves_sympy_out():
    code = ("import sys, excpoly, excpoly.cli, excpoly.curves, excpoly.monodromy, "
            "excpoly.exceptional, excpoly.checks\n"
            "if 'sympy' in sys.modules: raise SystemExit('sympy was imported')")
    done = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


def test_library_checks_raise_under_python_O():
    """The named errors must not depend on assert statements being live."""
    code = """
import contextlib, io, json
from excpoly import cli
from excpoly.curves import weil_check
from excpoly.exceptional import _mult_order
from excpoly.families import MAX_DEGREE, FamilySpec, dickson, f_closed, family_iv, trace_poly
from excpoly.ff import FieldCtx, FieldElem, VecField, embed, lift, log_p, make_field
from excpoly.poly import BiPoly, UniPoly, _pth_root_poly
one = FieldElem(make_field(2, 2), 1)
cases = [
    lambda: FieldCtx(10**30 + 57, 1, (0, 1)),
    lambda: weil_check(-1, 4, 3),
    lambda: weil_check(2, 1, 3),
    lambda: FamilySpec(kind="power", d=MAX_DEGREE + 1, field=make_field(2, 2)).build(),
    lambda: FamilySpec(kind="dickson", d=MAX_DEGREE + 1, alpha=one).build(),
    lambda: trace_poly(12),
    lambda: trace_poly(4, make_field(3, 1)),
    lambda: FamilySpec(kind="wibble"),
    lambda: FamilySpec(kind="power").build(),
    lambda: FamilySpec(kind="power", d=3).build(),
    lambda: family_iv(8, 4, one),
    lambda: f_closed(2, one),
    lambda: dickson(0, one),
    lambda: embed(make_field(2, 2), make_field(3, 2)),
    lambda: embed(make_field(2, 2), make_field(2, 3)),
    lambda: lift(make_field(2, 2).one, make_field(2, 3)),
    lambda: log_p(6, 2),
    lambda: VecField(make_field(3, 2)),
    # mixed fields, negative exponents and wrong domains in ff and poly
    lambda: one + FieldElem(make_field(2, 3), 1),
    lambda: one - FieldElem(make_field(2, 3), 1),
    lambda: one * FieldElem(make_field(2, 3), 1),
    lambda: one / FieldElem(make_field(2, 3), 1),
    lambda: UniPoly.X(make_field(2, 2)) + UniPoly.X(make_field(2, 3)),
    lambda: UniPoly.X(make_field(2, 2)) * UniPoly.X(make_field(2, 3)),
    lambda: divmod(UniPoly.X(make_field(2, 2)), UniPoly.X(make_field(2, 3))),
    lambda: UniPoly.X(make_field(2, 2)).gcd(UniPoly.X(make_field(2, 3))),
    lambda: UniPoly.X(make_field(2, 2)).pow_mod(3, UniPoly.X(make_field(2, 3))),
    lambda: UniPoly.X(make_field(2, 2))(FieldElem(make_field(2, 3), 1)),
    lambda: BiPoly.X(make_field(2, 2)) * BiPoly.X(make_field(2, 3)),
    lambda: UniPoly.X(make_field(2, 2)).pow_(-1),
    lambda: UniPoly.X(make_field(2, 2)).pow_mod(-1, UniPoly.monomial(make_field(2, 2), 2)),
    lambda: BiPoly.X(make_field(2, 2)).pow_(-1),
    lambda: UniPoly.monomial(make_field(2, 2), -1),
    lambda: make_field(3, 2).sqrt_(1),
    lambda: embed(make_field(2, 1), make_field(2, 2))(one),
    lambda: UniPoly.X(make_field(2, 3)).map_coeffs(embed(make_field(2, 2), make_field(2, 4))),
    lambda: UniPoly.X(make_field(2, 3)).descend(embed(make_field(2, 2), make_field(2, 4))),
    lambda: UniPoly.const(make_field(2, 4), 2).descend(embed(make_field(2, 2), make_field(2, 4))),
]
for i, case in enumerate(cases):
    try:
        case()
    except ValueError:
        continue
    raise SystemExit("case %d raised no ValueError" % i)
for i, case in enumerate([lambda: _mult_order(make_field(2, 2), 0, 3),
                          lambda: _mult_order(make_field(2, 4), 2, 5),
                          lambda: UniPoly.X(make_field(2, 2)).exact_div(
                              UniPoly(make_field(2, 2), (1, 1))),
                          lambda: _pth_root_poly(UniPoly.X(make_field(2, 2)))]):
    try:
        case()
    except ArithmeticError:
        continue
    raise SystemExit("order case %d raised no ArithmeticError" % i)
for argv, guard in (
        (["gen", "--family", "wibble", "--field", "p=2,e=2"], "family-kind"),
        (["gen", "--family", "char2-additive-twist", "--q", "8", "--n", "4",
          "--alpha-index", "1", "--field", "p=2,e=1"], "family-build"),
        (["gen", "--family", "power", "--field", "p=2,e=2"], "family-build"),
        (["gen", "--family", "dickson", "--d", "5", "--field", "p=2,e=2"], "family-build"),
        (["gen", "--family", "char2-additive-twist", "--q", "8", "--alpha-index", "1",
          "--field", "p=2,e=1"], "family-build"),
        (["check-perm", "--family", "power", "--field", "p=2,e=2", "--extensions", "1"],
         "family-build"),
        (["gen", "--family", "power", "--d", str(10**30 + 57), "--field", "p=2,e=2"],
         "family-build"),
        (["check-perm", "--family", "power", "--d", str(10**30 + 57), "--field", "p=2,e=2",
          "--extensions", "1"], "family-build"),
        (["check-perm", "--family", "dickson", "--d", str(MAX_DEGREE + 1),
          "--alpha-index", "1", "--field", "p=2,e=2", "--extensions", "1"], "family-build"),
        (["gen", "--family", "power", "--d", "0", "--field", "p=2,e=2"], "family-build"),
        (["check-perm", "--family", "power", "--d", "4", "--field", "p=2,e=2",
          "--extensions", "1"], "family-verdict"),
        (["check-perm", "--family", "dickson", "--d", "4", "--alpha-index", "1",
          "--field", "p=2,e=2", "--extensions", "1"], "family-verdict"),
        (["check-perm", "--family", "char2-additive-twist", "--q", "8", "--n", "4",
          "--alpha-index", "1", "--field", "p=2,e=1", "--extensions", "1"], "family-build")):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.run(argv)
    got = json.loads(out.getvalue())["checks"][-1]["data"].get("guard", "")
    if code != 3 or not got.startswith(guard):
        raise SystemExit("%s: exit %s, guard %r" % (argv[:3], code, got))
"""
    done = subprocess.run([sys.executable, "-O", "-c", code], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_ff_and_poly_hold_no_assert():
    """The checks of every module of the package raise named errors, so they
    hold under python -O too; none is an assert or a raised AssertionError."""
    paths = sorted(pathlib.Path(excpoly.__file__).parent.glob("*.py"))
    assert {"ff.py", "poly.py", "curves.py"} <= {path.name for path in paths}
    for path in paths:
        tree = ast.parse(path.read_text())
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)
                 or isinstance(node, ast.Raise) and node.exc and _raises_assertion_error(node)]
        assert lines == [], f"{path.name} asserts on lines {lines}"


def test_scalars_enter_through_one_door():
    """No module converts a scalar with its own unchecked
    FieldElem-or-int test; ff._index is the one door."""
    pattern = re.compile(r"isinstance\(.*FieldElem\) else int\(")
    for path in sorted(pathlib.Path(excpoly.__file__).parent.glob("*.py")):
        lines = [n for n, line in enumerate(path.read_text().splitlines(), 1)
                 if pattern.search(line)]
        assert lines == [], f"{path.name} converts scalars on lines {lines}"


def _names_used(tree):
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


# methods that no code in the package calls, kept as the independent oracles
# the named tests compare the fast paths against
TEST_ORACLES = {
    ("BiPoly", "eval"): "test_poly.py::test_bipoly_substitution_consistency_seeded",
    ("Factorization", "product"): "test_poly.py::test_factor_reassemble_seeded",
}


def test_package_holds_no_dead_code():
    """No module imports a name it never uses (re-exports through __all__
    count as uses), every module-level _private function is referenced
    somewhere in the package, and so is every method or property of a class
    (dunders aside), unless TEST_ORACLES lists it.  A reference is any Name
    or Attribute with the method's name, so a method sharing its name with
    another one escapes the scan: one from_json reader called anywhere
    would keep every from_json alive."""
    src = pathlib.Path(excpoly.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        referenced |= _names_used(tree)
        referenced |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                       for a in n.names}
    dead = []
    for name, tree in trees.items():
        used = _names_used(tree)
        for node in tree.body:
            if isinstance(node, ast.Assign) and "__all__" in _names_used(node):
                used |= {elt.value for elt in node.value.elts}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                dead += [f"{name}:{node.lineno} imports {a.asname or a.name}" for a in node.names
                         if (a.asname or a.name).split(".")[0] not in used]
        dead += [f"{name}:{node.lineno} defines {node.name}" for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                 and not node.name.startswith("__") and node.name not in referenced]
        dead += [f"{name}:{node.lineno} defines {cls.name}.{node.name}"
                 for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for node in cls.body if isinstance(node, ast.FunctionDef)
                 and not (node.name.startswith("__") and node.name.endswith("__"))
                 and node.name not in referenced and (cls.name, node.name) not in TEST_ORACLES]
    assert dead == []
    for test in TEST_ORACLES.values():
        path, func = test.split("::")
        tree = ast.parse((pathlib.Path(__file__).parent / path).read_text())
        assert func in {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}, test


# ---------------------------------------------------------------------------
# golden packed indices: every report reads elements through these moduli and
# embedding roots, so a change here changes every report

# make_field(p, e).modulus packed as sum c_i p^i
GOLDEN_MODULI = {
    (2, 1): 3, (2, 2): 7, (2, 3): 11, (2, 4): 19,
    (2, 5): 37, (2, 6): 91, (2, 7): 131, (2, 8): 285,
    (2, 9): 529, (2, 10): 1033, (2, 11): 2053, (2, 12): 4179,
    (2, 13): 8219, (2, 14): 16427, (2, 15): 32771, (2, 16): 65581,
    (2, 17): 131081, (2, 18): 262183, (2, 19): 524327, (2, 20): 1048585,
    (2, 21): 2097157, (2, 22): 4194307, (2, 23): 8388641, (2, 24): 16777243,
    (3, 1): 4, (3, 2): 17, (3, 3): 34, (3, 4): 86,
    (3, 5): 250, (3, 6): 734, (3, 7): 2203, (3, 8): 6590,
    (3, 9): 19747, (3, 10): 59081,
}

# embed(make_field(p, d), make_field(p, e)).root
GOLDEN_ROOTS = {
    (2, 1, 2): 1, (2, 1, 3): 1, (2, 1, 4): 1, (2, 2, 4): 6, (2, 1, 5): 1,
    (2, 1, 6): 1, (2, 2, 6): 14, (2, 3, 6): 53, (2, 1, 7): 1, (2, 1, 8): 1,
    (2, 2, 8): 214, (2, 4, 8): 152, (2, 1, 9): 1, (2, 3, 9): 336, (2, 1, 10): 1,
    (2, 2, 10): 237, (2, 5, 10): 314, (2, 1, 11): 1, (2, 1, 12): 1, (2, 2, 12): 70,
    (2, 3, 12): 937, (2, 4, 12): 1971, (2, 6, 12): 458, (2, 1, 13): 1, (2, 1, 14): 1,
    (2, 2, 14): 8648, (2, 7, 14): 507, (2, 1, 15): 1, (2, 3, 15): 5682, (2, 5, 15): 316,
    (2, 1, 16): 1, (2, 2, 16): 44234, (2, 4, 16): 15375, (2, 8, 16): 788, (2, 1, 17): 1,
    (2, 1, 18): 1, (2, 2, 18): 95781, (2, 3, 18): 2979, (2, 6, 18): 1466, (2, 9, 18): 21073,
    (2, 1, 19): 1, (2, 1, 20): 1, (2, 2, 20): 810475, (2, 4, 20): 265666, (2, 5, 20): 124473,
    (2, 10, 20): 5941, (3, 1, 2): 2, (3, 1, 3): 2, (3, 1, 4): 2, (3, 2, 4): 44,
    (3, 1, 5): 2, (3, 1, 6): 2, (3, 2, 6): 233, (3, 3, 6): 144, (3, 1, 7): 2,
    (3, 1, 8): 2, (3, 2, 8): 2634, (3, 4, 8): 1397, (3, 1, 9): 2, (3, 3, 9): 1629,
    (3, 1, 10): 2, (3, 2, 10): 1166, (3, 5, 10): 8959,
}


def test_golden_moduli():
    for (p, e), packed in GOLDEN_MODULI.items():
        m = make_field(p, e).modulus
        assert sum(c * p**i for i, c in enumerate(m)) == packed, (p, e)


def test_golden_embedding_roots():
    for (p, d, e), root in GOLDEN_ROOTS.items():
        assert embed(make_field(p, d), make_field(p, e)).root == root, (p, d, e)


# ---------------------------------------------------------------------------
# fields above TABLE_LIMIT: bit-serial (p = 2) and digit-kernel (p = 3) paths


def _ref_mul(ctx, a, b):
    """Schoolbook product of packed indices on plain digit lists."""
    p, e, m = ctx.p, ctx.e, ctx.modulus
    ad = [a // p**i % p for i in range(e)]
    bd = [b // p**i % p for i in range(e)]
    prod = [0] * (2 * e - 1)
    for i in range(e):
        for j in range(e):
            prod[i + j] = (prod[i + j] + ad[i] * bd[j]) % p
    for k in range(2 * e - 2, e - 1, -1):
        c = prod[k]
        for i in range(e):
            prod[k - e + i] = (prod[k - e + i] - c * m[i]) % p
    return sum(c * p**i for i, c in enumerate(prod[:e]))


@pytest.mark.parametrize("p,e", [(2, 18), (3, 11)])
def test_untabled_arithmetic_properties(p, e):
    ctx = make_field(p, e)
    assert ctx.order > TABLE_LIMIT
    elem = st.integers(min_value=0, max_value=ctx.order - 1)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(elem, elem, elem)
    def check(a, b, c):
        ab = ctx.mul(a, b)
        assert ab == _ref_mul(ctx, a, b) == ctx.mul(b, a)
        assert ctx.mul(ab, c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ab, ctx.mul(a, c))
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
            assert ctx.pow_(a, ctx.order - 1) == 1
            assert ctx.pow_(a, 3) == ctx.mul(a, ctx.mul(a, a))

    check()

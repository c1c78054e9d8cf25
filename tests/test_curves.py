"""Curve models, algebraic identity certificates, point counting, and the
L-polynomial pipeline."""

import functools
import json
import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import excpoly
from excpoly import (
    BiPoly,
    FieldElem,
    count_points,
    curves,
    make_field,
    plane_model,
    quotient_relations_report,
    sl2_certificate,
    smoothness_check,
    verify_b_action,
    verify_product_identity,
    weil_check,
    weil_contradiction_report,
    zeta,
)
from excpoly.curves import _q_squarefree, _weil_radius_certified
from excpoly.ff import FieldCtx, VecField, lift

G2 = make_field(2, 1)
G4 = make_field(2, 2)
G8 = make_field(2, 3)
G16 = make_field(2, 4)

C2_COUNTS = (35, 275, 4475, 64235, 1042115, 16802435)
C2_L = (
    1, 18, 171, 1260, 7815, 39618, 169389,
    633888, 2000640, 5160960, 11206656, 18874368, 16777216,
)


# ---------------------------------------------------------------------------
# product identity


@pytest.mark.parametrize("q", [4, 8])
def test_product_identity_and_mutation_control(q):
    assert verify_product_identity(q) is True
    assert verify_product_identity(q, mutate=True) is False


# ---------------------------------------------------------------------------
# change-of-variables certificate


def test_certificate_passes_q8():
    rep = sl2_certificate(8, FieldElem(G4, 2))
    assert rep["check"] == "sl2_certificate"
    assert rep["ok"] is True and rep["applicable"] is True
    assert [s["id"] for s in rep["steps"]] == [1, 2, 3, 4]
    assert all(s["ok"] for s in rep["steps"])
    # alpha + alpha^2 = 1 for alpha in GF(4) minus F_2, so beta defaults to 1
    assert rep["beta"] == 1
    assert sl2_certificate(8, FieldElem(G4, 3))["ok"] is True


def test_certificate_passes_q4_with_default_beta():
    rep = sl2_certificate(4, FieldElem(G16, 2))
    assert rep["ok"] is True
    amb = make_field(2, 4)
    b = rep["beta"]
    a = rep["alpha"]
    assert amb.mul(b, b) == amb.add(a, amb.mul(a, a))


def test_certificate_step_two_needs_the_beta_relation():
    bad = sl2_certificate(8, FieldElem(G4, 2), beta=FieldElem(G4, 2))
    assert bad["applicable"] is False and bad["ok"] is False
    by_id = {s["id"]: s for s in bad["steps"]}
    assert by_id[1]["ok"] is False and by_id[1]["detail"]["1c"] is False
    assert by_id[1]["detail"]["1a"] is True and by_id[1]["detail"]["1b"] is True
    assert by_id[2]["ok"] is False
    assert by_id[3]["ok"] is True and by_id[4]["ok"] is True

    good = sl2_certificate(4, FieldElem(G16, 2))
    broken = FieldElem(G16, G16.add(good["beta"], 1))
    bad4 = sl2_certificate(4, FieldElem(G16, 2), beta=broken)
    assert bad4["applicable"] is False
    assert {s["id"]: s["ok"] for s in bad4["steps"]} == {1: False, 2: False, 3: True, 4: True}


def test_certificate_input_errors():
    with pytest.raises(ValueError):
        sl2_certificate(8, FieldElem(G4, 1))
    with pytest.raises(ValueError):
        sl2_certificate(8, FieldElem(make_field(3, 2), 3))
    with pytest.raises(ValueError):
        sl2_certificate(4, FieldElem(G16, 2), beta=FieldElem(G16, 0))
    with pytest.raises(ValueError):
        sl2_certificate(4, FieldElem(G16, 2), beta=FieldElem(G8, 1))


# ---------------------------------------------------------------------------
# cover automorphisms and the quotient


def test_b_action_and_mutation(monkeypatch):
    assert verify_b_action(8, FieldElem(G4, 2), FieldElem(G2, 1)) is True
    assert verify_b_action(4, FieldElem(G16, 2), FieldElem(G16, 7)) is True
    # mutation control: a stray V*W term is moved by the diagonal w -> g^2 w,
    # v -> g^2 v by g^4, not by the unit g^2 the rest of E picks up
    real = curves._cab_poly
    monkeypatch.setattr(curves, "_cab_poly",
                        lambda q, ctx, a, b: real(q, ctx, a, b) + BiPoly(ctx, {(1, 1): 1}))
    assert verify_b_action(8, FieldElem(G4, 2), FieldElem(G2, 1)) is False
    assert verify_b_action(4, FieldElem(G16, 2), FieldElem(G16, 7)) is False
    monkeypatch.undo()
    with pytest.raises(ValueError):
        verify_b_action(8, FieldElem(G4, 0), FieldElem(G2, 1))
    with pytest.raises(ValueError):
        verify_b_action(8, FieldElem(G4, 2), FieldElem(G2, 0))


def test_quotient_relations_applicable_case():
    rep = quotient_relations_report(8, FieldElem(G4, 2), FieldElem(G2, 1))
    assert rep["identities"] == {
        "relation": True,
        "involution_fixes": True,
        "involution_squared": True,
    }
    assert rep["applicable"] is True and rep["pole_product"] is True
    assert rep["ok"] is True


def test_quotient_relations_generic_beta():
    """The relation and involution identities are formal in beta; only the
    pole product needs beta^2 = alpha + alpha^2."""
    rep = quotient_relations_report(8, FieldElem(G4, 2), FieldElem(G4, 2))
    assert rep["identities"]["relation"] is True
    assert rep["applicable"] is False and rep["pole_product"] is None
    assert rep["ok"] is True
    with pytest.raises(ValueError):
        quotient_relations_report(8, FieldElem(G4, 2), FieldElem(G4, 0))
    with pytest.raises(ValueError):
        quotient_relations_report(8, FieldElem(G4, 0), FieldElem(G2, 1))


# ---------------------------------------------------------------------------
# models and smoothness


def test_plane_model_validation():
    with pytest.raises(ValueError):
        plane_model(4, FieldElem(G16, 0))
    with pytest.raises(ValueError):
        plane_model(4, FieldElem(G16, 1))
    with pytest.raises(ValueError):
        plane_model(4, FieldElem(make_field(3, 2), 2))
    with pytest.raises(ValueError):
        plane_model(4, 7)
    with pytest.raises(ValueError, match="not a power of 2"):
        plane_model(6, FieldElem(G16, 2))
    m = plane_model(4, FieldElem(G16, 2))
    assert m.q == 4 and m.ambient == G16 and m.c == 2
    sing = plane_model(4, FieldElem(G16, 1), allow_singular=True)
    assert sing.c == 1


@pytest.mark.parametrize("q", [4, 8, 16])
def test_smoothness_over_gf16_parameters(q):
    for ci in range(2, 16):
        ok, sing = smoothness_check(plane_model(q, FieldElem(G16, ci)))
        assert ok and sing == []


@pytest.mark.parametrize("ci", [0, 1])
def test_singular_for_prime_field_constants(ci):
    model = plane_model(4, FieldElem(G16, ci), allow_singular=True)
    ok, sing = smoothness_check(model)
    assert not ok and len(sing) > 0


# the function-field engine and the certificates raise named errors, never
# assert, so they hold under python -O too

def test_engine_input_errors_are_value_errors():
    one = curves.RatFn.one(G4)
    with pytest.raises(ValueError, match="mixed fields"):
        one + curves.RatFn.one(G16)
    with pytest.raises(ValueError, match="mixed fields"):
        curves.RatFn(excpoly.UniPoly.one(G4), excpoly.UniPoly.one(G16))
    g3 = make_field(3, 1)
    with pytest.raises(ValueError, match="characteristic 2"):
        curves.FnField(g3, 4, curves.RatFn.one(g3), curves.RatFn.one(g3))
    with pytest.raises(ValueError, match="outside"):
        curves.FnField(G4, 4, one, one).elem({4: one})
    with pytest.raises(ValueError, match="does not divide"):
        curves._unit_root(G16, 4)


def test_engine_division_by_zero_is_zero_division_error():
    one, zero = excpoly.UniPoly.one(G4), excpoly.UniPoly.zero(G4)
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        curves.RatFn(one, zero)


def test_certificate_invariants_raise_arithmetic_error(monkeypatch):
    # a "root of unity" of 0 puts a singular point at infinity
    monkeypatch.setattr(curves, "_unit_root", lambda ctx, n: 0)
    with pytest.raises(ArithmeticError, match="point at infinity") as err:
        smoothness_check(plane_model(4, FieldElem(G16, 2)))
    assert err.type is ArithmeticError


# ---------------------------------------------------------------------------
# point counting


def test_count_strategies_agree_on_small_extensions():
    model = plane_model(4, FieldElem(G16, 2))
    assert count_points(model, 1, strategy="brute") == 35
    assert count_points(model, 1, strategy="per-z") == 35
    assert count_points(model, 1, strategy="fiber") == 35
    assert count_points(model, 2, strategy="per-z") == 275
    assert count_points(model, 2, strategy="fiber") == 275
    model8 = plane_model(8, FieldElem(G16, 3))
    assert count_points(model8, 3) == count_points(model8, 3, strategy="per-z")
    # singular models (c in F_2) are not counted by any strategy
    for ci in (0, 1):
        singular = plane_model(4, FieldElem(G16, ci), allow_singular=True)
        for strategy in ("fiber", "per-z", "brute"):
            with pytest.raises(ValueError, match="singular"):
                count_points(singular, 1, strategy=strategy)


def test_count_fiber_pool_matches_one_process(monkeypatch):
    model = plane_model(4, FieldElem(G16, 2))
    pools = []
    real_pool = excpoly.ff.multiprocessing.Pool

    def spy(processes, *args, **kwargs):
        pools.append(processes)
        return real_pool(processes, *args, **kwargs)

    monkeypatch.setattr(excpoly.ff.multiprocessing, "Pool", spy)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the pool never outgrows the CPUs
    one = count_points(model, 4, threads=1)      # 2^16 values of u: 4 spans
    assert pools == []
    assert count_points(model, 4, threads=2) == one
    assert pools == [2]
    # threads 0 (or below) stays serial, as 1 does
    assert count_points(model, 4, threads=0) == one
    assert pools == [2]


# "q,a,c" -> [count over GF(2^(a m)) for m = 1, 2, ... while a m <= 16], for
# q in {4, 8, 16, 32}, ambient GF(2^a) with a = 2..8 and one c per Frobenius
# orbit of GF(2^a) minus F_2 (its least packed index), recorded with the fiber
# counter that took every u and ran the full power test s^((Q-1)/n)
with open(os.path.join(os.path.dirname(__file__), "data", "plane_counts.json")) as _fh:
    PLANE_COUNTS = {tuple(map(int, k.split(","))): v for k, v in json.load(_fh).items()}


def _plane(q, a, c):
    return plane_model(q, FieldElem(make_field(2, a), c))


def test_fiber_counts_match_the_golden_table():
    assert len(PLANE_COUNTS) == 308
    for (q, a, c), counts in PLANE_COUNTS.items():
        model = _plane(q, a, c)
        got = [count_points(model, m) for m in range(1, len(counts) + 1)]
        assert got == counts, (q, a, c)


def test_references_agree_with_the_golden_table():
    small = [(q, a, c, m) for (q, a, c), counts in PLANE_COUNTS.items()
             for m in range(1, len(counts) + 1) if a * m <= 12]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.sampled_from(small))
    def check(entry):
        q, a, c, m = entry
        want = PLANE_COUNTS[q, a, c][m - 1]
        model = _plane(q, a, c)
        assert count_points(model, m, strategy="brute") == want
        # per-z costs about q Q log Q; past 2^14 one count takes seconds
        if q << (a * m) <= 1 << 14:
            assert count_points(model, m, strategy="per-z") == want

    check()


def _least_subfield(e, n):
    return next(d for d in range(1, e + 1) if e % d == 0 and (2**d - 1) % n == 0)


@pytest.mark.parametrize("e", [12, 16, 20, 24])
def test_norm_power_test_matches_pow(e):
    # the counter's n-th-power test through the norm to the least GF(2^d)
    # with n | 2^d - 1 (d < e here), and the plain test (d = e)
    ctx = make_field(2, e)
    vf = ctx.vec
    Q = ctx.order
    ns = sorted({math.gcd(q + 1, Q - 1) for q in (4, 8, 16, 32)})
    cases = [(d, n) for n in ns for d in (_least_subfield(e, n), e)]
    assert any(d < e for d, _ in cases)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.lists(st.integers(min_value=1, max_value=Q - 1), min_size=1, max_size=64))
    def check(xs):
        s = np.array(xs, dtype=np.int64)
        for d, n in cases:
            norm = vf.norm(s, d)
            assert norm.tolist() == vf.pow_(s, (Q - 1) // (2**d - 1)).tolist()
            via_norm = vf.pow_(norm, (2**d - 1) // n) == 1
            assert via_norm.tolist() == (vf.pow_(s, (Q - 1) // n) == 1).tolist()

    check()


def test_counter_self_checks_raise(monkeypatch):
    model = plane_model(4, FieldElem(G16, 2))
    # the norm degree must carry the n-th roots of unity: 5 does not divide 2^2 - 1
    with pytest.raises(ArithmeticError):
        curves._count_plane_fiber_range(make_field(2, 8), 4, 2, 2, 5, 4, 2, 1, 256)
    # orbit weights that miss a value of u
    real = curves._count_plane_fiber_range

    def short(*args):
        total, weight = real(*args)
        return total, weight - 1
    monkeypatch.setattr(curves, "_count_plane_fiber_range", short)
    with pytest.raises(ArithmeticError, match="orbit weights"):
        count_points(model, 2)


WRONG_ROOT = """
from excpoly import FieldElem, count_points, curves, make_field, plane_model
real = curves._quadratic_maps
def wrong(vf):
    root, residual = real(vf)
    # x + 2 misses s^2 + s = d; x + 1 would be the other root
    return (lambda d: root(d) ^ 2), residual
curves._quadratic_maps = wrong
try:
    count_points(plane_model(4, FieldElem(make_field(2, 4), 2)), %d)
except ArithmeticError as err:
    assert "wrong root" in str(err)
else:
    raise SystemExit("a wrong root was counted")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_wrong_solver_root_raises(flags):
    src = os.path.dirname(os.path.dirname(os.path.abspath(curves.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    for m in (1, 5):                          # log tables, then byte tables
        done = subprocess.run([sys.executable, *flags, "-c", WRONG_ROOT % m], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize("e", [3, 4, 8, 9, 12, 16, 17, 18, 20, 21, 22, 24, 25, 26])
def test_vector_field_kernels_match_scalar_arithmetic(e):
    # log/exp lookups up to 2^16, byte-table products and folds above, against
    # the scalar field (table-backed or bit-serial).  Above 2^16 inv goes
    # through the largest proper subfield: half the degree for even e, t = 3
    # at e = 21 (GF(2^7)), t = 5 at e = 25 (GF(2^5)), the plain chain for 17.
    ctx = make_field(2, e)
    vf = VecField(ctx)
    assert (vf._log is not None) == (e <= 16) and ctx.vec is ctx.vec
    elems = st.lists(st.integers(min_value=0, max_value=ctx.order - 1), min_size=1, max_size=40)
    top = ctx.order - 1

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(elems, elems)
    def check(a, b):
        # pairs (0, top), (top, 0) and (top, top) ride along with each draw
        a = a + [0, top, top]
        b = (b * len(a))[: len(a) - 3] + [top, 0, top]
        va, vb = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        assert vf.mul(va, vb).tolist() == [ctx.mul(x, y) for x, y in zip(a, b)]
        assert vf.mul(va, b[0]).tolist() == [ctx.mul(x, b[0]) for x in a]
        assert vf.sq(va).tolist() == [ctx.mul(x, x) for x in a]
        k = b[0] % (2 * e + 1)
        assert vf.pow2(va, k).tolist() == [ctx.pow_(x, 1 << k) for x in a]
        assert vf.inv(va).tolist() == [ctx.inv(x) if x else 0 for x in a]

    check()


@pytest.mark.parametrize("N", [20, 24])
def test_subfield_inverse_table_covers_the_whole_half_field(N):
    """coord is one-to-one on every element of GF(2^k), k = N / 2, and
    x * inv(x) = 1 for every nonzero x there; the subfield is listed by
    scalar products, as 0 and the powers of x^((2^N - 1) / (2^k - 1))."""
    ctx = make_field(2, N)
    vf = ctx.vec
    n = (1 << (N // 2)) - 1
    h = ctx.pow_(ctx.gen, (ctx.order - 1) // n)
    sub = [1]
    for _ in range(n - 1):
        sub.append(ctx.mul(sub[-1], h))
    x = np.array(sub, dtype=np.int64)
    assert len(set(sub)) == n and (vf.pow2(x, N // 2) == x).all()
    coord, table = vf._subfield_inverse(N // 2)
    assert sorted(coord(np.concatenate([[0], x])).tolist()) == list(range(n + 1))
    assert table.shape == (n + 1,) and table[0] == 0
    assert (vf.mul(x, vf.inv(x)) == 1).all()
    assert vf.inv(x[:200]).tolist() == [ctx.inv(v) for v in sub[:200]]


@pytest.mark.parametrize("N", [4, 12, 17, 20, 26])
def test_linear_maps_match_their_scalar_image(N):
    """A map with no structure (a random image per basis bit) and the
    Frobenius, through ceil(N / 12) chunk tables, against the scalar image
    on drawn inputs with 0, the top bit and 2^N - 1 added."""
    ctx = make_field(2, N)
    vf = VecField(ctx)
    rng = random.Random(N)
    basis = [rng.randrange(ctx.order) for _ in range(N)]

    def image(x):
        return functools.reduce(operator.xor, (basis[i] for i in range(N) if (x >> i) & 1), 0)
    maps = [(vf.linear("random", image), image),
            (vf.linear("frob", lambda x: ctx.mul(x, x)), lambda x: ctx.mul(x, x))]
    assert len(vf._maps["random"]) == -(-N // 12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, ctx.order - 1), min_size=1, max_size=30))
    def check(xs):
        xs = xs + [0, 1 << (N - 1), ctx.order - 1]
        for apply, scalar in maps:
            assert apply(np.array(xs, dtype=np.int64)).tolist() == [scalar(x) for x in xs]
            assert int(apply(xs[0])) == scalar(xs[0])

    check()


@pytest.mark.parametrize("N", [20, 24])
def test_byte_table_inverse_takes_two_products(monkeypatch, N):
    """inv over GF(2^20) and GF(2^24) is a^(r-1) * (1 / N(a)): two products,
    where the plain chain took 6 and 7, and as many on every call once the
    subfield table (built on the first call) exists."""
    vf = VecField(make_field(2, N))
    x = np.arange(1, 1000, dtype=np.int64)
    vf.inv(x)
    real = VecField.mul
    calls = []

    def spy(self, a, b):
        calls.append(N)
        return real(self, a, b)
    monkeypatch.setattr(VecField, "mul", spy)
    counts = []
    for _ in range(2):
        before = len(calls)
        vf.inv(x)
        counts.append(len(calls) - before)
    assert counts == [2, 2]


def test_weil_bound_check_fires(monkeypatch):
    real = curves._count_plane_fiber
    monkeypatch.setattr(curves, "_count_plane_fiber", lambda *args: real(*args) + 10**6)
    with pytest.raises(ArithmeticError, match="breaks the Weil bound"):
        count_points(plane_model(4, FieldElem(G16, 2)), 2)


@pytest.mark.parametrize("e", [2, 4, 8])
def test_log_table_kernel_edge_cases(e):
    """The sentinel log of 0 clips every product with a zero factor to 0; all
    pairs, plain-int and broadcast operands, dtype and range errors, and the
    scalar tables left as they were."""
    ctx = FieldCtx(2, e, make_field(2, e).modulus)
    exp, log = list(ctx._exp), list(ctx._log)
    vf = ctx.vec
    assert ctx._exp == exp and ctx._log == log and ctx._log[0] == -1
    elems = np.arange(ctx.order, dtype=np.int64)
    A, B = np.meshgrid(elems, elems, indexing="ij")
    prod = vf.mul(A, B)
    assert prod.dtype == np.int64
    assert prod.tolist() == [[ctx.mul(int(a), int(b)) for b in elems] for a in elems]
    inv = vf.inv(elems)
    assert inv.dtype == np.int64
    assert inv.tolist() == [0] + [ctx.inv(int(a)) for a in elems[1:]]
    last = ctx.order - 1
    assert vf.mul(np.array([0, 0, last]), np.array([0, last, 0])).tolist() == [0, 0, 0]
    assert vf.mul(0, elems).tolist() == [0] * ctx.order
    assert vf.mul(elems, 0).tolist() == [0] * ctx.order
    assert vf.mul(0, 0) == 0 and vf.mul(last, 0) == 0
    assert vf.mul(last, last) == ctx.mul(last, last)
    assert vf.mul(elems, 1).tolist() == elems.tolist()
    # the Euclid engine's (k, 1) x (k, m) product
    col = elems[:, None]
    assert (vf.mul(col, B) == prod).all()
    for bad in (np.array([ctx.order]), np.array([ctx.order + 5])):
        with pytest.raises(IndexError):
            vf.mul(bad, np.array([1]))
        with pytest.raises(IndexError):
            vf.mul(np.array([0]), bad)
        with pytest.raises(IndexError):
            vf.inv(bad)
    assert ctx._exp == exp and ctx._log == log


@pytest.mark.parametrize("e", [8, 16, 17])
def test_times_matches_mul(e):
    """times(b) is a -> mul(a, b): log tables (2^8, 2^16) take log b once,
    byte tables (2^17) defer to mul; zeros on either side, the engine's
    (k, 1) x (k, m) broadcast, int64 results, and range errors."""
    ctx = make_field(2, e)
    vf = ctx.vec
    assert (vf._log is not None) == (e <= 16)
    rng = np.random.default_rng(e)
    A = rng.integers(0, ctx.order, size=(7, 1), dtype=np.int64)
    B = rng.integers(0, ctx.order, size=(7, 5), dtype=np.int64)
    A[0, 0] = 0
    B[1] = 0
    B[2, 3] = 0
    A[3, 0], B[3, 4] = ctx.order - 1, ctx.order - 1
    got = vf.times(B)(A)
    assert got.dtype == np.int64
    assert got.tolist() == vf.mul(A, B).tolist()
    assert got.tolist() == [[ctx.mul(int(a), int(b)) for b in row] for a, row in zip(A[:, 0], B)]
    flat = B.ravel()
    assert vf.times(flat)(0).tolist() == [0] * flat.size
    assert vf.times(0)(flat).tolist() == [0] * flat.size
    assert vf.times(flat)(A[3, 0]).tolist() == [ctx.mul(int(A[3, 0]), int(b)) for b in flat]
    if e <= 16:
        for bad in (np.array([ctx.order]), np.array([ctx.order + 5])):
            with pytest.raises(IndexError):
                vf.times(bad)
            with pytest.raises(IndexError):
                vf.times(np.array([1]))(bad)


def test_count_first_extension_all_parameters():
    for ci in range(2, 8):
        model = plane_model(4, FieldElem(G16, ci))
        assert count_points(model, 1) == 35
    for ci in range(8, 16):
        model = plane_model(4, FieldElem(G16, ci))
        assert count_points(model, 1) == 5


def test_count_points_moves_c_out_of_a_noncanonical_field():
    """c in GF(16) built on x^4 + x^3 + 1 counts as its image in the canonical
    GF(16), at m = 1 as at m = 2."""
    alt = FieldCtx(2, 4, (1, 0, 0, 1, 1))
    assert alt != G16
    for ci in (2, 10):
        c = FieldElem(alt, ci)
        for m in (1, 2):
            assert count_points(plane_model(4, c), m) == count_points(
                plane_model(4, lift(c, G16)), m)


def test_count_points_guards_and_errors():
    model = plane_model(4, FieldElem(G16, 2))
    with pytest.raises(ValueError):
        count_points(model, 0)
    with pytest.raises(ValueError):
        count_points(model, 4, strategy="brute")  # 2^16 pairs over the dense guard
    with pytest.raises(ValueError):
        count_points(model, 1, strategy="magic")


# ---------------------------------------------------------------------------
# zeta pipeline


def test_zeta_frozen_values(zeta_c2):
    z = zeta_c2
    assert z.g == 6 and z.base == 16
    assert z.counts == C2_COUNTS
    assert z.L == C2_L
    assert z.p_rank == 6
    assert z.L[12] == 16**6
    assert _counts_from_l(z.L, 16, 6) == list(z.counts)


def test_zeta_functional_equation(zeta_c2):
    L = zeta_c2.L
    for i in range(7):
        assert L[12 - i] == 16 ** (6 - i) * L[i]


def test_zeta_replay_path_matches(zeta_c2):
    model = plane_model(4, FieldElem(G16, 2))
    again = zeta(model, 6, counts=list(C2_COUNTS))
    assert again == zeta_c2


def test_zeta_rejects_corrupt_counts():
    model = plane_model(4, FieldElem(G16, 2))
    bad = list(C2_COUNTS)
    bad[0] += 1
    with pytest.raises(ValueError):
        zeta(model, 6, counts=bad)
    with pytest.raises(ValueError):
        zeta(model, 6, counts=list(C2_COUNTS[:4]))


def _counts_from_l(L, base, g):
    """N_1..N_g of an L-polynomial, by Newton's identities run backwards."""
    S = []
    for m in range(1, g + 1):
        S.append(-m * L[m] - sum(S[j - 1] * L[m - j] for j in range(1, m)))
    return [base**m + 1 - S[m - 1] for m in range(1, g + 1)]


def _perturbations():
    def at(m):
        anywhere = st.integers(-3000 * m, 3000 * m).filter(bool)
        multiple = st.integers(-3000, 3000).filter(bool).map(lambda k: m * k)
        return st.tuples(st.just(m), st.one_of(anywhere, multiple))
    return st.sampled_from((5, 6)).flatmap(at)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_perturbations())
def test_zeta_refuses_perturbed_counts(case):
    """Census of the zeta checks: a nonzero shift of N_5 or N_6 within
    +-3000m moves a_m by delta/m.  Integrality refuses it when m does not
    divide delta, and the exact radius certificate refuses it otherwise."""
    m, delta = case
    bad = list(C2_COUNTS)
    bad[m - 1] += delta
    match = "not integral" if delta % m else "stray from absolute value"
    with pytest.raises(ValueError, match=match):
        zeta(plane_model(4, FieldElem(G16, 2)), 6, counts=bad)


def test_zeta_refuses_a_real_root_pair():
    """L(1) > 0 needs no check of its own.  The pair +4, -4 of real reciprocal
    roots makes L(1) negative, but its factor 1 - 16T^2 lacks the
    functional-equation form, and the radius certificate refuses its counts."""
    L = [1]
    for f in [(1, 0, -16)] + [(1, 0, 16)] * 5:
        L = [sum(L[i] * f[n - i] for i in range(len(L)) if 0 <= n - i < len(f))
             for n in range(len(L) + len(f) - 1)]
    assert sum(L) == -21297855
    with pytest.raises(ValueError, match="stray from absolute value"):
        zeta(plane_model(4, FieldElem(G16, 2)), 6, counts=_counts_from_l(L, 16, 6))


def test_zeta_json_round_trip(zeta_c2):
    """The JSON layout holds everything a cached run needs: its counts,
    replayed through zeta, rebuild the same result."""
    obj = json.loads(json.dumps(zeta_c2.to_json()))
    assert set(obj) == {"g", "base", "counts", "L", "p_rank"}
    model = plane_model(4, FieldElem(G16, 2))
    assert obj["base"] == model.ambient.order
    assert zeta(model, obj["g"], counts=obj["counts"]) == zeta_c2
    assert obj["L"] == list(zeta_c2.L) and obj["p_rank"] == zeta_c2.p_rank


def _sympy_squarefree(L):
    t = sympy.symbols("t")
    P = sympy.Poly(list(reversed(L)), t, domain="QQ")
    return list(reversed(P.quo(P.gcd(P.diff(t))).all_coeffs()))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=4), min_size=1, max_size=3),
       st.lists(st.integers(1, 3), min_size=3, max_size=3))
def test_squarefree_part_matches_sympy(factors, powers):
    L = [1]
    for f, k in zip(factors, powers):
        if f[-1] == 0:
            f = f + [1]
        for _ in range(k):
            L = [sum(L[i] * f[n - i] for i in range(len(L)) if 0 <= n - i < len(f))
                 for n in range(len(L) + len(f) - 1)]
    assert _q_squarefree([Fraction(c) for c in L]) == _sympy_squarefree(L)


def _weil_radius_deviation(L, base):
    """Largest deviation of |root| * sqrt(base) from 1 over the roots of L:
    the float oracle run beside the exact _weil_radius_certified.

    Repeated factors are common here (the L-polynomial can be a perfect power
    when the Jacobian splits isogenously), and both companion-matrix roots and
    plain Newton degrade badly at multiple roots.  The radius set is unchanged
    by passing to the square-free part, whose simple roots Newton then polishes
    to well beyond the 1e-6 certification level.
    """
    red = _q_squarefree([Fraction(int(c)) for c in L])
    hi_first = [float(c) for c in reversed(red)]
    z = np.roots(np.array(hi_first, dtype=float)).astype(np.clongdouble)
    p = np.array(hi_first, dtype=np.clongdouble)
    dp = np.polyder(p)
    for _ in range(40):
        step = np.polyval(p, z) / np.polyval(dp, z)
        z = z - step
        if np.max(np.abs(step)) < 1e-14:
            break
    return float(np.max(np.abs(np.abs(z) * np.sqrt(np.clongdouble(base)) - 1)))


def test_weil_radius_deviation_values():
    # values of the sympy-based square-free reduction this one replaced
    for L, base, want in ((C2_L, 16, 0.0), ((1, 2, 4, 32, 64), 16, 0.6102297961422501)):
        assert _q_squarefree([Fraction(c) for c in L]) == _sympy_squarefree(list(L))
        assert abs(_weil_radius_deviation(list(L), base) - want) <= 1e-12


def test_weil_certificate_agrees_with_radii_on_genus_two():
    """Every 1 + aT + cT^2 + abT^3 + b^2T^4 on a grid: the exact verdict is
    the float one, whose deviations here are either tiny or far above 1e-6."""
    for b in (2, 4, 16):
        for a in range(-8, 9):
            for c in range(-40, 41):
                L = [1, a, c, a * b, b * b]
                certified = _weil_radius_certified(L, b)
                assert certified == (_weil_radius_deviation(L, b) <= 1e-6)
                assert sum(L) > 0 or not certified


def test_weil_certificate_rejects_mutants():
    assert _weil_radius_certified(C2_L, 16)
    # the middle coefficient is its own functional-equation partner: a
    # change keeps the form and moves roots off the circle
    for d in (1, -1, 1000):
        off = list(C2_L)
        off[6] += d
        assert not _weil_radius_certified(off, 16)
        assert _weil_radius_deviation(off, 16) > 1e-2
    broken = list(C2_L)
    broken[11] += 1
    for bad in (broken, C2_L[:-1], (2,) + C2_L[1:]):
        with pytest.raises(ValueError):
            _weil_radius_certified(bad, 16)


# ---------------------------------------------------------------------------
# Weil bound arithmetic


def test_weil_check_boundary():
    rep = weil_check(28, 4, 252)
    assert rep["weil_max"] == 117 and rep["violates"] is True
    at_max = weil_check(28, 4, 117)
    assert at_max["violates"] is False and at_max["consistent"] is True
    assert weil_check(28, 4, 118)["violates"] is True


def test_weil_contradiction_report_q8():
    rep = weil_contradiction_report(8)
    assert rep["genus"] == 28 and rep["group_order"] == 504 and rep["places"] == 252
    assert [c["e_prime"] for c in rep["cases"]] == [1, 3]
    assert rep["cases"][0]["candidates"] == [4]
    assert rep["cases"][1]["candidates"] == [8, 64]
    assert rep["all_cases_violated"] is True
    head = rep["cases"][0]["checks"][0]
    assert head["weil_max"] == 117 and head["violates"] is True


def test_weil_contradiction_report_q32():
    rep = weil_contradiction_report(32)
    assert rep["genus"] == 496 and rep["places"] == 16368
    assert [c["e_prime"] for c in rep["cases"]] == [1, 5]
    assert rep["cases"][0]["checks"][0]["weil_max"] == 1989
    assert rep["all_cases_violated"] is True


def test_weil_contradiction_report_rejects_other_q():
    with pytest.raises(ValueError):
        weil_contradiction_report(16)

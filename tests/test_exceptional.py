"""Predicted exceptionality criteria confronted with exhaustive bijectivity
measurements over concrete extension towers."""

import math
import multiprocessing
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excpoly import (
    FamilySpec,
    FieldElem,
    UniPoly,
    dickson,
    embed,
    exceptionality_verdict,
    f_closed,
    is_permutation,
    make_field,
    tower_scan,
)
from excpoly.exceptional import _eval_block, _vector_blocks
from excpoly.ff import MAX_ORDER

G4 = make_field(2, 2)
G8 = make_field(2, 3)
G16 = make_field(2, 4)


def test_size_guard_default():
    assert MAX_ORDER == 1 << 26


def test_tower_scan_refuses_a_huge_degree_without_forming_the_power():
    # 3^(10^9) has about 1.6e9 bits; the guard must refuse j before forming it
    g3 = make_field(3, 1)
    spec = FamilySpec(kind="power", d=5, field=g3)
    for j in (10**9, 17):
        with pytest.raises(ValueError, match="size guard"):
            tower_scan(spec, g3, [j])
    assert [ok for _j, ok, _w in tower_scan(spec, g3, [2]).rows] == [True]


# ---------------------------------------------------------------------------
# is_permutation


def test_squaring_permutes_every_char2_field():
    f = UniPoly.monomial(make_field(2, 1), 2)
    for m in (1, 2, 3, 4, 6, 8):
        ok, wit = is_permutation(f, make_field(2, m))
        assert ok and wit is None


def test_cubing_on_gf4_has_least_witness():
    f = UniPoly.monomial(G4, 3)
    ok, wit = is_permutation(f, G4)
    assert not ok
    x1, x2 = wit
    assert (x1.i, x2.i) == (1, 2)
    assert f(x1) == f(x2)


def test_cubing_permutes_gf8():
    ok, wit = is_permutation(UniPoly.monomial(G8, 3), G8)
    assert ok and wit is None


def test_witness_is_first_collision_in_index_order():
    rng = random.Random(31)
    for _ in range(20):
        f = UniPoly(G16, [rng.randrange(16) for _ in range(5)])
        if f.degree < 2:
            continue
        ok, wit = is_permutation(f, G16)
        if ok:
            continue
        x1, x2 = wit
        vals = [f.eval_index(x) for x in range(16)]
        expected = None
        seen = {}
        for x, v in enumerate(vals):
            if v in seen:
                expected = (seen[v], x)
                break
            seen[v] = x
        assert (x1.i, x2.i) == expected


def test_is_permutation_threads_agree(monkeypatch):
    f = f_closed(8, FieldElem(G4, 2))
    for ext_e in (2, 4, 6):
        ext = make_field(2, ext_e)
        assert is_permutation(f, ext, threads=1) == is_permutation(f, ext, threads=2)
    # odd characteristic splits the scan of GF(3^8) across a process pool
    g3 = make_field(3, 8)
    pools = []
    pool = multiprocessing.Pool

    def spy(n, **kwargs):
        pools.append(n)
        return pool(n, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", spy)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the pool never outgrows the CPUs
    for d in (5, 7):  # gcd(5, 3^8 - 1) = 5, gcd(7, 3^8 - 1) = 1
        f3 = UniPoly.monomial(make_field(3, 1), d)
        assert is_permutation(f3, g3, threads=2) == is_permutation(f3, g3, threads=1)
        assert is_permutation(f3, g3)[0] == (d == 7)
    assert pools == [2, 2]
    # threads 0 stays serial, as 1 does
    for d in (5, 7):
        f3 = UniPoly.monomial(make_field(3, 1), d)
        assert is_permutation(f3, g3, threads=0) == is_permutation(f3, g3, threads=1)
    assert pools == [2, 2]


@pytest.mark.parametrize("e", list(range(1, 13)) + [17])
def test_vector_scan_matches_eval_block(e):
    """Values and witness of the vectorized char-2 scan against the
    per-element reference evaluator."""
    ctx = make_field(2, e)
    coeffs = st.lists(st.integers(0, ctx.order - 1), min_size=1, max_size=5 if e <= 12 else 3)

    @settings(max_examples=12 if e <= 12 else 2, deadline=None, derandomize=True)
    @given(coeffs, st.booleans())
    def check(cs, additive):
        if additive:  # sum c_i X^(2^i): bijective unless it has a nonzero root
            lin = [0] * ((1 << (len(cs) - 1)) + 1)
            for i, c in enumerate(cs):
                lin[1 << i] = c
            cs = lin
        ref = _eval_block(ctx, cs, 0, ctx.order)
        assert [v for _lo, block in _vector_blocks(cs, ctx) for v in block] == ref.tolist()
        want = (True, None)
        seen = {}
        for x, v in enumerate(ref):
            if v in seen:
                want = (False, (seen[v], x))
                break
            seen[v] = x
        ok, wit = is_permutation(UniPoly(ctx, cs), ctx)
        assert (ok, wit and (wit[0].i, wit[1].i)) == want

    check()


def test_is_permutation_guard_and_rebase_errors():
    f = UniPoly.monomial(G4, 2)
    with pytest.raises(ValueError):
        is_permutation(f, G8)  # GF(4) does not embed in GF(8)
    with pytest.raises(ValueError):
        is_permutation(f, make_field(3, 2))


# ---------------------------------------------------------------------------
# predicted verdicts


def test_power_verdict_matches_gcd_condition():
    spec = FamilySpec(kind="power", d=3, field=G4)
    assert exceptionality_verdict(spec, G4) is False
    assert exceptionality_verdict(spec, G8) is True
    for m in range(1, 7):
        base = make_field(2, m)
        want = math.gcd(3, base.order - 1) == 1
        assert exceptionality_verdict(spec, base) == want


def test_power_verdict_rejects_bad_degrees():
    with pytest.raises(ValueError):
        exceptionality_verdict(FamilySpec(kind="power", d=4, field=G4), G4)
    with pytest.raises(ValueError):
        exceptionality_verdict(FamilySpec(kind="power", d=2, field=G4), G4)


def test_char2_verdict_examples():
    a4 = FieldElem(G4, 2)
    spec8 = FamilySpec(kind="char2_new", q=8, alpha=a4)
    assert exceptionality_verdict(spec8, G4) is True
    assert exceptionality_verdict(spec8, G8) is False
    assert exceptionality_verdict(spec8, make_field(2, 6)) is False
    spec4 = FamilySpec(kind="char2_new", q=4, alpha=FieldElem(G16, 5))
    for m in range(1, 7):
        assert exceptionality_verdict(spec4, make_field(2, m)) is False


def test_char2_verdict_input_checks():
    with pytest.raises(ValueError):
        exceptionality_verdict(
            FamilySpec(kind="char2_new", q=8, alpha=FieldElem(G4, 1)), G4
        )
    with pytest.raises(ValueError):
        exceptionality_verdict(
            FamilySpec(kind="char2_new", q=8, alpha=FieldElem(G4, 2)), make_field(3, 2)
        )


def test_char3_verdict_tracks_measured_bijectivity():
    g9 = make_field(3, 2)
    g3 = make_field(3, 1)
    gen = FieldElem(g9, g9.gen)
    square = FieldElem(g9, g9.mul(g9.gen, g9.gen))
    cases = [
        (gen, g9, True),
        (square, g9, False),
        (gen, make_field(3, 4), False),
        (FieldElem(g3, 2), g3, True),
        (FieldElem(g3, 2), g9, False),
    ]
    for alpha, base, want in cases:
        spec = FamilySpec(kind="char3_twist", q=27, n=1, alpha=alpha)
        assert exceptionality_verdict(spec, base) is want
        ok, _ = is_permutation(spec.build(), base)
        assert ok is want


def test_char3_verdict_requires_embeddable_alpha():
    g9 = make_field(3, 2)
    spec = FamilySpec(kind="char3_twist", q=27, n=1, alpha=FieldElem(g9, g9.gen))
    with pytest.raises(ValueError):
        exceptionality_verdict(spec, make_field(3, 3))


# ---------------------------------------------------------------------------
# tower scans: prediction vs measurement


def test_tower_scan_char2_new_over_gf4():
    for ai in (2, 3):
        spec = FamilySpec(kind="char2_new", q=8, alpha=FieldElem(G4, ai))
        rep = tower_scan(spec, G4, range(1, 6))
        got = {j: ok for j, ok, _ in rep.rows}
        assert got == {1: True, 2: True, 3: False, 4: True, 5: True}
        for j, ok, wit in rep.rows:
            ext = make_field(2, 2 * j)
            assert exceptionality_verdict(spec, ext) == ok
            if not ok:
                x1, x2 = wit
                f = spec.build()
                emb_f = is_permutation(f, ext)
                assert emb_f == (False, (x1, x2))


def test_tower_scan_j3_witnesses_are_stable():
    wits = {}
    for ai in (2, 3):
        spec = FamilySpec(kind="char2_new", q=8, alpha=FieldElem(G4, ai))
        rep = tower_scan(spec, G4, [3])
        (_, ok, wit) = rep.rows[0]
        assert not ok
        wits[ai] = (wit[0].i, wit[1].i)
    assert wits == {2: (8, 9), 3: (1, 7)}


def test_tower_scan_dickson_d5_never_bijective_over_gf4_tower():
    spec = FamilySpec(kind="dickson", d=5, alpha=FieldElem(G4, 1))
    rep = tower_scan(spec, G4, range(1, 4))
    for j, ok, wit in rep.rows:
        assert not ok and wit is not None
        assert exceptionality_verdict(spec, make_field(2, 2 * j)) is False


def test_dickson_verdict_matches_measurement_over_prime_tower():
    base = make_field(2, 1)
    for d in (3, 5, 7):
        spec = FamilySpec(kind="dickson", d=d, alpha=FieldElem(base, 1))
        f = dickson(d, FieldElem(base, 1))
        for m in range(1, 7):
            ext = make_field(2, m)
            want = math.gcd(d, ext.order**2 - 1) == 1
            assert exceptionality_verdict(spec, ext) == want
            ok, _ = is_permutation(f, ext)
            assert ok == want


def test_tower_scan_guard():
    spec = FamilySpec(kind="char2_new", q=8, alpha=FieldElem(G4, 2))
    with pytest.raises(ValueError):
        tower_scan(spec, G4, [14])
    with pytest.raises(ValueError):
        tower_scan(spec, G4, [0])


# ---------------------------------------------------------------------------
# twisting does not change the verdicts


def test_bijectivity_invariant_under_linear_twists():
    rng = random.Random(2024)
    f = f_closed(8, FieldElem(G4, 2))
    for ext_e, want in ((4, True), (6, False)):
        ext = make_field(2, ext_e)
        for _ in range(3):
            zeta = 1 + rng.randrange(ext.order - 1)
            gamma = rng.randrange(ext.order)
            eta = 1 + rng.randrange(ext.order - 1)
            delta = rng.randrange(ext.order)
            g = (
                f.map_coeffs(embed(G4, ext))
                .compose(UniPoly(ext, (gamma, zeta)))
                .scale(eta)
                + UniPoly.const(ext, delta)
            )
            ok, _ = is_permutation(g, ext)
            assert ok is want


# ---------------------------------------------------------------------------
# report serialization


def test_perm_report_json_layout():
    spec = FamilySpec(kind="char2_new", q=8, alpha=FieldElem(G4, 2))
    rep = tower_scan(spec, G4, range(1, 4))
    obj = rep.to_json()
    assert set(obj) == {"spec", "base", "rows", "witnesses"}
    assert [r["j"] for r in obj["rows"]] == [1, 2, 3]
    assert [w["j"] for w in obj["witnesses"]] == [3]

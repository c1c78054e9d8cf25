"""The Frobenius-row modular-power kernel against square-and-multiply.

ff._powmod walks the base-p digits of n and takes each p-th power as one
semilinear map through the row table X^(p*i) mod f (ff._frob_rows,
ff._frobmod).  Binary square-and-multiply is the independent reference
here, and factor/roots outputs are pinned to a golden recorded with it
(tests/data/factor_golden.json).
"""

import functools
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excpoly import UniPoly, factor, make_field, roots
from excpoly.ff import (TABLE_LIMIT, _add, _frob_rows, _frobmod, _mod, _mul, _norm, _powmod,
                        _trace_map)

GOLDEN = pathlib.Path(__file__).parent / "data" / "factor_golden.json"

# table fields in both characteristics; their products are exact lookups,
# so the reference loop stays cheap at degree 30.  GF(2^17) has no tables:
# it puts the byte-table products of VecField under the vector step of
# _frobmod, at degrees up to BIG_FIELD_DEGREE.  Both ranges of degrees
# straddle the threshold where the row table turns into an array.
FIELDS = [(2, 1), (2, 2), (2, 4), (2, 8), (2, 12), (2, 17), (3, 1), (3, 2), (3, 3)]
BIG_FIELD_DEGREE = 12


def vector_threshold(ctx):
    """The least deg f whose row table is a numpy array over GF(2^e), e > 1:
    where the vector step of _frobmod (about 10 us on log tables, 42 us on
    byte tables) beats the list loop."""
    return 9 if ctx.order <= TABLE_LIMIT else 4


def powmod_reference(ctx, a, n, f):
    """a^n mod f by binary square-and-multiply, the reference for _powmod."""
    r = [1]
    a = _mod(ctx, a, f)
    while n:
        if n & 1:
            r = _mod(ctx, _mul(ctx, r, a), f)
        n >>= 1
        if n:
            a = _mod(ctx, _mul(ctx, a, a), f)
    return r


@st.composite
def modular_cases(draw, max_degree=30):
    """(ctx, a, f) with f of degree 1..max_degree, monic or not, and a of any
    degree below 2 deg f."""
    p, e = draw(st.sampled_from(FIELDS))
    ctx = make_field(p, e)
    elem = st.integers(0, ctx.order - 1)
    m = draw(st.integers(1, max_degree if ctx.order <= TABLE_LIMIT else BIG_FIELD_DEGREE))
    lead = 1 if draw(st.booleans()) else draw(st.integers(1, ctx.order - 1))
    f = draw(st.lists(elem, min_size=m, max_size=m)) + [lead]
    a = _norm(draw(st.lists(elem, max_size=2 * m)))
    return ctx, a, f


@st.composite
def exponents(draw, ctx, m):
    kind = draw(st.sampled_from(["zero", "one", "p^k", "half", "random"]))
    if kind == "zero":
        return 0
    if kind == "one":
        return 1
    if kind == "p^k":
        return ctx.p ** draw(st.integers(1, 3 * ctx.e))
    if kind == "half":
        return (ctx.order ** draw(st.integers(1, m)) - 1) // 2
    return draw(st.integers(0, (1 << 64) - 1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_powmod_matches_square_and_multiply(data):
    ctx, a, f = data.draw(modular_cases())
    n = data.draw(exponents(ctx, len(f) - 1))
    assert _powmod(ctx, a, n, f) == powmod_reference(ctx, a, n, f)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(modular_cases())
def test_frob_rows_are_the_p_multiple_powers_of_x(case):
    ctx, _a, f = case
    rows = _frob_rows(ctx, f)
    assert len(rows) == len(f) - 1
    # over GF(2^e), e > 1, from the vector threshold on, one int64 (m, m)
    # array, row i padded with zeros
    array = ctx.p == 2 and ctx.e > 1 and len(f) - 1 >= vector_threshold(ctx)
    assert isinstance(rows, np.ndarray) == array
    if array:
        assert rows.dtype == np.int64 and rows.shape == (len(f) - 1,) * 2
    for i, row in enumerate(rows):
        if array:
            row = _norm(list(row))
        assert row == _mod(ctx, [0] * (ctx.p * i) + [1], f)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(modular_cases())
def test_frobmod_is_the_p_fold_product(case):
    ctx, a, f = case
    a = _mod(ctx, a, f)
    got = _frobmod(ctx, a, _frob_rows(ctx, f))
    assert got == _mod(ctx, functools.reduce(lambda x, y: _mul(ctx, x, y), [a] * ctx.p), f)
    if ctx.p == 2:
        assert got == _mod(ctx, _mul(ctx, a, a), f)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_trace_map_is_the_sum_of_squarings(data):
    ctx, a, f = data.draw(modular_cases().filter(lambda c: c[0].p == 2))
    k = data.draw(st.integers(1, 3 * ctx.e))
    want = []
    for i in range(k):
        want = _add(ctx, want, powmod_reference(ctx, a, 2**i, f))
    assert _trace_map(ctx, a, k, f, _frob_rows(ctx, f)) == want


def test_powmod_contract_edges():
    g8 = make_field(2, 3)
    g9 = make_field(3, 2)
    for ctx in (g8, g9):
        f = [3, 0, 2, 5 % ctx.order]  # not monic
        assert _powmod(ctx, [1, 1], 0, f) == [1]
        assert _powmod(ctx, [], 0, f) == [1]
        assert _powmod(ctx, [], 7, f) == []
        # a constant modulus leaves nothing but n = 0 gives [1]
        assert _powmod(ctx, [2, 1], 0, [4]) == [1]
        assert _powmod(ctx, [2, 1], 5, [4]) == []
        with pytest.raises(ZeroDivisionError):
            _powmod(ctx, [1, 1], 3, [])
        with pytest.raises(ZeroDivisionError):
            _powmod(ctx, [1, 1], 0, [0, 0])
        with pytest.raises(ZeroDivisionError):
            _frob_rows(ctx, [0])
        with pytest.raises(ValueError):
            _powmod(ctx, [1, 1], -1, f)
        # zero squares to zero, also on the vector step over GF(8)
        assert _frobmod(ctx, [], _frob_rows(ctx, f)) == []
    # the bit-serial multiplier above the table limit
    g17 = make_field(2, 17)
    f = [5, 1 << 16, 0, 77, 3, 1 << 10]
    for n in (0, 1, 2, g17.order, (g17.order - 1) // 2, 12345):
        assert _powmod(g17, [9, 1], n, f) == powmod_reference(g17, [9, 1], n, f)
    assert _frobmod(g17, [], _frob_rows(g17, f)) == []


@pytest.mark.parametrize("e", [2, 8, 16, 17, 20])
def test_frobmod_on_both_sides_of_the_vector_threshold(e):
    """Just below the threshold the rows stay lists, from it on they are an
    array; both forms give the square mod f, and so does the other form
    built by hand for the same f."""
    ctx = make_field(2, e)
    rng = np.random.default_rng(e)
    for m in (vector_threshold(ctx) - 1, vector_threshold(ctx)):
        f = [int(c) for c in rng.integers(0, ctx.order, m)] + [1]
        a = _norm([ctx.order - 1] + [int(c) for c in rng.integers(0, ctx.order, m - 1)])
        rows = _frob_rows(ctx, f)
        assert isinstance(rows, np.ndarray) == (m == vector_threshold(ctx))
        other = (list(map(_norm, rows.tolist())) if isinstance(rows, np.ndarray)
                 else np.array([r + [0] * (m - len(r)) for r in rows], dtype=np.int64))
        want = _mod(ctx, _mul(ctx, a, a), f)
        assert _frobmod(ctx, a, rows) == _frobmod(ctx, a, other) == want


def _golden_cases():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", _golden_cases(), ids=lambda c: c["label"])
def test_factor_and_roots_match_the_golden(case):
    """Recorded with square-and-multiply powers: the factor lists (their order
    included), units and root lists must come out bit-identical."""
    ctx = make_field(case["p"], case["e"])
    f = UniPoly(ctx, case["coeffs"])
    fac = factor(f, seed=case["seed"])
    assert fac.unit == case["unit"]
    assert [[list(g.c), m] for g, m in fac.factors] == case["factors"]
    assert [[r.i, m] for r, m in roots(f, ctx)] == case["roots"]

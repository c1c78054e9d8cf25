"""Coset cycle-type distributions of the pair action and empirical fiber
shape statistics."""

import multiprocessing
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import excpoly
from excpoly import (
    CycleDist,
    FieldElem,
    UniPoly,
    branch_points,
    build_action,
    chebotarev_sample,
    coset_cycle_types,
    dickson,
    dist_compare,
    embed,
    f_closed,
    make_field,
)
from excpoly import cli, ff, monodromy
from excpoly.ff import _frob_orbits, lift
from excpoly.poly import factor

G4 = make_field(2, 2)
G8 = make_field(2, 3)
G16 = make_field(2, 4)


# ---------------------------------------------------------------------------
# CycleDist


def test_cycle_dist_normalizes_and_validates():
    d = CycleDist(6, {(5, 1): Fraction(1, 2), (3, 3): Fraction(1, 2)})
    assert (1, 5) in d.entries and (5, 1) not in d.entries
    with pytest.raises(ValueError):
        CycleDist(6, {(1, 5): Fraction(1, 3)})  # weights must sum to 1
    with pytest.raises(ValueError):
        CycleDist(6, {(7,): Fraction(1)})  # part exceeds degree
    with pytest.raises(ValueError):
        CycleDist(6, {(0, 6): Fraction(1)})
    with pytest.raises(ValueError):
        CycleDist(6, {(): Fraction(1)})


def test_cycle_dist_unramified_restriction():
    d = CycleDist(
        6,
        {
            (1, 5): Fraction(1, 2),
            (3, 3): Fraction(1, 4),
            (1, 2): Fraction(1, 4),  # ramified: parts sum below degree
        },
    )
    u = d.unramified()
    assert u.support() == frozenset({(1, 5), (3, 3)})
    assert u.entries == {(1, 5): Fraction(2, 3), (3, 3): Fraction(1, 3)}
    ram_only = CycleDist(6, {(1, 2): Fraction(1)})
    with pytest.raises(ValueError):
        ram_only.unramified()


def test_cycle_dist_average_fixed_points():
    d = CycleDist(4, {(1, 1, 2): Fraction(1, 2), (4,): Fraction(1, 2)})
    assert d.average_fixed_points() == 1


def test_cycle_dist_json_round_trip():
    d = coset_cycle_types(4, 1)
    obj = d.to_json()
    types = [tuple(rec["type"]) for rec in obj["entries"]]
    assert types == sorted(types)
    assert all(isinstance(rec["weight"], str) for rec in obj["entries"])
    assert CycleDist.from_json(obj) == d


def test_dist_compare_basics():
    a = CycleDist(3, {(3,): Fraction(1)})
    b = CycleDist(3, {(3,): Fraction(1, 2), (1, 1, 1): Fraction(1, 2)})
    assert dist_compare(a, a) == 0
    assert dist_compare(a, b) == Fraction(1, 2) == dist_compare(b, a)
    with pytest.raises(ValueError):
        dist_compare(a, CycleDist(4, {(4,): Fraction(1)}))


# ---------------------------------------------------------------------------
# the pair action


def test_build_action_structure():
    act4 = build_action(4)
    assert act4.e == 2 and len(act4.domain) == 6 and len(act4.elements()) == 60
    act8 = build_action(8)
    assert act8.e == 3 and len(act8.domain) == 28 and len(act8.elements()) == 504
    assert build_action(4) is act4  # cached


def test_build_action_rejects_other_orders():
    with pytest.raises(ValueError):
        build_action(5)
    with pytest.raises(ValueError):
        build_action(64)


def test_identity_and_frobenius_elements():
    act = build_action(4)
    assert act.cycle_type((1, 0, 0, 1), 0) == (1,) * 6
    # The q-power Frobenius fixes every conjugate pair, so the generator
    # x -> x^2 squares to the identity on the domain.
    perm = act.point_perm((1, 0, 0, 1), 1)
    assert perm != list(range(6))
    assert all(perm[perm[i]] == i for i in range(6))


def test_coset_cycle_types_q4():
    d0 = coset_cycle_types(4, 0)
    assert d0.entries == {
        (1,) * 6: Fraction(1, 60),
        (1, 1, 2, 2): Fraction(1, 4),
        (1, 5): Fraction(2, 5),
        (3, 3): Fraction(1, 3),
    }
    d1 = coset_cycle_types(4, 1)
    assert d1.entries == {
        (1, 1, 4): Fraction(1, 2),
        (2, 2, 2): Fraction(1, 6),
        (6,): Fraction(1, 3),
    }


def test_coset_cycle_types_q8():
    d0 = coset_cycle_types(8, 0)
    assert d0.entries == {
        (1,) * 28: Fraction(1, 504),
        (1, 1, 1, 1) + (2,) * 12: Fraction(1, 8),
        (1,) + (3,) * 9: Fraction(1, 9),
        (1, 9, 9, 9): Fraction(1, 3),
        (7, 7, 7, 7): Fraction(3, 7),
    }
    d1 = coset_cycle_types(8, 1)
    assert d1.entries == {
        (1,) + (3,) * 9: Fraction(1, 6),
        (1, 3, 6, 6, 6, 6): Fraction(1, 2),
        (1, 9, 9, 9): Fraction(1, 3),
    }
    assert coset_cycle_types(8, 2) == d1


def test_every_coset_averages_one_fixed_point():
    for q, jmax in ((4, 2), (8, 3)):
        for j in range(jmax):
            assert coset_cycle_types(q, j).average_fixed_points() == 1


def test_coset_cycle_types_j_range():
    with pytest.raises(ValueError):
        coset_cycle_types(4, 2)
    with pytest.raises(ValueError):
        coset_cycle_types(8, -1)


# ---------------------------------------------------------------------------
# branch points


def test_branch_points_of_the_main_family():
    f = f_closed(8, FieldElem(G4, 2))
    for base in (G4, G16):
        assert [b.i for b in branch_points(f, base)] == [0]


def test_branch_points_derivative_vanishes():
    with pytest.raises(ValueError):
        branch_points(UniPoly.monomial(G4, 2), G4)


def brute_branch_points(f, base):
    out = []
    fp = f.derivative()
    for t in range(base.order):
        h = f - UniPoly.const(base, t)
        if h.gcd(fp).degree > 0:
            out.append(t)
    return out


def test_branch_points_match_brute_force():
    rng = random.Random(77)
    checked = 0
    for _ in range(12):
        f = UniPoly(G8, [rng.randrange(8) for _ in range(6)])
        if f.degree < 2 or f.derivative().is_zero():
            continue
        got = [b.i for b in branch_points(f, G8)]
        assert got == brute_branch_points(f, G8)
        checked += 1
    assert checked >= 6
    d3 = dickson(3, FieldElem(G16, 7))
    assert [b.i for b in branch_points(d3, G16)] == brute_branch_points(d3, G16)


# ---------------------------------------------------------------------------
# empirical shape distributions


def test_chebotarev_exhaustive_small_base():
    f = f_closed(8, FieldElem(G4, 2))
    dist = chebotarev_sample(f, G16)
    assert dist.degree == 28
    assert sum(dist.entries.values()) == 1
    # one ramified fiber (t = 0) out of 16
    ram = {s for s in dist.entries if sum(s) < 28}
    assert len(ram) == 1
    allowed = coset_cycle_types(8, 1).support()
    assert dist.unramified().support() <= allowed


def test_chebotarev_vector_engine_agrees_with_direct_factoring(monkeypatch):
    """GF(4^4) has 70 Frobenius orbits of fibers, which turns the batched
    engine on; spot check a handful of fibers against plain factorization."""
    f = f_closed(8, FieldElem(G4, 3))
    base = make_field(2, 8)
    batches = []
    vector_shapes = monodromy._vector_shapes

    def spy(fb, ts, branch_set):
        batches.append(len(ts))
        return vector_shapes(fb, ts, branch_set)

    monkeypatch.setattr(monodromy, "_vector_shapes", spy)
    dist = chebotarev_sample(f, base)
    assert batches == [70] and 70 >= monodromy.VECTOR_MIN_FIBERS
    fb = f.map_coeffs(embed(G4, base))
    rng = random.Random(5)
    counts = {}
    picks = [0] + [rng.randrange(256) for _ in range(6)]
    for t in picks:
        h = fb - UniPoly.const(base, t)
        shape = tuple(sorted(p.degree for p, _m in factor(h).factors))
        counts[shape] = counts.get(shape, 0) + 1
    for shape in counts:
        assert shape in dist.entries
    assert dist.unramified().support() <= coset_cycle_types(8, 2).support()


def test_chebotarev_sampled_mode_is_deterministic():
    f = f_closed(8, FieldElem(G4, 2))
    base = make_field(2, 8)
    a = chebotarev_sample(f, base, mode="sampled", n=50, seed=11)
    b = chebotarev_sample(f, base, mode="sampled", n=50, seed=11)
    assert a == b
    c = chebotarev_sample(f, base, mode="sampled", n=50, seed=12)
    assert a.degree == c.degree  # same family, possibly different counts


def test_chebotarev_sampled_mode_errors():
    f = f_closed(8, FieldElem(G4, 2))
    with pytest.raises(ValueError):
        chebotarev_sample(f, G16, mode="sampled")  # n and seed missing
    with pytest.raises(ValueError):
        chebotarev_sample(f, G16, mode="sampled", n=17, seed=0)
    with pytest.raises(ValueError, match="cannot draw 0"):
        chebotarev_sample(f, G16, mode="sampled", n=0, seed=0)
    with pytest.raises(ValueError):
        chebotarev_sample(f, G16, mode="middle-out")


def test_chebotarev_exhaustive_cap(monkeypatch):
    assert monodromy.EXHAUSTIVE_LIMIT == 1 << 20
    f = f_closed(8, FieldElem(G4, 2))
    monkeypatch.setattr(monodromy, "EXHAUSTIVE_LIMIT", 8)
    with pytest.raises(ValueError):
        chebotarev_sample(f, G16)


def test_chebotarev_threads_agree(monkeypatch):
    f = f_closed(8, FieldElem(G4, 2))
    base = make_field(2, 10)  # 1024 fibers in 208 orbits: enough for the pool
    reps = np.unique(_frob_orbits(base, 2, range(base.order))[0])
    assert len(reps) == 208 >= 4 * monodromy.VECTOR_MIN_FIBERS
    one = chebotarev_sample(f, base, threads=1)
    pools = []
    pool = multiprocessing.Pool

    def spy(n):
        pools.append(n)
        return pool(n)

    monkeypatch.setattr(multiprocessing, "Pool", spy)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the pool never outgrows the CPUs
    two = chebotarev_sample(f, base, threads=2)
    assert pools == [2]
    assert one == two
    # threads 0 stays serial, as 1 does
    g46 = make_field(2, 12)
    assert chebotarev_sample(f, g46, threads=0) == chebotarev_sample(f, g46, threads=1)
    assert pools == [2]


def test_branch_points_run_once_per_chebotarev_run(monkeypatch):
    """The branch set is found before the fan-out, not once per job: four
    jobs of 52 vectorized representatives each factor f' once between them."""
    f = f_closed(8, FieldElem(G4, 2))
    base = make_field(2, 10)
    one = chebotarev_sample(f, base)
    calls = []
    find = monodromy.branch_points

    def spy(g, ctx):
        calls.append(ctx)
        return find(g, ctx)

    monkeypatch.setattr(monodromy, "_fan_out", lambda fn, jobs, threads: [fn(*j) for j in jobs])
    monkeypatch.setattr(monodromy, "branch_points", spy)
    assert chebotarev_sample(f, base, threads=4) == one
    assert calls == [base]


def test_chebotarev_rejects_constant_and_bad_base():
    with pytest.raises(ValueError):
        chebotarev_sample(UniPoly.one(G4), G4)
    with pytest.raises(ValueError):
        chebotarev_sample(f_closed(8, FieldElem(G4, 2)), G8)


# ---------------------------------------------------------------------------
# Frobenius-orbit reduction: f - t and f - t^(p^a) have the same shape when f
# has coefficients in GF(p^a), so chebotarev_sample factors one fiber per orbit


def unreduced_dist(fb, ts, table):
    """The distribution over ts from per-fiber shapes, one fiber per t."""
    counts = Counter(table[t] for t in ts)
    return CycleDist(fb.degree, {sh: Fraction(c, len(ts)) for sh, c in counts.items()})


@pytest.mark.parametrize("e", [2, 4, 6, 8, 10, 12])
@pytest.mark.parametrize("alpha", [2, 3])
def test_orbit_reduction_matches_unreduced_shapes(alpha, e):
    f = f_closed(8, FieldElem(G4, alpha))
    base = make_field(2, e)
    fb = lift(f, base)
    assert monodromy._subfield_degree(fb) == 2
    ts = list(range(base.order))
    table = dict(zip(ts, monodromy._shapes_for(fb, ts)))
    assert chebotarev_sample(f, base) == unreduced_dist(fb, ts, table)

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(st.integers(1, base.order), st.integers(0, 2**32))
    def sampled(n, seed):
        drawn = sorted(random.Random(seed).sample(range(base.order), n))
        got = chebotarev_sample(f, base, mode="sampled", n=n, seed=seed)
        assert got == unreduced_dist(fb, drawn, table)

    sampled()


@pytest.mark.parametrize("p,e,a,coeffs", [
    (2, 10, 1, [0, 1, 0, 1, 0, 0, 0, 1]),  # X^7 + X^3 + X over GF(2)
    (2, 8, 8, None),                         # a coefficient generates GF(2^8)
    (3, 4, 1, [1, 2, 0, 0, 1]),              # X^4 + 2X + 1 over GF(3)
])
def test_orbit_reduction_subfield_extremes(p, e, a, coeffs):
    base = make_field(p, e)
    if coeffs is None:
        f = UniPoly(base, [1, base.gen, 0, 0, 0, 1])
    else:
        f = UniPoly(make_field(p, 1), coeffs)
    fb = lift(f, base)
    assert monodromy._subfield_degree(fb) == a
    ts = list(range(base.order))
    table = dict(zip(ts, monodromy._shapes_for(fb, ts)))
    assert chebotarev_sample(f, base) == unreduced_dist(fb, ts, table)
    drawn = sorted(random.Random(3).sample(ts, base.order // 3))
    assert (chebotarev_sample(f, base, mode="sampled", n=len(drawn), seed=3)
            == unreduced_dist(fb, drawn, table))


@pytest.mark.parametrize("p,e,a", [(2, 6, 2), (2, 9, 3), (2, 18, 2), (2, 20, 5), (3, 6, 2)])
def test_orbit_reps_are_least_in_orbit(p, e, a):
    ctx = make_field(p, e)
    ts = random.Random(e).sample(range(ctx.order), min(200, ctx.order))
    least, length = _frob_orbits(ctx, a, ts)
    for t, r, n in zip(ts, least.tolist(), length.tolist()):
        orbit = [t]
        for _ in range(e // a - 1):
            orbit.append(ctx.pow_(orbit[-1], p ** a))
        assert ctx.pow_(orbit[-1], p ** a) == t
        assert r == min(orbit)
        assert n == len(set(orbit))


def test_shape_engine_runs_above_the_table_limit(monkeypatch):
    """GF(4^9) has no log tables: the engine runs on byte-table products."""
    f = f_closed(8, FieldElem(G4, 2))
    base = make_field(2, 18)
    assert base._log is None
    runs = []
    vector_shapes = monodromy._vector_shapes

    def spy(fb, ts, branch_set):
        runs.append((fb, ts, vector_shapes(fb, ts, branch_set)))
        return runs[-1][2]

    monkeypatch.setattr(monodromy, "_vector_shapes", spy)
    dist = chebotarev_sample(f, base, "sampled", n=200, seed=1)
    assert dist.unramified().support() <= coset_cycle_types(8, 0).support()
    ((fb, ts, shapes),) = runs
    assert len(ts) >= monodromy.VECTOR_MIN_FIBERS
    # fibers the engine's own spot checks (first, middle, last) do not cover
    for i in (len(ts) // 4, 3 * len(ts) // 4):
        assert shapes[i] == monodromy._shape_one(fb, ts[i])


def test_spot_checks_factor_unramified_fibers_once(monkeypatch):
    """Over GF(4^4) the engine reads the shape of each ramified representative
    once from the distinct-degree split, spends its spot checks (full
    factorizations) on unramified fibers, and no t is shaped twice."""
    f = f_closed(8, FieldElem(G4, 2))
    base = make_field(2, 8)
    reps = set(_frob_orbits(base, 2, range(base.order))[0].tolist())
    ramified = {b.i for b in branch_points(f, base)} & reps
    assert ramified and len(reps) >= monodromy.VECTOR_MIN_FIBERS
    calls = []

    def spy_on(name):
        shape = getattr(monodromy, name)

        def spy(fb, t):
            calls.append((name, sys._getframe(1).f_code.co_name, t))
            return shape(fb, t)
        monkeypatch.setattr(monodromy, name, spy)

    spy_on("_shape_ddf")
    spy_on("_shape_one")
    chebotarev_sample(f, base)
    ts = [t for _, _, t in calls]
    assert len(ts) == len(set(ts))
    engine = [(name, t) for name, caller, t in calls if caller == "_vector_shapes"]
    assert sorted(t for name, t in engine if name == "_shape_ddf") == sorted(ramified)
    # the rest are the spot checks, all unramified
    checks = [t for name, t in engine if name == "_shape_one"]
    assert len(checks) == monodromy.VECTOR_SPOT_CHECKS
    assert not set(checks) & ramified


def test_cold_chebotarev_run_factors_at_most_twice(tmp_path, monkeypatch, capsys):
    """The 16 sampled fibers take their shapes from the distinct-degree split;
    full factor runs only for the checks."""
    calls = []
    factor_ = monodromy.factor

    def spy(f, seed=0):
        calls.append(f.degree)
        return factor_(f, seed=seed)

    monkeypatch.setattr(monodromy, "factor", spy)
    code = cli.run([
        "chebotarev", "--q", "8", "--alpha-index", "2", "--field", "p=2,e=2", "--j", "4",
        "--mode", "sampled", "--n", "16", "--seed", "11", "--cache-dir", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    assert 1 <= len(calls) <= 2


# ---------------------------------------------------------------------------
# The direct shape path: degrees from poly._squarefree_decomp and poly._ddf,
# against full factorization


@st.composite
def shape_cases(draw):
    """(f, t) over a table field GF(2^e) or GF(3^e): f - t is a product of
    random monic factors, some raised to the power 2, p or p + 1, so that
    squares and p-th powers (poly._pth_root_poly) occur."""
    p, e = draw(st.sampled_from([(2, 1), (2, 2), (2, 4), (2, 8), (3, 1), (3, 2), (3, 3)]))
    ctx = make_field(p, e)
    coeff = st.integers(0, ctx.order - 1)
    m = draw(st.integers(1, 18))
    h = UniPoly.one(ctx)
    while h.degree < m:
        k = draw(st.integers(1, 5))
        g = UniPoly(ctx, draw(st.lists(coeff, min_size=k, max_size=k)) + [1])
        for _ in range(draw(st.sampled_from([1, 2, p, p + 1]))):
            h = h * g
    t = draw(coeff)
    return h + UniPoly.const(ctx, t), t


def test_shapes_from_the_distinct_degree_split_match_factor():
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(shape_cases())
    def check(case):
        f, t = case
        assert monodromy._shape_ddf(f, t) == monodromy._shape_one(f, t)

    check()
    # the branch value t = 0 of the main family, over its own field
    for alpha in (2, 3):
        f = f_closed(8, FieldElem(G4, alpha))
        assert monodromy._shape_ddf(f, 0) == monodromy._shape_one(f, 0)
        assert sum(monodromy._shape_ddf(f, 0)) < f.degree


@pytest.mark.parametrize("base_e", [4, 8], ids=["direct", "vector-ramified"])
@pytest.mark.parametrize("ddf, match", [
    (lambda g: [(g, g.degree + 1)], "at level"),
    (lambda g: [], "has no factor"),
], ids=["degree-off-level", "no-parts"])
def test_shape_ddf_errors_fire(monkeypatch, base_e, ddf, match):
    """Census mutants: a distinct-degree part whose degree is not a multiple of
    its level, or a split with no parts at all, must raise."""
    monkeypatch.setattr(monodromy, "_ddf", ddf)
    with pytest.raises(ArithmeticError, match=match):
        chebotarev_sample(f_closed(8, FieldElem(G4, 2)), make_field(2, base_e))


def test_vector_engine_checks_survive_python_O():
    """The engine's cross-checks and CycleDist validation must not be asserts."""
    code = """
from fractions import Fraction
import numpy as np
from excpoly import CycleDist, FieldElem, UniPoly, f_closed, make_field
from excpoly import monodromy

for bad in ({(1, 5): Fraction(1, 3)}, {(7,): 1}, {(0, 6): 1}, {(): 1}):
    try:
        CycleDist(6, bad)
    except ValueError:
        continue
    raise SystemExit("CycleDist accepted %r" % (bad,))
g = UniPoly(make_field(2, 2), [1, 0, 0, 2])
try:
    monodromy._vector_shapes(g, list(range(4)), set())
except ValueError:
    pass
else:
    raise SystemExit("the engine took a non-monic f")
monodromy._gcd_degrees = lambda vf, H, V0: np.zeros(len(H), dtype=np.int64)
f = f_closed(8, FieldElem(make_field(2, 2), 2))
try:
    monodromy.chebotarev_sample(f, make_field(2, 8))
except ArithmeticError as err:
    if "direct factorization" not in str(err):
        raise
else:
    raise SystemExit("wrong gcd degrees went unnoticed")
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(excpoly.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


def test_orbit_check_catches_a_wrong_representative_shape(monkeypatch):
    f = f_closed(8, FieldElem(G4, 2))
    shapes_for = monodromy._shapes_for

    def skewed(fb, ts, branch=None):
        return [sh if t == 0 else (fb.degree,) for t, sh in zip(ts, shapes_for(fb, ts, branch))]

    monkeypatch.setattr(monodromy, "_shapes_for", skewed)
    with pytest.raises(ArithmeticError, match="Frobenius orbit"):
        chebotarev_sample(f, G16)


@pytest.mark.parametrize("delta", [1, -1])
def test_conservation_law_catches_a_wrong_linear_count(monkeypatch, delta):
    # t = 0 is fixed by the Frobenius, so _check_orbit never looks at it;
    # only the count of linear factors over all fibers can see the change
    f = f_closed(8, FieldElem(G4, 2))
    base = make_field(2, 8)
    shapes_for = monodromy._shapes_for

    def skewed(fb, ts, branch=None):
        out = shapes_for(fb, ts, branch)
        if ts[0] == 0:
            # f(0) = 0, so the fiber of 0 has the linear factor X: add or drop one
            parts = list(out[0])
            if delta > 0:
                parts.append(1)
            else:
                parts.remove(1)
            out[0] = tuple(sorted(parts))
        return out

    monkeypatch.setattr(monodromy, "_shapes_for", skewed)
    with pytest.raises(ArithmeticError, match="linear factors"):
        chebotarev_sample(f, base)
    # sampled mode is exempt, even when it draws every t
    sampled = chebotarev_sample(f, base, mode="sampled", n=base.order, seed=1)
    assert sum(sampled.entries.values()) == 1


# ---------------------------------------------------------------------------
# The vectorized engine retires each fiber once its distinct-degree split is
# complete: uncounted degree below 2(d + 1) after round d, as in poly._ddf


def _leftover(shape):
    """The degree the stopping rule leaves over as one factor when it
    retires an unramified fiber of this shape."""
    d, rest = 0, sum(shape)
    while rest >= 2 * (d + 1):
        d += 1
        rest -= d * shape.count(d)
    return rest


@st.composite
def fibered_polys(draw):
    """Monic f of degree 3..30 over GF(2^2..2^8), a product of random monic
    factors plus a constant c, so that the fiber at c has a drawn factor
    pattern; with VECTOR_MIN_FIBERS random t, then c."""
    ctx = make_field(2, draw(st.integers(2, 8)))
    coeff = st.integers(0, ctx.order - 1)
    m = draw(st.integers(3, 30))
    f = UniPoly.one(ctx)
    while f.degree < m:
        k = draw(st.integers(1, m - f.degree))
        f = f * UniPoly(ctx, draw(st.lists(coeff, min_size=k, max_size=k)) + [1])
    c = draw(coeff)
    n = monodromy.VECTOR_MIN_FIBERS
    ts = draw(st.lists(coeff, min_size=n, max_size=n))
    return f + UniPoly.const(ctx, c), ts + [c]


def test_vector_engine_stopping_rule_matches_direct_factoring():
    """Every fiber, ramified ones included, against full factorization;
    leftover factors of degree <= deg(f)/2 and above both occur."""
    leftovers = set()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(fibered_polys())
    def check(case):
        f, ts = case
        assume(not f.derivative().is_zero())
        branch = {e.i for e in branch_points(f, f.ctx)}
        ts = ts + sorted(branch)
        shapes = monodromy._vector_shapes(f, ts, branch)
        for t, shape in zip(ts, shapes):
            assert shape == monodromy._shape_one(f, t)
            rest = _leftover(shape)
            if t not in branch and rest:
                leftovers.add(rest <= f.degree // 2)

    check()
    assert leftovers == {True, False}


def test_vector_engine_rounds_stop_at_the_largest_part(monkeypatch):
    """Over GF(4^4) no unramified part exceeds 9, so the engine runs 9
    rounds, not deg(f)/2 = 14, on live sets that only shrink."""
    f = f_closed(8, FieldElem(G4, 2))
    rows = []
    gcd_degrees = monodromy._gcd_degrees

    def spy(vf, H, V0):
        rows.append(len(H))
        return gcd_degrees(vf, H, V0)

    monkeypatch.setattr(monodromy, "_gcd_degrees", spy)
    dist = chebotarev_sample(f, make_field(2, 8))
    largest = max(max(shape) for shape in dist.unramified().entries)
    assert largest == 9 < f.degree // 2
    assert len(rows) == largest
    assert rows == sorted(rows, reverse=True)


ROW_KINDS = ["random", "zero", "const", "same", "shared", "divides", "full"]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([8, 12, 17]), st.integers(1, 7),
       st.lists(st.tuples(st.sampled_from(ROW_KINDS), st.integers(0, 2**32 - 1)),
                min_size=1, max_size=12))
def test_gcd_degrees_matches_scalar_euclid(e, m, rows):
    """The batched Euclid against ff._gcd row by row, on log tables (2^8,
    2^12) and byte tables (2^17): V0 = 0, a nonzero constant, V0 = H, pairs
    built with a common factor, V0 a divisor of H (U reaches zero in the
    middle of the loop) and V0 of full width m + 1, beside random rows."""
    ctx = make_field(2, e)
    H = np.zeros((len(rows), m + 1), dtype=np.int64)
    V0 = np.zeros_like(H)
    for r, (kind, seed) in enumerate(rows):
        rng = random.Random(seed)

        def rand(k):
            return [rng.randrange(ctx.order) for _ in range(k)]

        if kind == "shared":
            dg = rng.randint(1, m)
            g = rand(dg) + [1]
            h = ff._mul(ctx, g, rand(m - dg) + [1])
            v = ff._mul(ctx, g, rand(m - dg + 1))
        elif kind == "divides":
            dg = rng.randint(1, m)
            g = rand(dg) + [1]
            h = ff._mul(ctx, g, rand(m - dg) + [1])
            v = ff._mul(ctx, g, [rng.randrange(1, ctx.order)])
        else:
            h = rand(m) + [1]
            v = {"random": rand(m + 1), "zero": [], "const": [rng.randrange(1, ctx.order)],
                 "same": h, "full": rand(m) + [rng.randrange(1, ctx.order)]}[kind]
        H[r] = h
        V0[r, : len(v)] = v
    got = monodromy._gcd_degrees(ctx.vec, H, V0)
    assert got.tolist() == [len(ff._gcd(ctx, h, v)) - 1
                            for h, v in zip(H.tolist(), V0.tolist())]


def test_gcd_work_follows_the_live_rows_and_columns(monkeypatch):
    """Finished fibers leave the batched Euclid and its columns follow the
    largest live degree: over GF(4^4) it multiplies at most half the
    elements of a dense loop, which takes every row and all m + 1 columns
    through every iteration, and the count repeats exactly."""
    f = f_closed(8, FieldElem(G4, 2))
    gcd_degrees = monodromy._gcd_degrees

    class Counting:
        def __init__(self, vf, tally):
            self.vf, self.tally = vf, tally

        def inv(self, a):
            return self.vf.inv(a)

        def mul(self, a, b):
            out = self.vf.mul(a, b)
            self.tally["multiplied"] += out.size
            self.tally["iterations"] += out.ndim == 2
            return out

    def run():
        tally = {"multiplied": 0, "iterations": 0, "dense": 0}

        def spy(vf, H, V0):
            before = tally["iterations"]
            out = gcd_degrees(Counting(vf, tally), H, V0)
            tally["dense"] += (tally["iterations"] - before) * H.size
            return out

        monkeypatch.setattr(monodromy, "_gcd_degrees", spy)
        chebotarev_sample(f, make_field(2, 8))
        return tally

    first = run()
    assert 0 < first["multiplied"] <= first["dense"] // 2
    assert run() == first


def test_gcd_loop_guard_fires(monkeypatch):
    """Census mutant: with every product zero, U never shrinks and the
    batched Euclid must stop at its guard."""
    monkeypatch.setattr(ff.VecField, "mul",
                        lambda self, a, b: np.zeros(np.broadcast(a, b).shape, dtype=np.int64))
    with pytest.raises(ArithmeticError, match="failed to converge"):
        chebotarev_sample(f_closed(8, FieldElem(G4, 2)), make_field(2, 8))


@pytest.mark.parametrize("base_e, delta, match", [
    (12, -1, "not Moebius-consistent"),
    (8, 1, "leftover degree -1 is impossible"),
], ids=["one-root-too-few", "one-root-too-many"])
def test_vector_engine_count_checks_fire(monkeypatch, base_e, delta, match):
    """Census mutants: gcd degrees one too low over GF(4^6), where some
    fibers have no root, give a negative count of linear factors; one too
    high over GF(4^4), where f permutes the base, shift every round's
    counts alike, so the Moebius check passes and degree -1 is left over."""
    gcd_degrees = monodromy._gcd_degrees
    monkeypatch.setattr(monodromy, "_gcd_degrees",
                        lambda vf, H, V0: gcd_degrees(vf, H, V0) + delta)
    with pytest.raises(ArithmeticError, match=match):
        chebotarev_sample(f_closed(8, FieldElem(G4, 2)), make_field(2, base_e))

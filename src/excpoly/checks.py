"""The acceptance criteria, one function each.

Every function returns (ok, data): ok says whether the criterion holds and
data is the JSON-ready evidence.  The CLI suites (check-identities, certify,
weil, chebotarev, zeta, verify-all) report these pairs as their checks, and
the acceptance tests assert on the same pairs, so a CLI "pass" and a green
acceptance test mean one thing.  Grids and seeds are arguments or fixed
here; nothing is cached or written.
"""

import random

from .curves import (
    plane_model,
    quotient_relations_report,
    sl2_certificate,
    smoothness_check,
    verify_b_action,
    verify_product_identity,
    weil_contradiction_report,
    zeta,
)
from .exceptional import tower_scan
from .families import FamilySpec, canonicalize, dickson, f_closed, f_product, trace_poly
from .ff import FieldElem, log_p, make_field
from .monodromy import branch_points, coset_cycle_types, dist_compare
from .poly import UniPoly

# For each q: the extension degrees of the perm grid and the predicted
# bijectivity (None: nothing predicted, the scan is recorded).
PERM_GRIDS = {
    4: ([1, 2, 3], None),
    8: ([1, 2, 3, 4, 5], {1: True, 2: True, 3: False, 4: True, 5: True}),
}


def alpha_grid(q):
    """alpha over GF(2^4) minus F_2, and also over GF(2^6) minus F_2 for q = 8."""
    for e in (4, 6) if q == 8 else (4,):
        ctx = make_field(2, e)
        for i in range(2, ctx.order):
            yield FieldElem(ctx, i)


def alpha_field(q):
    """Coefficient field of the perm grid, the certificate and the action grid."""
    return make_field(2, 4 if q == 4 else 2)


# ---------------------------------------------------------------------------
# polynomial identities


def form_equality(q):
    """f_closed(q, alpha) == f_product(q, alpha + 1) on the alpha grid."""
    tried = 0
    for al in alpha_grid(q):
        if f_closed(q, al) != f_product(q, al + FieldElem(al.ctx, 1)):
            return False, {"q": q, "field_e": al.ctx.e, "alpha": al.i}
        tried += 1
    return True, {"q": q, "alphas": tried}


def structure_facts(q):
    """Monic of degree q(q-1)/2, divisible by T + alpha with an even
    quotient, and X-adic valuation 2 exactly when alpha lies in GF(q)."""
    deg = q * (q - 1) // 2
    for al in alpha_grid(q):
        ctx = al.ctx
        f = f_closed(q, al)
        if not (f.is_monic() and f.degree == deg):
            return False, {"alpha": al.i, "what": "degree"}
        quo, rem = divmod(f, trace_poly(q, ctx) + UniPoly.const(ctx, al.i))
        if not rem.is_zero():
            return False, {"alpha": al.i, "what": "trace-divisor"}
        if any(quo.coeff(k) for k in range(1, quo.degree + 1, 2)):
            return False, {"alpha": al.i, "what": "even-quotient"}
        v = 0
        while not f.coeff(v):
            v += 1
        if (v == 2) != (ctx.pow_(al.i, q) == al.i):
            return False, {"alpha": al.i, "what": "x2-valuation", "v": v}
    return True, {"q": q}


def product_identity(q):
    """The product identity holds and its mutation control fails."""
    good = verify_product_identity(q)
    mutated = verify_product_identity(q, mutate=True)
    return good and not mutated, {"q": q, "identity": good, "mutation_fails": not mutated}


def dickson_identity(seed, samples):
    """D_d(y + a/y) = y^d + (a/y)^d at seeded points of GF(2^8) and GF(3^4);
    no sample checked is a failure, not a pass."""
    rng = random.Random(seed)
    fields = [make_field(2, 8), make_field(3, 4)]
    done = 0
    for _ in range(samples):
        ctx = fields[rng.randrange(2)]
        d = rng.randrange(1, 12)
        a = FieldElem(ctx, rng.randrange(1, ctx.order))
        y = FieldElem(ctx, rng.randrange(1, ctx.order))
        if dickson(d, a)(y + a / y) != y ** d + (a / y) ** d:
            return False, {"d": d, "alpha": a.i, "y": y.i}
        done += 1
    return done > 0, {"samples": done, "max_degree": 11}


def canonicalization(q, seed, trials):
    """canonicalize recovers (alpha, zeta, gamma, eta, delta) of seeded twists."""
    rng = random.Random(seed)
    ctxs = [make_field(2, 2), make_field(2, 4)] if q == 8 else [make_field(2, 4)]
    done = 0
    for _ in range(trials):
        ctx = ctxs[rng.randrange(len(ctxs))]
        al = FieldElem(ctx, rng.randrange(2, ctx.order))
        zeta_i = rng.randrange(1, ctx.order)
        gamma_i = rng.randrange(ctx.order)
        eta_i = rng.randrange(1, ctx.order)
        delta_i = rng.randrange(ctx.order)
        lin = UniPoly(ctx, (gamma_i, zeta_i))
        g = f_closed(q, al).compose(lin).scale(eta_i) + UniPoly.const(ctx, delta_i)
        cf = canonicalize(g, q)
        got = (cf.alpha.i, cf.zeta.i, cf.gamma.i, cf.eta.i, cf.delta.i)
        want = (al.i, zeta_i, gamma_i, eta_i, delta_i)
        if got != want:
            return False, {"want": want, "got": got, "field_e": ctx.e}
        done += 1
    return True, {"trials": done, "q": q}


def perm_grid(q, threads=1):
    """Bijectivity of char2_new at alpha = 2 up the PERM_GRIDS tower."""
    degrees, want = PERM_GRIDS[q]
    actx = alpha_field(q)
    spec = FamilySpec(kind="char2_new", q=q, alpha=FieldElem(actx, 2))
    rep = tower_scan(spec, actx, degrees, threads=threads)
    got = {j: ok for j, ok, _ in rep.rows}
    return want is None or got == want, rep.to_json()


# ---------------------------------------------------------------------------
# curves


def certificate(q, alpha):
    """The four-step change-of-variables certificate at alpha."""
    rep = sl2_certificate(q, alpha)
    return rep["ok"], rep


def action_grid(q, seed):
    """verify_b_action and quotient_relations_report on a seeded 10-point
    grid whose first point has beta^2 = alpha^2 + alpha."""
    rng = random.Random(seed)
    actx = alpha_field(q)
    points = [(rng.randrange(2, actx.order), rng.randrange(1, actx.order))
              for _ in range(10)]
    results = []
    for k, (a, b) in enumerate(points):
        alpha = FieldElem(actx, a)
        if k == 0:
            beta = FieldElem(actx, actx.sqrt_(actx.add(actx.mul(a, a), a)))
        else:
            beta = FieldElem(actx, b)
        if not beta.i:
            beta = FieldElem(actx, 1)
        ok_b = verify_b_action(q, alpha, beta)
        ok_q = quotient_relations_report(q, alpha, beta)["ok"]
        results.append({"alpha": alpha.i, "beta": beta.i, "b_action": ok_b,
                        "quotient": ok_q})
        if not (ok_b and ok_q):
            return False, {"points": results}
    return True, {"points": results}


def smoothness(q):
    """The plane model over GF(16) is smooth exactly when c lies outside F_2."""
    ctx = make_field(2, 4)
    rows = []
    for c in range(ctx.order):
        smooth, sing = smoothness_check(plane_model(q, FieldElem(ctx, c), allow_singular=True))
        rows.append({"c": c, "smooth": smooth, "singular_points": len(sing)})
    ok = all(row["smooth"] == (row["c"] not in (0, 1)) for row in rows)
    return ok, {"q": q, "rows": rows}


def zeta_representative(threads=1):
    """Zeta data of the q = 4 curve at c = 2 in GF(16); it must be ordinary."""
    zd = zeta(plane_model(4, FieldElem(make_field(2, 4), 2)), 6, threads=threads)
    return zd.p_rank == zd.g, {"c": 2, "counts": list(zd.counts),
                               "L": list(zd.L), "p_rank": zd.p_rank}


def zeta_summary(body):
    """A q = 4 zeta JSON body (fresh or cached): 13 L-coefficients, ordinary."""
    return (len(body["L"]) == 13 and body["p_rank"] == body["g"],
            {"g": body["g"], "p_rank": body["p_rank"], "L": body["L"],
             "counts": body["counts"]})


def weil_headline(rep):
    """The first check of the first divisor case must break the Weil bound."""
    head = rep["cases"][0]["checks"][0]
    return head["violates"], head


def weil_cases(rep):
    """Every divisor case of the report has a violating candidate."""
    return rep["all_cases_violated"], {"cases": rep["cases"]}


def weil_contradiction(q):
    """The headline and every divisor case of weil_contradiction_report(q)."""
    rep = weil_contradiction_report(q)
    return weil_headline(rep)[0] and weil_cases(rep)[0], rep


# ---------------------------------------------------------------------------
# fiber shapes over GF(4^j)


def _coset(q, j):
    return (2 * j) % log_p(q, 2)


def shape_inclusion(dist, q, j):
    """Every unramified fiber shape over GF(4^j) is a cycle type of the
    Frobenius coset.  Raises ValueError when every fiber is ramified."""
    coset = coset_cycle_types(q, _coset(q, j))
    extra = sorted(list(s) for s in dist.unramified().support() - coset.support())
    return not extra, {"j": j, "coset": _coset(q, j), "foreign_shapes": extra,
                       "shapes": len(dist.entries)}


def tv_distance(dist, q, j):
    """TV distance of the unramified shapes from the coset types; ok up to 0.05."""
    tv = dist_compare(dist.unramified(), coset_cycle_types(q, _coset(q, j)))
    return float(tv) <= 0.05, {"j": j, "tv": str(tv), "tv_float": float(tv),
                               "threshold": 0.05}


def branch_point(f, j):
    """f has exactly one finite branch point over GF(4^j)."""
    bps = branch_points(f, make_field(2, 2 * j))
    return len(bps) == 1, {"j": j, "finite_branch_t": [b.i for b in bps]}

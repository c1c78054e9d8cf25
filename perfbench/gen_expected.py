"""Generate and cross-validate the benchmark's expected data.

Run once from the repository root, with the package on the path:

    PYTHONPATH=src python3 perfbench/gen_expected.py

It writes perfbench/expected/{zeta,shape,cli}.json after these checks:

- zeta: counts for every smooth c in GF(16) and m <= 5, equal across each
  Frobenius orbit; per-z, brute and fiber strategies agree for m <= 3; the
  m = 6 count of each orbit representative completes a validated zeta; the
  orbit of c = 6 reproduces C6_COUNTS and C6_L from tests/test_acceptance.py.
- shape: per-fiber shapes over GF(4^7) aggregate to the exhaustive
  chebotarev_sample result and agree with direct factorization on a seeded
  subset; the GF(4^6) distribution passes the inclusion, branch-point and
  total-variation checks the workload makes.
- cli: two runs of every command variant give identical reports once the
  seconds fields are removed; only the q = 4 weil guard exits non-zero.

Finally one pass of each workload runs against the new data and must have
no failed verdict.  This takes about ten minutes on one core.
"""

import ast
import json
import os
import random
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402

import excpoly  # noqa: E402
from excpoly import (  # noqa: E402
    FieldElem,
    branch_points,
    chebotarev_sample,
    coset_cycle_types,
    count_points,
    dist_compare,
    embed,
    f_closed,
    factor,
    make_field,
    plane_model,
    zeta,
)
from excpoly.monodromy import _shapes_for  # noqa: E402


def log(msg):
    print("[%7.1f s] %s" % (time.perf_counter() - T0, msg), flush=True)


def require(cond, msg):
    if not cond:
        raise SystemExit("cross-validation failed: " + msg)


def acceptance_constants():
    path = os.path.join("tests", "test_acceptance.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("C6_COUNTS", "C6_L"):
                out[name] = list(ast.literal_eval(node.value))
    return out["C6_COUNTS"], out["C6_L"]


def frobenius_orbits(mul):
    """Orbits of GF(16) minus F_2 under c -> c^2, each sorted."""
    orbits, seen = [], set()
    for c in range(2, 16):
        if c in seen:
            continue
        orb, x = [], c
        while x not in orb:
            orb.append(x)
            x = mul(x, x)
        orbits.append(sorted(orb))
        seen.update(orb)
    return orbits


def gen_zeta():
    g16 = make_field(2, 4)
    orbits = frobenius_orbits(g16.mul)
    require(sorted(sum(orbits, [])) == list(range(2, 16)), "orbits partition GF(16) - F_2")
    by_c = {}
    for c in range(2, 16):
        model = plane_model(4, FieldElem(g16, c))
        counts = [count_points(model, m) for m in range(1, 6)]
        for m in range(1, 4):
            perz = count_points(model, m, strategy="per-z")
            brute = count_points(model, m, strategy="brute")
            fiber = count_points(model, m, strategy="fiber")
            require(perz == brute == fiber == counts[m - 1],
                    "strategies disagree at c=%d m=%d" % (c, m))
        by_c[c] = counts
        log("zeta c=%d counts m<=5 %s" % (c, counts))
    c6_counts, c6_L = acceptance_constants()
    out = {}
    for orb in orbits:
        for c in orb:
            require(by_c[c] == by_c[orb[0]], "counts differ across orbit %s" % orb)
        n6 = count_points(plane_model(4, FieldElem(g16, orb[0])), 6)
        log("zeta orbit %s m=6 count %d" % (orb, n6))
        for c in orb:
            counts = by_c[c] + [n6]
            zd = zeta(plane_model(4, FieldElem(g16, c)), 6, counts=counts)
            out[str(c)] = {"counts": counts, "L": list(zd.L), "p_rank": zd.p_rank}
            require(zd.L == tuple(out[str(orb[0])]["L"]), "L differs across orbit")
            if 6 in orb:
                require(counts == c6_counts and list(zd.L) == c6_L,
                        "c=%d disagrees with C6_COUNTS/C6_L" % c)
    require("6" in out, "c = 6 covered")
    return {"orbits": orbits, "by_c": out}


def shape_of(fb, t):
    fac = factor(fb - excpoly.UniPoly.const(fb.ctx, t), seed=0)
    return tuple(sorted(g.degree for g, _ in fac.factors))


def gen_shape():
    g4 = make_field(2, 2)
    base6 = make_field(2, wl.ShapeSweep.exhaustive_e)
    base7 = make_field(2, wl.ShapeSweep.sampled_e)
    out = {}
    for alpha in (2, 3):
        f = f_closed(8, FieldElem(g4, alpha))
        d6 = chebotarev_sample(f, base6)
        coset6 = coset_cycle_types(8, base6.e % 3)
        require(not (d6.unramified().support() - coset6.support()), "inclusion 4^6")
        require(float(dist_compare(d6.unramified(), coset6)) <= 0.05, "TV 4^6")
        require([b.i for b in branch_points(f, base6)] == [0], "branch 4^6")
        fb = f.map_coeffs(embed(g4, base7))
        shapes = _shapes_for(fb, list(range(base7.order)))
        d7 = chebotarev_sample(f, base7)
        types = sorted(set(shapes))
        index = [types.index(s) for s in shapes]
        all_ts = list(range(base7.order))
        require(wl.sampled_dist(types, index, all_ts) == wl.dist_json(d7),
                "per-fiber table does not aggregate to the exhaustive 4^7 result")
        for t in random.Random(alpha).sample(all_ts, 24) + [0]:
            require(shape_of(fb, t) == shapes[t], "direct factor disagrees at t=%d" % t)
        coset7 = coset_cycle_types(8, base7.e % 3)
        require(not (d7.unramified().support() - coset7.support()), "inclusion 4^7")
        require([b.i for b in branch_points(f, base7)] == [0], "branch 4^7")
        out[str(alpha)] = {
            "exhaustive": wl.dist_json(d6),
            "sampled_types": [list(s) for s in types],
            "sampled_index": index,
        }
        log("shape alpha=%d: %d shapes over 4^6, %d over 4^7" % (
            alpha, len(d6.entries), len(types)))
    return {"by_alpha": out}


def cli_reports(variant):
    import excpoly.cli as cli
    shutil.rmtree(wl.CLI_CACHE, ignore_errors=True)
    out = {}
    try:
        for label, argv in wl.cli_commands(variant):
            if label == "chebotarev-corrupt":
                (entry,) = os.listdir(wl.CLI_CACHE)
                wl.flip_middle_byte(os.path.join(wl.CLI_CACHE, entry))
            code, report, _err = wl.run_cli(cli, argv)
            out[label] = {"exit": code, "report": report}
    finally:
        shutil.rmtree(wl.CLI_CACHE, ignore_errors=True)
    return out


def gen_cli():
    variants = []
    for v in range(len(wl.CLI_VARIANTS)):
        first, second = cli_reports(v), cli_reports(v)
        require(first == second, "CLI reports are not reproducible (variant %d)" % v)
        cheb = [first[k]["report"] for k in
                ("chebotarev-cold", "chebotarev-warm", "chebotarev-corrupt")]
        require(cheb[0] == cheb[1] == cheb[2], "cache changed a chebotarev report")
        for label, rec in first.items():
            want = 3 if label == "weil-4-guard" else 0
            require(rec["exit"] == want, "%s exited %s" % (label, rec["exit"]))
        variants.append(first)
        log("cli variant %d: %d commands" % (v, len(first)))
    return {"variants": variants}


def write(name, data):
    os.makedirs(wl.EXPECTED_DIR, exist_ok=True)
    path = os.path.join(wl.EXPECTED_DIR, name + ".json")
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    log("wrote " + path)


def self_check():
    for cls in wl.WORKLOADS.values():
        for seed in (1, 2):
            work = cls(seed)
            work.setup()
            tally = wl.Tally()
            work.run_pass(tally)
            require(tally.failed == 0, "%s seed %d: %s" % (cls.name, seed, tally.errors))
            log("%s seed %d: %d verdicts pass" % (cls.name, seed, tally.attempted))


T0 = time.perf_counter()

if __name__ == "__main__":
    if not os.path.isfile(os.path.join("src", "excpoly", "__init__.py")):
        raise SystemExit("run from the repository root")
    for part, gen in (("cli", gen_cli), ("shape", gen_shape), ("zeta", gen_zeta)):
        write(part, gen())
    self_check()

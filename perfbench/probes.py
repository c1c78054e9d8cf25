"""Fixed-input micro-probes of the kernels beneath the traced layers.

They run in the traced run only, in a process without the tracer, and time
the inner loops the tracer leaves alone: scalar GF(2^e) mul/inv with log tables
(GF(2^16)) against bit-serial arithmetic (GF(2^18)), and polynomial work on
one degree-28 fiber of f_closed(8, alpha) over GF(2^12): mul, divmod, gcd
with X^|base| - X, X^|base| mod the fiber, and full factorization.  Each
figure is the median over repeats of the mean time per call.
"""

import random
import statistics
import time

REPEATS = 5


def _per_call(fn, calls):
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples)


def field_probes():
    from excpoly.ff import TABLE_LIMIT, make_field
    out = {}
    rng = random.Random(20260822)
    # (label, e, muls, invs): bit-serial inversion costs about 200 muls
    for label, e, n, n_inv in (("table", 16, 20000, 20000), ("bitserial", 18, 4000, 200)):
        ctx = make_field(2, e)
        if (ctx.order <= TABLE_LIMIT) != (label == "table"):
            raise AssertionError("GF(2^%d) is not a %s field" % (e, label))
        xs = [rng.randrange(1, ctx.order) for _ in range(n)]
        zs = xs[:n_inv]
        ys = [rng.randrange(1, ctx.order) for _ in range(n)]
        mul, inv = ctx.mul, ctx.inv

        def muls():
            for a, b in zip(xs, ys):
                mul(a, b)

        def invs():
            for a in zs:
                inv(a)

        out["ff.mul.%s_ns" % label] = _per_call(muls, n) * 1e9
        out["ff.inv.%s_ns" % label] = _per_call(invs, n_inv) * 1e9
    return out


def poly_probes():
    from excpoly import FieldElem, UniPoly, embed, f_closed, factor, make_field
    g4 = make_field(2, 2)
    base = make_field(2, 12)
    fb = f_closed(8, FieldElem(g4, 2)).map_coeffs(embed(g4, base))
    h = fb - UniPoly.const(base, 7)
    g = fb - UniPoly.const(base, 11)
    x = UniPoly.X(base)
    wide = h * g + x
    # the distinct-degree step: gcd(h, X^|base| - X mod h)
    frob = x.pow_mod(base.order, h) - x
    if h.degree != 28:
        raise AssertionError("probe fiber has degree %d" % h.degree)

    def loop(fn, k):
        return lambda: [fn() for _ in range(k)]

    return {
        "poly.mul_us": _per_call(loop(lambda: h * g, 40), 40) * 1e6,
        "poly.divmod_us": _per_call(loop(lambda: divmod(wide, h), 40), 40) * 1e6,
        "poly.gcd_us": _per_call(loop(lambda: h.gcd(frob), 40), 40) * 1e6,
        "poly.powmod_us": _per_call(loop(lambda: x.pow_mod(base.order, h), 10), 10) * 1e6,
        "poly.factor_ms": _per_call(lambda: factor(h, seed=0), 1) * 1e3,
    }


def run_probes():
    return {**field_probes(), **poly_probes()}

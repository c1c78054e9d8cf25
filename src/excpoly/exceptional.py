"""Operational exceptionality checks: bijectivity over towers of extensions.

Each family carries an arithmetic criterion on the base field that predicts
whether the member is exceptional (bijective on infinitely many finite
extensions).  This module computes both sides independently:

* `exceptionality_verdict` evaluates the predicted criterion exactly, using
  only gcd arithmetic, root-of-unity enumeration, and orders in finite
  cyclic groups.
* `is_permutation` and `tower_scan` measure actual bijectivity by
  exhaustive evaluation over concrete fields, reporting a reproducible
  collision witness whenever a map fails to be injective.  Characteristic 2
  is evaluated on ff.VecField, odd characteristic per element.

Keeping the two sides independent lets tests confront prediction with
measurement instead of asserting one in terms of the other.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .families import FamilySpec, _require
from .ff import (MAX_ORDER, VEC_CHUNK, FieldCtx, FieldElem, _eval, _fan_out, is_prime, lift,
                 log_p, make_field, prime_factors)

#: Below this many elements a parallel scan costs more than it saves.
_PARALLEL_FLOOR = 1 << 12


# ---------------------------------------------------------------------------
# exhaustive permutation testing


def _eval_block(ctx, coeffs, lo, hi):
    """Value indices f(x) for x-index in [lo, hi), in index order."""
    return array("i", [_eval(ctx, coeffs, x) for x in range(lo, hi)])


def _vector_blocks(coeffs, field):
    """(lo, values) blocks of f(x) over a characteristic-2 field, in index
    order, by one vectorized Horner pass per VEC_CHUNK elements."""
    vf = field.vec
    for lo in range(0, field.order, VEC_CHUNK):
        x = np.arange(lo, min(lo + VEC_CHUNK, field.order), dtype=np.int64)
        acc = np.zeros_like(x)
        for c in reversed(coeffs):
            acc = vf.mul(acc, x) ^ c
        yield lo, acc.tolist()


def is_permutation(f, field, threads=1):
    """Exhaustively test whether f permutes the given field.

    Returns (True, None) when f is a bijection, else (False, (x1, x2)) with
    f(x1) = f(x2) and x1 != x2.  The witness is the first collision in
    index order (x2 minimal, then x1), so reruns and different thread
    counts produce the identical pair.  threads sets the worker processes
    of an odd-characteristic scan; characteristic 2 runs vectorized in
    this process.
    """
    g = lift(f, field)
    if field.p == 2:
        blocks = _vector_blocks(g.c, field)
    else:
        # odd characteristic: one contiguous span per worker, in domain order
        n = field.order
        step = -(-n // threads) if threads > 1 and n >= _PARALLEL_FLOOR else n
        los = range(0, n, step)
        blocks = zip(los, _fan_out(
            _eval_block, [(field, g.c, lo, min(lo + step, n)) for lo in los], threads))
    first = array("i", [-1]) * field.order
    for lo, vals in blocks:
        for x, v in enumerate(vals, lo):
            w = first[v]
            if w >= 0:
                return False, (FieldElem(field, w), FieldElem(field, x))
            first[v] = x
    return True, None


# ---------------------------------------------------------------------------
# predicted verdicts


def _mult_order(ctx, a, bound):
    """Multiplicative order of the unit with packed index a.

    `bound` must be a multiple of the order (here always a divisor of the
    unit group order); an ArithmeticError says it is not.
    """
    if a == 0 or ctx.pow_(a, bound) != 1:
        raise ArithmeticError(f"{bound} is not a multiple of the order of {a}")
    t = bound
    for ell in prime_factors(bound):
        while t % ell == 0 and ctx.pow_(a, t // ell) == 1:
            t //= ell
    return t


def _verdict_power(spec, base):
    d = spec.d
    _require(d is not None and is_prime(d), "power family needs a prime degree")
    _require(d != base.p, "degree must differ from the characteristic")
    # X^d is bijective on k exactly when 1 is the only d-th root of unity
    # in k; the d-th roots of unity in a cyclic group of order s-1 number
    # gcd(d, s-1).
    return math.gcd(d, base.order - 1) == 1


def _verdict_dickson(spec, base):
    d = spec.d
    p = base.p
    _require(d is not None and is_prime(d), "dickson family needs a prime degree")
    _require(d != p, "degree must differ from the characteristic")
    _require(spec.alpha is not None and spec.alpha.i != 0, "dickson family needs a unit alpha")
    s = base.order
    verdict = math.gcd(d, s * s - 1) == 1
    if s * s > MAX_ORDER:
        return verdict
    # cross-check by enumeration: any zeta with zeta + 1/zeta in k satisfies
    # a quadratic over k, so all candidates live in GF(s^2); enumerate the
    # primitive d-th roots of unity there (d prime: all d-1 of them, or none).
    big = make_field(p, 2 * base.e)
    hit = False
    if (big.order - 1) % d == 0:
        z0 = big.pow_(big.gen, (big.order - 1) // d)
        z = z0
        for _ in range(d - 1):
            c = big.add(z, big.inv(z))
            if big.pow_(c, s) == c:
                hit = True
            z = big.mul(z, z0)
    if hit == verdict:
        raise ArithmeticError(f"Dickson verdict {verdict} disagrees with the enumeration")
    return verdict


def _verdict_char2_tower(spec, base):
    """Shared criterion for the char-2 families of degree q(q-1)/2 and
    X(sum (alpha X^n)^{2^i - 1})^{(q+1)/n}: the exponent e must be odd and
    the base field must meet GF(q) in GF(2) only."""
    _require(base.p == 2, "base field must have characteristic 2")
    q = spec.q
    _require(q is not None and q >= 4, "family needs q = 2^e with e >= 2")
    e = log_p(q, 2)
    a = spec.alpha
    if spec.kind == "char2_new":
        _require(a is not None and a.i not in (0, 1), "alpha must lie outside F_2")
    else:
        n = spec.n
        _require(n is not None and n >= 1 and (q + 1) % n == 0, "n must divide q + 1")
        _require(a is not None and a.i != 0, "alpha must be a unit")
    # GF(2^m) meets GF(2^e) in GF(2^gcd(m, e))
    return e % 2 == 1 and math.gcd(base.e, e) == 1


def _verdict_char3(spec, base):
    _require(base.p == 3, "base field must have characteristic 3")
    q = spec.q
    _require(q is not None and q >= 9, "family needs q = 3^e with e >= 2")
    e = log_p(q, 3)
    _require(e % 2 == 1, "q + 1 is divisible by 4 only for odd e")
    n = spec.n
    _require(n is not None and n >= 1 and (q + 1) % (4 * n) == 0, "n must divide (q+1)/4")
    a = spec.alpha
    _require(a is not None and a.i != 0, "alpha must be a unit")
    _require(base.e % a.ctx.e == 0, "alpha does not embed in the base field")
    aidx = lift(a, base).i
    s = base.order
    dd = math.gcd(2 * n, s - 1)
    # k*/(k*)^{2n} is cyclic of order dd; a coset is trivial exactly when
    # its representative is killed by (s-1)/dd, so the image of alpha has
    # the same order as alpha^{(s-1)/dd} in k*.
    beta = base.pow_(aidx, (s - 1) // dd)
    t = 1 if beta == 1 else _mult_order(base, beta, dd)
    if s <= 1 << 12:
        # brute-force discrete-log cross-check in the cyclic group k*
        cur, lg = 1, 0
        while cur != aidx:
            cur = base.mul(cur, base.gen)
            lg += 1
        if t != dd // math.gcd(dd, lg):
            raise ArithmeticError(f"order {t} of alpha's class disagrees with its discrete log")
    return t % 2 == 0 and math.gcd(base.e, e) == 1


# the criterion of each family kind; FamilySpec has already checked the kind
_VERDICTS = {
    "power": _verdict_power,
    "dickson": _verdict_dickson,
    "char2_new": _verdict_char2_tower,
    "char2_additive_twist": _verdict_char2_tower,
    "char3_twist": _verdict_char3,
}


def exceptionality_verdict(spec, base):
    """Predicted exceptionality of the family member over the base field.

    Evaluates the arithmetic criterion attached to the family kind; raises
    ValueError when the spec parameters are invalid or incompatible with
    the base.  Criteria that mention alpha only through membership in the
    coefficient field are evaluated without embedding it into the base.
    """
    sf = spec.base_field()
    _require(sf.p == base.p, "spec and base have different characteristics")
    return _VERDICTS[spec.kind](spec, base)


# ---------------------------------------------------------------------------
# tower scans


@dataclass(frozen=True)
class PermReport:
    """Bijectivity verdicts for one family member over a tower of fields.

    rows holds (j, bijective, witness) triples: extension degree j over the
    base, the exhaustive verdict on GF(base.order^j), and a collision pair
    when the verdict is negative.
    """

    spec: FamilySpec
    base: FieldCtx
    rows: tuple

    def to_json(self):
        rows = [{"j": j, "bijective": ok} for j, ok, _ in self.rows]
        wits = []
        for j, ok, wit in self.rows:
            if wit is not None:
                x1, x2 = wit
                wits.append({"j": j, "x1": x1.i, "x2": x2.i})
        return {
            "spec": self.spec.to_json(),
            "base": self.base.to_json(),
            "rows": rows,
            "witnesses": wits,
        }


def tower_scan(spec, base, degrees, threads=1):
    """Test bijectivity of the family member over GF(base.order^j) for each
    requested extension degree j, exhaustively."""
    f = spec.build()
    rows = []
    for j in degrees:
        j = int(j)
        _require(j >= 1, "extension degrees must be positive")
        # p >= 2, so p^(e j) >= 2^(e j) exceeds the guard once e j reaches its
        # bit length; only smaller powers are formed
        if base.e * j >= MAX_ORDER.bit_length() or base.p ** (base.e * j) > MAX_ORDER:
            raise ValueError(f"extension degree {j} exceeds the size guard {MAX_ORDER}")
        ext = make_field(base.p, base.e * j)
        ok, wit = is_permutation(f, ext, threads=threads)
        rows.append((j, ok, wit))
    return PermReport(spec=spec, base=base, rows=tuple(rows))

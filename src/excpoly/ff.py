"""Finite field contexts with integer-packed elements.

An element sum_i c_i x^i of GF(p^e) packs into the integer sum_i c_i p^i,
so for p = 2 the packing is the plain bitmask and addition is xor.  A
context caches discrete-log tables when the field has at most 2^16
elements, falls back to carryless multiplication for larger
characteristic-2 fields, and uses digit schoolbook arithmetic otherwise.

VecField is the one numpy kernel for GF(2^e), built once per context as
ctx.vec: log/exp lookups where the context has tables, carry-less byte
tables above 2^16.  Its log table gives 0 the sentinel 2(2^e - 1), which
an exp table one slot longer clips to 0, so a product takes no zero mask.
Counts, shape engine, orbits and scans all run on it.  Over GF(2^e), e > 1,
the tables are built by shifting x^i and folding in the modulus.

The raw polynomial kernels on coefficient lists live here too, shared by
poly and the modulus checks.  Modular powers (_powmod) take each p-th
power as a semilinear map: (sum a_i X^i)^p = sum a_i^p X^(p*i) in
characteristic p, so with the rows X^(p*i) mod g tabled once (_frob_rows),
a^p mod g (_frobmod) is a coefficient power per term plus a sum of rows.
Over GF(2^e), e > 1, the rows form an int64 (m, m) array, m = deg g, and
the step is three numpy operations on ctx.vec (squares, one product against
the rows, an XOR-reduce) instead of the 2 m^2 scalar products of a square
and its reduction.  Binary square-and-multiply is the reference for it in
tests/test_frobenius.py.  The one equal-degree splitter, _edf,
serves poly.factor and poly.roots and roots the moduli for embeddings, and
_fan_out is the one process fan-out behind --threads.

Checks raise named errors, never assert: ValueError for bad arguments
(mixed fields, wrong embedding domains), ArithmeticError for a broken
internal invariant.

The integer helpers prime_factors and is_prime serve the modulus checks
here and the verdicts in excpoly.exceptional with the standard library
alone: trial division on 1 <= n <= MAX_ORDER, and Miller-Rabin on the
first 13 prime bases, a proof of primality below 3.3 * 10^24.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import random

import numpy as np

__all__ = [
    "FieldCtx",
    "FieldElem",
    "VecField",
    "Embedding",
    "make_field",
    "embed",
    "lift",
    "log_p",
    "field_from_json",
    "prime_factors",
    "is_prime",
]

TABLE_LIMIT = 1 << 16
MAX_ORDER = 1 << 26

# Conway polynomials, low-degree coefficient first, leading 1 included.
# Only entries known to be right are listed; make_field falls back to the
# deterministic search for anything else.
CONWAY = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),
}


# ---------------------------------------------------------------------------
# integer helpers

def prime_factors(n):
    """Sorted distinct primes dividing n, for 1 <= n <= MAX_ORDER.

    Trial division: with n at most 2^26 the divisors tried stay below 8192.
    """
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"prime_factors covers 1 <= n <= 2^26, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# Miller-Rabin on these bases decides primality for every n below the bound
# (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n):
    """Whether the integer n is prime, by deterministic Miller-Rabin.

    A ValueError names n at or above 3317044064679887385961981 (about
    3.3 * 10^24), where the 13 fixed bases stop being a proof.
    """
    if n >= _MR_BOUND:
        raise ValueError(f"is_prime is certified below 3.3 * 10^24, got {n}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _size_guard(p, e):
    """A ValueError when GF(p^e), p > 1, has more than MAX_ORDER elements;
    p^e is formed only once p and e are known to be small."""
    if p > 1 and (p > MAX_ORDER or e > 26 or p**e > MAX_ORDER):
        raise ValueError(f"GF({p}^{e}) exceeds the size guard 2^26")


# ---------------------------------------------------------------------------
# raw kernels on coefficient lists (low degree first, may carry trailing zeros)
# over any context; poly wraps them, and the modulus checks run them over GF(p)

def _norm(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _add(ctx, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = ctx.add(out[i], c)
    return _norm(out)


def _neg(ctx, a):
    if ctx.p == 2:
        return list(a)
    return [ctx.neg(c) for c in a]


def _sub(ctx, a, b):
    return _add(ctx, a, _neg(ctx, b))


def _mul(ctx, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    cmul = ctx.mul
    cadd = ctx.add
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = cadd(out[i + j], cmul(ai, bj))
    return _norm(out)


def _divmod(ctx, a, b):
    b = _norm(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db = len(b) - 1
    inv_lead = ctx.inv(b[-1])
    q = [0] * max(len(a) - db, 0)
    while len(_norm(a)) - 1 >= db:
        lead = a[-1]
        k = len(a) - 1 - db
        coef = ctx.mul(lead, inv_lead)
        q[k] = coef
        for i in range(db):
            a[k + i] = ctx.sub(a[k + i], ctx.mul(coef, b[i]))
        a.pop()
    return _norm(q), _norm(a)


def _mod(ctx, a, b):
    return _divmod(ctx, a, b)[1]


def _monic(ctx, a):
    if not a or a[-1] == 1:
        return list(a)
    inv = ctx.inv(a[-1])
    return [ctx.mul(c, inv) for c in a]


def _gcd(ctx, a, b):
    a = _norm(list(a))
    b = _norm(list(b))
    while b:
        a, b = b, _mod(ctx, a, b)
    return _monic(ctx, a)


def _frob_rows(ctx, g):
    """rows[i] = X^(p*i) mod g for i < deg g, the table behind _frobmod.

    Built on the monic associate of g, which leaves every remainder
    unchanged; row i + 1 is row i times X^p: p shifts, each folding the
    overflow back by one multiple of g.  Over GF(2^e), e > 1, the table is
    an int64 (m, m) array for the vector step of _frobmod; over GF(2), with
    bits for coefficients, the list loop is the faster one.
    """
    g = _monic(ctx, _norm(list(g)))
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    m = len(g) - 1
    cmul, csub = ctx.mul, ctx.sub
    rows = []
    cur = [1] + [0] * (m - 1)
    for _ in range(m):
        rows.append(list(cur))
        for _ in range(ctx.p):
            lead = cur[-1]
            cur = [0] + cur[:-1]
            if lead:
                for j in range(m):
                    cur[j] = csub(cur[j], cmul(lead, g[j]))
    if ctx.p == 2 and ctx.e > 1:
        return np.array(rows, dtype=np.int64).reshape(m, m)
    return list(map(_norm, rows))


def _frobmod(ctx, a, rows):
    """a^p mod g for a reduced mod g, with rows = _frob_rows(ctx, g).

    In characteristic p, (sum a_i X^i)^p = sum a_i^p X^(p*i), so the p-th
    power is semilinear: raise each coefficient, then add the rows.  On an
    array table that is three numpy steps on ctx.vec: square, one product
    with rows[:len(a)], XOR-reduce.  On a list table the rows with p*i < m
    are unit vectors, so those coefficients are placed directly.
    """
    m = len(rows)
    p = ctx.p
    if isinstance(rows, np.ndarray):
        c = ctx.vec.sq(np.array(a, dtype=np.int64))[:, None]
        return _norm(np.bitwise_xor.reduce(ctx.vec.mul(c, rows[: len(a)]), axis=0).tolist())
    frob, cmul, cadd = ctx.frob, ctx.mul, ctx.add
    out = [0] * m
    for i, c in enumerate(a):
        if not c:
            continue
        c = frob(c)
        if p * i < m:
            out[p * i] = c
            continue
        for j, rj in enumerate(rows[i]):
            if rj:
                out[j] = cadd(out[j], cmul(c, rj))
    return _norm(out)


def _powmod(ctx, a, n, f, rows=None):
    """a^n mod f, by the base-p digits of n from the top.

    Each digit costs one _frobmod step (a vector pass over GF(2^e), e > 1,
    else at most m^2 products, against 2 m^2 for a square and reduction)
    plus one modular product by a^digit when the digit is nonzero.  rows,
    when given, must be _frob_rows(ctx, f); callers that reduce many
    powers modulo one f pass it.  n = 0 gives [1] for every nonzero f.
    """
    a = _mod(ctx, a, f)
    if n < 0:
        raise ValueError(f"exponent {n} must be non-negative")
    if n == 0:
        return [1]
    if not a:
        return []
    if rows is None:
        rows = _frob_rows(ctx, f)
    p = ctx.p
    digits = []
    while n:
        n, d = divmod(n, p)
        digits.append(d)
    pw = [[1], a]
    for _ in range(2, p):
        pw.append(_mod(ctx, _mul(ctx, pw[-1], a), f))
    r = pw[digits.pop()]
    while digits:
        r = _frobmod(ctx, r, rows)
        d = digits.pop()
        if d:
            r = _mod(ctx, _mul(ctx, r, pw[d]), f)
    return r


def _eval(ctx, a, x):
    mul = ctx.mul
    add = ctx.add
    acc = 0
    for c in reversed(a):
        acc = add(mul(acc, x), c)
    return acc


def _deriv(ctx, a):
    out = []
    for i in range(1, len(a)):
        out.append(ctx.mul(a[i], i % ctx.p))
    return _norm(out)


def _trace_map(ctx, r, k, g, rows):
    """r + r^2 + r^4 + ... + r^(2^(k-1)) mod g, in characteristic 2.

    The k - 1 squarings are _frobmod steps on rows = _frob_rows(ctx, g).
    """
    t = _mod(ctx, r, g)
    s = t
    for _ in range(k - 1):
        t = _frobmod(ctx, t, rows)
        s = _add(ctx, s, t)
    return s


def _edf(ctx, g, d, rng):
    """The monic irreducible factors, as lists, of a monic squarefree g whose
    factors all have degree d (Cantor-Zassenhaus).  Each draw of deg g
    coefficients r from rng (skipped below degree 1) splits g by a gcd with
    the trace map of r (p = 2) or with r^((Q^d - 1) / 2) - 1; the monic gcd
    goes left, its cofactor right, so the list depends on the seed alone.
    """
    n = len(g) - 1
    if n == d:
        return [g]
    rows = _frob_rows(ctx, g)
    while True:
        r = _norm([rng.randrange(ctx.order) for _ in range(n)])
        if len(r) < 2:
            continue
        if ctx.p == 2:
            s = _trace_map(ctx, r, ctx.e * d, g, rows)
        else:
            s = _sub(ctx, _powmod(ctx, r, (ctx.order**d - 1) // 2, g, rows), [1])
        h = _gcd(ctx, g, s)
        if 0 < len(h) - 1 < n:
            right, rem = _divmod(ctx, g, h)
            if rem:
                raise ArithmeticError("division was not exact")
            return _edf(ctx, h, d, rng) + _edf(ctx, right, d, rng)


def _is_irreducible(f, pf):
    # f monic of degree >= 2 over the prime field pf
    e = len(f) - 1
    x = [0, 1]
    rows = _frob_rows(pf, f)
    if _powmod(pf, x, pf.order**e, f, rows) != x:
        return False
    for r in prime_factors(e):
        h = _sub(pf, _powmod(pf, x, pf.order ** (e // r), f, rows), x)
        if len(_gcd(pf, h, f)) != 1:
            return False
    return True


def _is_primitive(f, pf, unit_factors):
    # f monic irreducible of degree >= 2; is the class of x a generator of the units?
    n = pf.order ** (len(f) - 1) - 1
    rows = _frob_rows(pf, f)
    return all(_powmod(pf, [0, 1], n // r, f, rows) != [1] for r in unit_factors)


def _digits(n, p, e):
    out = []
    for _ in range(e):
        out.append(n % p)
        n //= p
    return out


def _search_modulus(p, e):
    """First (by integer encoding) monic primitive irreducible of degree e >= 2."""
    pf = make_field(p, 1)
    n = p**e - 1
    unit_factors = prime_factors(n)
    for c in range(p**e):
        f = _digits(c, p, e) + [1]
        if any(_eval(pf, f, a) == 0 for a in range(p)):
            continue  # a root in GF(p): reducible
        if _is_irreducible(f, pf) and _is_primitive(f, pf, unit_factors):
            return tuple(f)
    raise RuntimeError(f"no primitive polynomial of degree {e} over GF({p})")


# ---------------------------------------------------------------------------

class FieldCtx:
    """Arithmetic context for GF(p^e) under a fixed primitive modulus.

    All operations take and return packed integer indices.  Use
    ``ctx(i)`` for a wrapped :class:`FieldElem` when operator syntax is
    nicer than explicit calls.
    """

    def __init__(self, p, e, modulus):
        if e < 1:
            raise ValueError(f"e = {e} must be positive")
        _size_guard(p, e)
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        order = p**e
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != e + 1 or modulus[e] != 1:
            raise ValueError("modulus must be monic of degree e")
        self.p = p
        self.e = e
        self.order = order
        self.modulus = modulus
        n = order - 1
        self._unit_factors = prime_factors(n)
        # the class of x generates the units; for e = 1 that class is -c0
        self.gen = (p - modulus[0]) % p if e == 1 else p
        if e == 1:
            primitive = self.gen != 0 and all(
                pow(self.gen, n // r, p) != 1 for r in self._unit_factors)
        else:
            self._pf = make_field(p, 1)
            if not _is_irreducible(list(modulus), self._pf):
                raise ValueError(f"modulus {modulus} is reducible over GF({p})")
            primitive = _is_primitive(list(modulus), self._pf, self._unit_factors)
        if not primitive:
            raise ValueError(f"modulus {modulus} is not primitive")
        if p == 2:
            self._mask = sum(bit << i for i, bit in enumerate(modulus))
        self._exp = None
        self._log = None
        self._vec = None
        if order <= TABLE_LIMIT:
            self._build_tables()

    # -- construction of the discrete-log tables

    def _build_tables(self):
        n = self.order - 1
        exp = [0] * (2 * n if n else 1)
        log = [-1] * self.order
        cur = 1
        for i in range(n):
            if log[cur] != -1:
                raise ArithmeticError("generator closed early; modulus not primitive")
            exp[i] = cur
            exp[i + n] = cur
            log[cur] = i
            if self.p == 2 and self.e > 1:
                # the generator is x: shift, and fold x^e back in by the modulus
                cur <<= 1
                if cur >> self.e:
                    cur ^= self._mask
            else:
                cur = self._mul_raw(cur, self.gen)
        if cur != 1:
            raise ArithmeticError("generator order does not divide p^e - 1")
        self._exp = exp
        self._log = log

    # -- raw arithmetic on packed indices

    def _mul_raw(self, a, b):
        if self.p == 2:
            r = 0
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
            return self._reduce2(r)
        if self.e == 1:
            return a * b % self.p
        ad = _digits(a, self.p, self.e)
        bd = _digits(b, self.p, self.e)
        # b leads: _mul skips zero digits of its first factor, and the table
        # build passes b = x, a single digit
        prod = _mod(self._pf, _mul(self._pf, bd, ad), self.modulus)
        out = 0
        for c in reversed(prod):
            out = out * self.p + c
        return out

    def _reduce2(self, r):
        e = self.e
        m = self._mask
        for i in range(r.bit_length() - 1, e - 1, -1):
            if (r >> i) & 1:
                r ^= m << (i - e)
        return r

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        p = self.p
        if self.e == 1:
            return (a + b) % p
        out = 0
        mult = 1
        for _ in range(self.e):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a):
        if self.p == 2:
            return a
        p = self.p
        if self.e == 1:
            return -a % p
        out = 0
        mult = 1
        for _ in range(self.e):
            out += ((-a) % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a, b):
        if self.p == 2:
            return a ^ b
        if self.e == 1:
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        if self._log is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_raw(a, b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._log is not None:
            return self._exp[self.order - 1 - self._log[a]]
        return self.pow_(a, self.order - 2)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow_(self, a, k):
        k = int(k)
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0
        n = self.order - 1
        if self._log is not None:
            return self._exp[(self._log[a] * k) % n]
        k %= n
        r = 1
        base = a
        while k:
            if k & 1:
                r = base if r == 1 else self._mul_raw(r, base)
            k >>= 1
            if k:
                base = self._mul_raw(base, base)
        return r

    def frob(self, a):
        return self.pow_(a, self.p)

    def sqrt_(self, a):
        """Square root; unique in characteristic 2."""
        if self.p != 2:
            raise ValueError(f"square roots are unique only in characteristic 2, not in {self!r}")
        return self.pow_(a, self.order >> 1)

    # -- packing helpers

    def coeffs(self, a):
        return _digits(a, self.p, self.e)

    def elements(self):
        return range(self.order)

    @property
    def vec(self):
        """The VecField of this characteristic-2 context, built on first use."""
        if self._vec is None:
            self._vec = VecField(self)
        return self._vec

    # -- plumbing

    def __call__(self, i):
        return FieldElem(self, _index(self, i))

    @property
    def zero(self):
        return FieldElem(self, 0)

    @property
    def one(self):
        return FieldElem(self, 1)

    def to_json(self):
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}

    def __reduce__(self):
        # pickles (for worker processes) carry the wire form, not log tables
        return field_from_json, (self.to_json(),)

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"GF({self.order})"


def _same_field(ctx, other):
    """A ValueError unless the two contexts are the same field."""
    if ctx is not other and ctx != other:
        raise ValueError(f"mixed fields: {ctx!r} and {other!r}")


def _index(ctx, a):
    """The packed index of a scalar of ctx: a FieldElem of that field, or an
    int in [0, ctx.order); a ValueError otherwise."""
    if isinstance(a, FieldElem):
        _same_field(ctx, a.ctx)
        return a.i
    i = int(a)
    if not 0 <= i < ctx.order:
        raise ValueError(f"index {i} out of range for {ctx!r}")
    return i


class FieldElem:
    """One field element: a context plus its packed index."""

    __slots__ = ("ctx", "i")

    def __init__(self, ctx, i):
        self.ctx = ctx
        self.i = i

    @property
    def coeffs(self):
        return self.ctx.coeffs(self.i)

    def __add__(self, other):
        _same_field(self.ctx, other.ctx)
        return FieldElem(self.ctx, self.ctx.add(self.i, other.i))

    def __sub__(self, other):
        _same_field(self.ctx, other.ctx)
        return FieldElem(self.ctx, self.ctx.sub(self.i, other.i))

    def __neg__(self):
        return FieldElem(self.ctx, self.ctx.neg(self.i))

    def __mul__(self, other):
        _same_field(self.ctx, other.ctx)
        return FieldElem(self.ctx, self.ctx.mul(self.i, other.i))

    def __truediv__(self, other):
        _same_field(self.ctx, other.ctx)
        return FieldElem(self.ctx, self.ctx.div(self.i, other.i))

    def __pow__(self, k):
        return FieldElem(self.ctx, self.ctx.pow_(self.i, k))

    def __eq__(self, other):
        return (
            isinstance(other, FieldElem)
            and self.ctx == other.ctx
            and self.i == other.i
        )

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.e, self.i))

    def __bool__(self):
        return self.i != 0

    def __repr__(self):
        return f"GF({self.ctx.order}):{self.i}"


# ---------------------------------------------------------------------------
# the numpy kernel for characteristic 2

# field elements per numpy pass: 2^14 int64 arrays stay in cache
VEC_CHUNK = 1 << 14


@functools.cache
def _clmul8_table():
    """Carry-less products of all byte pairs, indexed by (a << 8) | b."""
    x = np.arange(1 << 16, dtype=np.int64)
    r = np.zeros(1 << 16, dtype=np.int64)
    for i in range(8):
        r ^= ((x >> i) & 1) * ((x >> 8) << i)
    return r


class VecField:
    """GF(2^N) arithmetic on numpy int64 arrays of packed elements.

    A context with log tables (at most TABLE_LIMIT elements) multiplies and
    inverts by log/exp lookups.  With n = order - 1 the log of 0 is the
    sentinel 2n and exp gains one slot, exp[2n] = 0: two nonzero logs sum
    to at most 2n - 2 and a sum with a zero factor to at least 2n, so mul
    reads exp at the sum clipped to 2n, one gather per operand and one per
    result with no zero mask.  An index at or above order still raises
    IndexError.  Larger ones, up to MAX_ORDER, take
    carry-less byte-by-byte table products and fold the bits from N up back
    in through the F_2-linear map h -> (h << N) mod f.  Every F_2-linear map
    (that fold, the Frobenius powers, the trace T) is applied through byte
    tables (see linear).  Either operand of mul may be a plain int; inv maps
    0 to 0.
    """

    def __init__(self, ctx):
        if ctx.p != 2:
            raise ValueError(f"the vector kernel needs characteristic 2, not GF({ctx.order})")
        self.ctx = ctx
        self.N = ctx.e
        self._maps = {}
        self._exp = self._log = None
        if ctx._log is not None:
            self._exp = np.array(ctx._exp + [0], dtype=np.int64)
            self._log = np.array(ctx._log, dtype=np.int64)
            self._log[0] = 2 * (ctx.order - 1)  # the zero sentinel
            return
        self._clmul = _clmul8_table()
        self._fold = self.linear("fold", lambda h: ctx._reduce2(h << self.N))

    def linear(self, key, image):
        """The F_2-linear map x -> image(x) on arrays, cached under key.

        image is the map on one packed int; its values on the basis fill one
        256-entry table per input byte, so the map costs a lookup per byte.
        """
        tables = self._maps.get(key)
        if tables is None:
            byte = np.arange(256, dtype=np.int64)
            tables = []
            for j in range(0, self.N, 8):
                t = np.zeros(256, dtype=np.int64)
                for i in range(min(8, self.N - j)):
                    t ^= ((byte >> i) & 1) * image(1 << (j + i))
                tables.append(t)
            self._maps[key] = tables

        def apply(a):
            r = tables[0][a & 0xFF]
            for j in range(1, len(tables)):
                r = r ^ tables[j][(a >> (8 * j)) & 0xFF]
            return r
        return apply

    def reduce(self, r):
        return (r & ((1 << self.N) - 1)) ^ self._fold(r >> self.N)

    def mul(self, a, b):
        if self._log is not None:
            return self.times(b)(a)
        nbytes = (self.N + 7) // 8
        bb = [(b >> (8 * j)) & 0xFF for j in range(nbytes)]
        r = 0
        for i in range(nbytes):
            hi = ((a >> (8 * i)) & 0xFF) << 8
            for j, bj in enumerate(bb):
                r = r ^ (self._clmul[hi | bj] << (8 * (i + j)))
        return self.reduce(r)

    def times(self, b):
        """a -> a * b for a fixed b; on log tables log b is looked up once."""
        if self._log is None:
            return lambda a: self.mul(a, b)
        lb = np.take(self._log, b)
        return lambda a: np.take(self._exp, np.take(self._log, a) + lb, mode="clip")

    def sq(self, a):
        return self.pow2(a, 1)

    def pow2(self, a, k):
        """a^(2^k) for any k >= 0: x -> x^(2^k) is F_2-linear, so it is one
        byte-table lookup per input byte (see linear) instead of k squarings,
        with tables built on first use per k mod N (the Frobenius has order N).
        """
        k %= self.N
        if k == 0:
            return a
        return self.linear(k, lambda x: self.ctx.pow_(x, 1 << k))(a)

    def pow_(self, a, k):
        if k < 1:
            raise ValueError(f"exponent {k} must be positive")
        bits = bin(k)[3:]
        r = a
        for bit in bits:
            r = self.sq(r)
            if bit == "1":
                r = self.mul(r, a)
        return r

    def _geometric(self, a, d, r):
        """a^(1 + 2^d + ... + 2^(d(r-1))) by the Itoh-Tsujii chain: with P_k
        the product of the first k terms, P_2k = P_k * P_k^(2^(dk)) and
        P_(k+1) = P_k^(2^d) * a, about 2 log2(r) products and maps."""
        k = 1
        t = a
        for bit in bin(r)[3:]:
            t = self.mul(self.pow2(t, d * k), t)
            k *= 2
            if bit == "1":
                t = self.mul(self.pow2(t, d), a)
                k += 1
        return t

    def norm(self, a, d):
        """a^((2^N - 1) / (2^d - 1)), the norm to the subfield GF(2^d)."""
        if d < 1 or self.N % d:
            raise ValueError(f"GF(2^{d}) is not a subfield of GF(2^{self.N})")
        return self._geometric(a, d, self.N // d)

    def inv(self, a):
        if self._log is not None:
            n = self.ctx.order - 1
            return np.where(a != 0, np.take(self._exp, n - np.take(self._log, a)), 0)
        # a^(2^N - 2) = (a^(1 + 2 + ... + 2^(N-2)))^2
        return self.sq(self._geometric(a, 1, self.N - 1))

    def trace_T(self, a, e):
        """a + a^2 + ... + a^(2^(e-1)), one linear map."""
        return self.linear(("T", e), lambda x: functools.reduce(
            int.__xor__, (self.ctx.pow_(x, 1 << i) for i in range(e))))(a)


def _frob_step(ctx, a):
    """x -> x^(p^a) on numpy arrays of packed indices."""
    if ctx.p == 2:
        return lambda x: ctx.vec.pow2(x, a)
    q = ctx.p ** a
    return lambda x: np.array([ctx.pow_(int(v), q) for v in x], dtype=np.int64)


def _frob_orbits(ctx, a, xs):
    """(least, length) per packed index x of xs: the least element of the
    orbit of x under x -> x^(p^a), a dividing ctx.e, and the orbit's length."""
    step = _frob_step(ctx, a)
    xs = least = cur = np.asarray(xs, dtype=np.int64)
    length = np.full(xs.shape, ctx.e // a, dtype=np.int64)
    for j in range(1, ctx.e // a):
        cur = step(cur)
        least = np.minimum(least, cur)
        length[(cur == xs) & (length > j)] = j
    return least, length


# ---------------------------------------------------------------------------

_FIELDS: dict[tuple, FieldCtx] = {}


def make_field(p, e):
    """Return the canonical GF(p^e) context (cached, deterministic)."""
    if p not in (2, 3):
        raise ValueError(f"p must be 2 or 3, got {p}")
    if not 1 <= e <= 32:
        raise ValueError(f"e must lie in [1, 32], got {e}")
    key = (p, e)
    ctx = _FIELDS.get(key)
    if ctx is None:
        _size_guard(p, e)
        modulus = CONWAY.get(key)
        if modulus is None:
            modulus = _search_modulus(p, e)
        ctx = FieldCtx(p, e, modulus)
        _FIELDS[key] = ctx
    return ctx


def field_from_json(obj):
    """Rebuild a context from its wire form, reusing the canonical one."""
    p = int(obj["p"])
    e = int(obj["e"])
    modulus = tuple(int(c) for c in obj["modulus"])
    canonical = make_field(p, e)
    if canonical.modulus == modulus:
        return canonical
    return FieldCtx(p, e, modulus)


def _fan_out(fn, jobs, threads):
    """[fn(*job) for job in a list of jobs], in order; on a multiprocessing.Pool
    of min(threads, len(jobs), cpu count) processes when that is 2 or more.
    fn is then module-level, and a FieldCtx in a job is pickled as its wire
    form (FieldCtx.__reduce__).
    """
    size = min(threads, len(jobs), os.cpu_count() or 1)
    if size > 1:
        with multiprocessing.Pool(size) as pool:
            return pool.starmap(fn, jobs)
    return [fn(*job) for job in jobs]


# ---------------------------------------------------------------------------
# embeddings

class Embedding:
    """Field inclusion GF(p^d) -> GF(p^e) for d dividing e.

    The image of the source generator is a fixed root of the source
    modulus inside the target: the norm-compatible root when the two
    moduli cooperate, otherwise the least-index root.  apply/section work
    on packed indices; calling the embedding maps wrapped elements.
    """

    def __init__(self, sub, sup):
        if sub.p != sup.p or sup.e % sub.e:
            raise ValueError(f"GF({sub.p}^{sub.e}) does not embed in GF({sup.p}^{sup.e})")
        self.sub = sub
        self.sup = sup
        self.root = self._pick_root()
        pw = [1] * sub.e
        for i in range(1, sub.e):
            pw[i] = sup.mul(pw[i - 1], self.root)
        self._rootpow = pw
        self._sect = None

    def _pick_root(self):
        sub, sup = self.sub, self.sup
        cand = sup.pow_(sup.gen, (sup.order - 1) // (sub.order - 1))
        if _eval(sup, sub.modulus, cand) == 0:
            return cand
        # the modulus splits into distinct linear factors X - root over sup;
        # the least root does not depend on the draws
        return min(sup.neg(h[0]) for h in _edf(sup, list(sub.modulus), 1, random.Random(0)))

    def apply(self, a):
        sup = self.sup
        if sup.p == 2:
            out = 0
            i = 0
            while a:
                if a & 1:
                    out ^= self._rootpow[i]
                a >>= 1
                i += 1
            return out
        out = 0
        p = sup.p
        for i in range(self.sub.e):
            d = a % p
            a //= p
            if d:
                out = sup.add(out, sup.mul(d, self._rootpow[i]))
        return out

    def section_index(self, b):
        """Preimage of a packed index, or None if b is outside the image."""
        if self._sect is None:
            if self.sub.order > TABLE_LIMIT:
                raise ValueError(f"no section table for {self.sub!r}: above 2^16 elements")
            self._sect = {self.apply(a): a for a in range(self.sub.order)}
            if len(self._sect) != self.sub.order:
                raise ArithmeticError("embedding not injective")
        return self._sect.get(b)

    def __call__(self, x):
        _same_field(x.ctx, self.sub)
        return FieldElem(self.sup, self.apply(x.i))


_EMBEDDINGS: dict[tuple, Embedding] = {}


def embed(sub, sup):
    """Cached canonical embedding GF(p^d) -> GF(p^e)."""
    key = (sub.p, sub.e, sub.modulus, sup.p, sup.e, sup.modulus)
    emb = _EMBEDDINGS.get(key)
    if emb is None:
        emb = Embedding(sub, sup)
        _EMBEDDINGS[key] = emb
    return emb


def lift(x, ctx):
    """A FieldElem or UniPoly carried into ctx by the canonical embedding.

    x itself comes back when it already lives over ctx; a ValueError names
    a field that does not embed.
    """
    if x.ctx == ctx:
        return x
    emb = embed(x.ctx, ctx)
    if isinstance(x, FieldElem):
        return emb(x)
    return x.map_coeffs(emb)


def log_p(q, p):
    """The e >= 1 with q = p^e; a ValueError when q is no such power."""
    e = 0
    t = q
    while t > 1 and t % p == 0:
        t //= p
        e += 1
    if t != 1 or e < 1:
        raise ValueError(f"{q} is not a power of {p}")
    return e


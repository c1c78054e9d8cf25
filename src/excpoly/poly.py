"""Univariate and bivariate polynomials over packed-field contexts.

Coefficients are stored as packed integer indices (see ff).  UniPoly is
an immutable coefficient tuple, low degree first, with no trailing
zeros; BiPoly is a sparse {(i, j): coeff} map in two variables X and Y.
The raw list kernels (_mul, _divmod, _powmod, ...) and the one
equal-degree splitter _edf live in ff, which also runs them over GF(p) to
check field moduli and to root the moduli of subfields.

Factorization is squarefree decomposition, distinct-degree splitting by
X^(Q^d) mod g, and ff._edf's Cantor-Zassenhaus equal-degree splitting (a
trace map in characteristic 2); roots reads the linear factors.  Every
p-th power in these steps is one Frobenius-row step of ff:
a^p mod g = sum a_i^p (X^(p*i) mod g), with the row table built once per g
in _edf and reused across its random draws.  Powers are exact
remainders, so the draws and hence the factor list depend on the seed
alone, not on how the powers are formed.
Mixed fields and negative exponents raise ValueError; an inexact
exact_div or a failed internal invariant raises ArithmeticError.
"""

from __future__ import annotations

import random

from .ff import (
    FieldElem,
    _add,
    _deriv,
    _divmod,
    _edf,
    _eval,
    _frob_rows,
    _gcd,
    _index,
    _monic,
    _mul,
    _neg,
    _powmod,
    _same_field,
    _sub,
    lift,
)

__all__ = [
    "UniPoly",
    "BiPoly",
    "Factorization",
    "factor",
    "roots",
]


# ---------------------------------------------------------------------------

class UniPoly:
    """Univariate polynomial; immutable, trailing-zero free."""

    __slots__ = ("ctx", "c")

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.c = tuple(c)

    # -- constructors

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx):
        return cls(ctx, (1,))

    @classmethod
    def X(cls, ctx):
        return cls(ctx, (0, 1))

    @classmethod
    def const(cls, ctx, a):
        return cls(ctx, (_index(ctx, a),))

    @classmethod
    def monomial(cls, ctx, k, a=1):
        if k < 0:
            raise ValueError(f"monomial degree {k} must be non-negative")
        return cls(ctx, (0,) * k + (_index(ctx, a),))

    # -- structure

    @property
    def degree(self):
        return len(self.c) - 1

    @property
    def lead(self):
        return self.c[-1] if self.c else 0

    def is_zero(self):
        return not self.c

    def is_monic(self):
        return bool(self.c) and self.c[-1] == 1

    def coeff(self, k):
        return self.c[k] if 0 <= k < len(self.c) else 0

    # -- arithmetic

    def __add__(self, other):
        _same_field(self.ctx, other.ctx)
        return UniPoly(self.ctx, _add(self.ctx, list(self.c), list(other.c)))

    def __sub__(self, other):
        _same_field(self.ctx, other.ctx)
        return UniPoly(self.ctx, _sub(self.ctx, list(self.c), list(other.c)))

    def __neg__(self):
        return UniPoly(self.ctx, _neg(self.ctx, list(self.c)))

    def __mul__(self, other):
        _same_field(self.ctx, other.ctx)
        return UniPoly(self.ctx, _mul(self.ctx, self.c, other.c))

    def __divmod__(self, other):
        _same_field(self.ctx, other.ctx)
        q, r = _divmod(self.ctx, list(self.c), list(other.c))
        return UniPoly(self.ctx, q), UniPoly(self.ctx, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ArithmeticError("division was not exact")
        return q

    def scale(self, a):
        a = _index(self.ctx, a)
        return UniPoly(self.ctx, [self.ctx.mul(c, a) for c in self.c])

    def monic(self):
        return UniPoly(self.ctx, _monic(self.ctx, list(self.c)))

    def gcd(self, other):
        _same_field(self.ctx, other.ctx)
        return UniPoly(self.ctx, _gcd(self.ctx, self.c, other.c))

    def pow_(self, n):
        if n < 0:
            raise ValueError(f"exponent {n} must be non-negative")
        r = UniPoly.one(self.ctx)
        base = self
        while n:
            if n & 1:
                r = r * base
            n >>= 1
            if n:
                base = base * base
        return r

    def pow_mod(self, n, modpoly):
        _same_field(self.ctx, modpoly.ctx)
        return UniPoly(self.ctx, _powmod(self.ctx, list(self.c), n, list(modpoly.c)))

    def derivative(self):
        return UniPoly(self.ctx, _deriv(self.ctx, self.c))

    def times_x_power(self, k):
        if k < 0:
            raise ValueError(f"shift {k} must be non-negative")
        if not self.c:
            return self
        return UniPoly(self.ctx, (0,) * k + self.c)

    # -- evaluation / composition

    def eval_index(self, x):
        return _eval(self.ctx, self.c, x)

    def __call__(self, x):
        v = _eval(self.ctx, self.c, _index(self.ctx, x))
        return FieldElem(self.ctx, v) if isinstance(x, FieldElem) else v

    def compose(self, other):
        """self(other): Horner over polynomials."""
        _same_field(self.ctx, other.ctx)
        acc = UniPoly.zero(self.ctx)
        for c in reversed(self.c):
            acc = acc * other
            if c:
                acc = acc + UniPoly.const(self.ctx, c)
        return acc

    # -- coefficient field moves

    def map_coeffs(self, embedding):
        """Push coefficients through an embedding into the bigger field."""
        _same_field(embedding.sub, self.ctx)
        return UniPoly(embedding.sup, [embedding.apply(c) for c in self.c])

    def descend(self, embedding):
        """Pull coefficients back along an embedding; all must be in range."""
        _same_field(embedding.sup, self.ctx)
        out = []
        for c in self.c:
            j = embedding.section_index(c)
            if j is None:
                raise ValueError(f"coefficient {c} lies outside {embedding.sub!r}")
            out.append(j)
        return UniPoly(embedding.sub, out)

    # -- plumbing

    def to_json(self):
        return {"field": self.ctx.to_json(), "coeffs": list(self.c)}

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.ctx == other.ctx
            and self.c == other.c
        )

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.e, self.c))

    def __repr__(self):
        return f"UniPoly(GF({self.ctx.order}), deg={self.degree})"


# ---------------------------------------------------------------------------
# factorization

class Factorization:
    """unit * product of monic irreducible powers."""

    def __init__(self, ctx, unit, factors):
        self.ctx = ctx
        self.unit = unit  # packed index
        self.factors = sorted(factors, key=lambda fm: (fm[0].degree, fm[0].c, fm[1]))

    def product(self):
        out = UniPoly.const(self.ctx, self.unit)
        for g, m in self.factors:
            out = out * g.pow_(m)
        return out

    def __iter__(self):
        return iter(self.factors)

    def __repr__(self):
        inner = ", ".join(f"(deg {g.degree})^{m}" for g, m in self.factors)
        return f"Factorization({inner})"


def _pth_root_poly(f):
    # f is a p-th power: every exponent is divisible by p
    ctx = f.ctx
    p = ctx.p
    root_exp = p ** (ctx.e - 1)
    out = []
    for k in range(0, f.degree + 1, p):
        c = f.coeff(k)
        for j in range(k + 1, min(k + p, f.degree + 1)):
            if f.coeff(j):
                raise ArithmeticError("not a p-th power")
        out.append(ctx.pow_(c, root_exp))
    return UniPoly(ctx, out)


def _squarefree_decomp(f):
    """Monic f -> [(g, mult)] with the g squarefree and pairwise coprime."""
    ctx = f.ctx
    p = ctx.p
    out = []
    d = f.derivative()
    if d.is_zero():
        for g, m in _squarefree_decomp(_pth_root_poly(f)):
            out.append((g, m * p))
        return out
    c = f.gcd(d)
    w = f.exact_div(c)
    i = 1
    while w.degree > 0:
        y = w.gcd(c)
        z = w.exact_div(y)
        if z.degree > 0:
            out.append((z, i))
        c = c.exact_div(y)
        w = y
        i += 1
    if c.degree > 0:
        for g, m in _squarefree_decomp(_pth_root_poly(c)):
            out.append((g, m * p))
    return out


def _ddf(g):
    """Distinct-degree split of monic squarefree g -> [(product, d)]."""
    ctx = g.ctx
    out = []
    h = UniPoly.X(ctx)
    d = 0
    rest = g
    rows = None  # _frob_rows of rest, built once per rest
    while rest.degree > 2 * (d + 1) - 1:
        d += 1
        if rows is None:
            rows = _frob_rows(ctx, rest.c)
        h = UniPoly(ctx, _powmod(ctx, list(h.c), ctx.order, list(rest.c), rows))
        gd = rest.gcd(h - UniPoly.X(ctx))
        if gd.degree > 0:
            out.append((gd, d))
            rest = rest.exact_div(gd)
            h = h % rest
            rows = None
    if rest.degree > 0:
        out.append((rest, rest.degree))
    return out


def factor(f, seed=0):
    """Full factorization of f, deterministic for a fixed seed."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    ctx = f.ctx
    unit = f.lead
    rng = random.Random(seed)
    out = []
    if f.degree == 0:
        return Factorization(ctx, unit, [])
    work = f.monic()
    for g, m in _squarefree_decomp(work):
        for prod, d in _ddf(g):
            for irr in _edf(ctx, list(prod.c), d, rng):
                out.append((UniPoly(ctx, irr), m))
    fact = Factorization(ctx, unit, out)
    return fact


def roots(f, field):
    """Roots of f in the given field, with multiplicities.

    The field may be an extension of the coefficient field; returns a list
    of (FieldElem, multiplicity) sorted by packed index: the linear factors
    X - r of f over the field, with their multiplicities in factor.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no root list")
    return sorted(((FieldElem(field, field.neg(g.c[0])), m)
                   for g, m in factor(lift(f, field)) if g.degree == 1),
                  key=lambda rm: rm[0].i)


# ---------------------------------------------------------------------------

class BiPoly:
    """Sparse bivariate polynomial in X and Y."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        self.ctx = ctx
        clean = {}
        for (i, j), c in terms.items():
            if c:
                clean[(i, j)] = c
        self.terms = clean

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, {})

    @classmethod
    def const(cls, ctx, a):
        return cls(ctx, {(0, 0): _index(ctx, a)})

    @classmethod
    def X(cls, ctx):
        return cls(ctx, {(1, 0): 1})

    @classmethod
    def Y(cls, ctx):
        return cls(ctx, {(0, 1): 1})

    @property
    def degx(self):
        return max((i for i, _ in self.terms), default=-1)

    @property
    def degy(self):
        return max((j for _, j in self.terms), default=-1)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        _same_field(self.ctx, other.ctx)
        out = dict(self.terms)
        add = self.ctx.add
        for k, c in other.terms.items():
            out[k] = add(out.get(k, 0), c)
        return BiPoly(self.ctx, out)

    def __neg__(self):
        neg = self.ctx.neg
        return BiPoly(self.ctx, {k: neg(c) for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        _same_field(self.ctx, other.ctx)
        out = {}
        mul = self.ctx.mul
        add = self.ctx.add
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = add(out.get(k, 0), mul(c1, c2))
        return BiPoly(self.ctx, out)

    def scale(self, a):
        a = _index(self.ctx, a)
        mul = self.ctx.mul
        return BiPoly(self.ctx, {k: mul(c, a) for k, c in self.terms.items()})

    def pow_(self, n):
        if n < 0:
            raise ValueError(f"exponent {n} must be non-negative")
        r = BiPoly.const(self.ctx, 1)
        base = self
        while n:
            if n & 1:
                r = r * base
            n >>= 1
            if n:
                base = base * base
        return r

    def eval(self, x, y):
        ctx = self.ctx
        x = _index(ctx, x)
        y = _index(ctx, y)
        acc = 0
        for (i, j), c in self.terms.items():
            acc = ctx.add(acc, ctx.mul(c, ctx.mul(ctx.pow_(x, i), ctx.pow_(y, j))))
        return acc

    def subst(self, x=None, y=None):
        """Substitute for the variables, clearing declared denominators.

        Each of x and y is None (leave alone), a BiPoly (polynomial
        substitution), or a (numerator, denominator) BiPoly pair.  With a
        pair in play the result is the numerator after multiplying
        through by den_x^degx * den_y^degy; the caller keeps track of
        that clearing factor.
        """
        ctx = self.ctx
        one = BiPoly.const(ctx, 1)

        def split(spec, default):
            if spec is None:
                return default, one
            if isinstance(spec, tuple):
                return spec
            return spec, one

        xn, xd = split(x, BiPoly.X(ctx))
        yn, yd = split(y, BiPoly.Y(ctx))
        dx = max(self.degx, 0)
        dy = max(self.degy, 0)
        xn_p = _pow_table(xn, dx)
        xd_p = _pow_table(xd, dx)
        yn_p = _pow_table(yn, dy)
        yd_p = _pow_table(yd, dy)
        out = BiPoly.zero(ctx)
        for (i, j), c in self.terms.items():
            term = BiPoly.const(ctx, c) * xn_p[i] * xd_p[dx - i] * yn_p[j] * yd_p[dy - j]
            out = out + term
        return out

    def swap_vars(self):
        return BiPoly(self.ctx, {(j, i): c for (i, j), c in self.terms.items()})

    def coeff(self, i, j):
        return self.terms.get((i, j), 0)

    def __eq__(self, other):
        return (
            isinstance(other, BiPoly)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"BiPoly(GF({self.ctx.order}), {len(self.terms)} terms)"


def _pow_table(b, n):
    out = [BiPoly.const(b.ctx, 1)]
    for _ in range(n):
        out.append(out[-1] * b)
    return out

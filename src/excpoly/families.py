"""Constructors and canonical forms for the exceptional families.

Five indecomposable kinds are covered: power maps, Dickson polynomials,
the additive-twist families in characteristics 2 and 3, and the
characteristic-2 family of degree q(q-1)/2 built from the halved trace
polynomial.  The last one has two independent constructions (a closed
formula with an exact division, and a product over the nontrivial
(q-1)-th roots of unity) which must agree; tests lean on that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .ff import FieldCtx, FieldElem, embed, log_p, make_field
from .poly import UniPoly

__all__ = [
    "NotInFamily",
    "FamilySpec",
    "CanonicalForm",
    "trace_poly",
    "f_closed",
    "f_product",
    "dickson",
    "family_iv",
    "family_v",
    "canonicalize",
]

# each kind with the FamilySpec fields its build needs
FAMILY_KINDS = {
    "power": ("d",),
    "dickson": ("d", "alpha"),
    "char2_new": ("q", "alpha"),
    "char2_additive_twist": ("q", "n", "alpha"),
    "char3_twist": ("q", "n", "alpha"),
}


#: Largest degree d a power or Dickson member may have; the coefficient list
#: is dense, so a larger d would only exhaust memory.
MAX_DEGREE = 1 << 16


class NotInFamily(Exception):
    """canonicalize could not express the input inside the family."""


def _require(cond, message):
    """Input check that survives python -O."""
    if not cond:
        raise ValueError(message)


def trace_poly(q, ctx=None):
    """The additive polynomial T with T(x)^2 + T(x) = x^q + x.

    T(X) = X + X^2 + X^4 + ... + X^(q/2); coefficients are 0/1 so any
    characteristic-2 context works.
    """
    e = log_p(q, 2)
    if ctx is None:
        ctx = make_field(2, e)
    _require(ctx.p == 2, "trace_poly needs a characteristic-2 field")
    c = [0] * ((1 << (e - 1)) + 1)
    for i in range(e):
        c[1 << i] = 1
    return UniPoly(ctx, c)


def f_closed(q, alpha):
    """Degree q(q-1)/2 family member at parameter alpha, closed form.

    Computes X^q * f as a polynomial identity and certifies the exact
    division.  Requires alpha outside GF(2).
    """
    ctx = alpha.ctx
    e = log_p(q, 2)
    _require(e >= 2 and ctx.p == 2, "f_closed needs q >= 4 and alpha in characteristic 2")
    a = alpha.i
    if a in (0, 1):
        raise ValueError("alpha must lie outside GF(2)")
    T = trace_poly(q, ctx)
    Talpha = T + UniPoly.const(ctx, a)
    # (T + alpha)^q expands to T(X^q) + alpha^q: exponents i*q stay sparse
    tq = [0] * ((q // 2) * q + 1)
    for i in range(e):
        tq[(1 << i) * q] = 1
    tq[0] = ctx.pow_(a, q)
    h = UniPoly(ctx, tq) * T
    s = ctx.add(ctx.mul(a, a), a)  # alpha^2 + alpha
    acc = UniPoly.zero(ctx)
    for i in range(e):
        w = ctx.pow_(s, 1 << i)
        piece = Talpha.pow_(q + 1 - (1 << (i + 1)))
        acc = acc + piece.times_x_power(1 << i).scale(w)
    h = h + acc.scale(ctx.inv(ctx.add(a, 1)))
    f = h.exact_div(UniPoly.monomial(ctx, q))
    if f.degree != q * (q - 1) // 2 or not f.is_monic():
        raise ArithmeticError(f"f_closed gave degree {f.degree}, not a monic q(q-1)/2")
    return f


def f_product(q, a):
    """Same family member via the product over GF(q)* minus 1.

    f_product(q, a) must equal f_closed(q, a + 1).  The product runs in
    GF(2^lcm(e, m)) and the result is certified to descend back to the
    coefficient field of a.
    """
    ctx = a.ctx
    e = log_p(q, 2)
    _require(e >= 2 and ctx.p == 2, "f_product needs q >= 4 and a in characteristic 2")
    amb = make_field(2, math.lcm(e, ctx.e))
    up = embed(ctx, amb)
    gfq = make_field(2, e)
    eq = embed(gfq, amb)
    av = up.apply(a.i)
    out = trace_poly(q, amb) + UniPoly.const(amb, amb.add(av, 1))
    zgen = eq.apply(gfq.gen)
    z = 1
    for _ in range(q - 2):
        z = amb.mul(z, zgen)
        coeffs = [0] * (q // 2 + 1)
        coeffs[0] = amb.add(amb.mul(z, av), 1)
        zz = amb.mul(z, z)
        for i in range(1, e):
            # (z^(2^i) + z) / (z^(2^i) + 1); the i = 0 term drops out
            coeffs[1 << i] = amb.div(amb.add(zz, z), amb.add(zz, 1))
            zz = amb.mul(zz, zz)
        out = out * UniPoly(amb, coeffs)
    f = out.descend(up)
    if f.degree != q * (q - 1) // 2 or not f.is_monic():
        raise ArithmeticError(f"f_product gave degree {f.degree}, not a monic q(q-1)/2")
    return f


def dickson(d, alpha):
    """Dickson polynomial D_d(X, alpha): D_d(y + alpha/y) = y^d + (alpha/y)^d."""
    ctx = alpha.ctx
    _require(d >= 1, "the Dickson degree must be at least 1")
    coeffs = [0] * (d + 1)
    na = ctx.neg(alpha.i)
    for i in range(d // 2 + 1):
        c = d * math.comb(d - i, i) // (d - i)
        cm = c % ctx.p
        if cm:
            coeffs[d - 2 * i] = ctx.mul(cm, ctx.pow_(na, i))
    return UniPoly(ctx, coeffs)


def family_iv(q, n, alpha):
    """Characteristic-2 additive twist of degree q(q-1)/2.

    X * (sum over i < e of (alpha X^n)^(2^i - 1)) ^ ((q+1)/n); needs e
    odd, n dividing q+1, alpha nonzero.
    """
    ctx = alpha.ctx
    e = log_p(q, 2)
    _require(ctx.p == 2 and q > 2, "family_iv needs q > 2 and alpha in characteristic 2")
    _require(e % 2 == 1, "the exponent e must be odd")
    _require((q + 1) % n == 0, "n must divide q+1")
    a = alpha.i
    _require(a != 0, "alpha must be nonzero")
    inner = [0] * (n * ((1 << (e - 1)) - 1) + 1)
    for i in range(e):
        k = (1 << i) - 1
        inner[n * k] = ctx.pow_(a, k)
    f = UniPoly(ctx, inner).pow_((q + 1) // n).times_x_power(1)
    if f.degree != q * (q - 1) // 2:
        raise ArithmeticError(f"family_iv gave degree {f.degree}, not q(q-1)/2")
    return f


def family_v(q, n, alpha):
    """Characteristic-3 twist of degree q(q-1)/2.

    X (X^2n - alpha)^((q+1)/4n) * (((X^2n - alpha)^((q-1)/2) +
    alpha^((q-1)/2)) / X^2n) ^ ((q+1)/2n); needs e odd, 4n dividing
    q+1, alpha nonzero.  The inner division is certified exact.
    """
    ctx = alpha.ctx
    e = log_p(q, 3)
    _require(ctx.p == 3, "family_v needs alpha in characteristic 3")
    _require(e % 2 == 1, "the exponent e must be odd")
    _require((q + 1) % (4 * n) == 0, "4n must divide q+1")
    a = alpha.i
    _require(a != 0, "alpha must be nonzero")
    base = [0] * (2 * n + 1)
    base[0] = ctx.neg(a)
    base[2 * n] = 1
    B = UniPoly(ctx, base)
    part1 = B.pow_((q + 1) // (4 * n))
    C = B.pow_((q - 1) // 2) + UniPoly.const(ctx, ctx.pow_(a, (q - 1) // 2))
    D = C.exact_div(UniPoly.monomial(ctx, 2 * n))
    f = (part1 * D.pow_((q + 1) // (2 * n))).times_x_power(1)
    if f.degree != q * (q - 1) // 2:
        raise ArithmeticError(f"family_v gave degree {f.degree}, not q(q-1)/2")
    return f


# ---------------------------------------------------------------------------

# the builder of each family kind; FamilySpec has already checked the kind
_BUILDERS = {
    "power": lambda spec: UniPoly.monomial(spec.base_field(), spec.d),
    "dickson": lambda spec: dickson(spec.d, spec.alpha),
    "char2_new": lambda spec: f_closed(spec.q, spec.alpha),
    "char2_additive_twist": lambda spec: family_iv(spec.q, spec.n, spec.alpha),
    "char3_twist": lambda spec: family_v(spec.q, spec.n, spec.alpha),
}


@dataclass(frozen=True)
class FamilySpec:
    """One family member, pinned down by kind and parameters."""

    kind: str
    q: int | None = None
    d: int | None = None
    n: int | None = None
    alpha: FieldElem | None = None
    field: FieldCtx | None = None

    def __post_init__(self):
        _require(self.kind in FAMILY_KINDS, f"unknown kind {self.kind!r}")

    def base_field(self):
        if self.alpha is not None:
            return self.alpha.ctx
        _require(self.field is not None, f"{self.kind} needs a field or alpha")
        return self.field

    def build(self):
        missing = [name for name in FAMILY_KINDS[self.kind] if getattr(self, name) is None]
        _require(not missing, f"{self.kind} needs {', '.join(missing)}")
        if self.kind in ("power", "dickson"):
            _require(1 <= self.d <= MAX_DEGREE,
                     f"{self.kind} degree d = {self.d} lies outside 1..2^16 = {MAX_DEGREE}")
        return _BUILDERS[self.kind](self)

    def to_json(self):
        out = {"kind": self.kind}
        if self.q is not None:
            out["q"] = self.q
        if self.d is not None:
            out["d"] = self.d
        if self.n is not None:
            out["n"] = self.n
        if self.alpha is not None:
            out["alpha"] = {"field": self.alpha.ctx.to_json(), "index": self.alpha.i}
        elif self.field is not None:
            out["field"] = self.field.to_json()
        return out


@dataclass(frozen=True)
class CanonicalForm:
    """Witness that f(X) = delta + eta * f_alpha(zeta X + gamma)."""

    q: int
    alpha: FieldElem
    zeta: FieldElem
    gamma: FieldElem
    eta: FieldElem
    delta: FieldElem

    def reassemble(self):
        ctx = self.alpha.ctx
        base = f_closed(self.q, self.alpha)
        lin = UniPoly(ctx, (self.gamma.i, self.zeta.i))
        return base.compose(lin).scale(self.eta) + UniPoly.const(ctx, self.delta)


def canonicalize(f, q):
    """Recover (alpha, zeta, gamma, eta, delta) from a twisted family member.

    The subleading coefficients of f pin the parameters one by one; a full
    reassembly at the end certifies the answer.  Raises NotInFamily when
    any step refuses.
    """
    ctx = f.ctx
    if q < 4 or q & (q - 1) or ctx.p != 2:
        raise NotInFamily(f"q = {q} is not a usable power of 2 for this field")
    D = q * (q - 1) // 2
    if f.degree != D:
        raise NotInFamily(f"degree {f.degree}, expected {D}")
    m0 = q * (q - 2) // 2
    c1 = f.coeff(m0 + 1)
    c2 = f.coeff(m0 + 2)
    if not c1 or not c2:
        raise NotInFamily("flat spot where the twist coefficients live")
    z = ctx.div(c2, c1)
    eta = ctx.div(c1, ctx.pow_(z, m0 + 1))

    def norm(k):
        return ctx.div(f.coeff(k), ctx.mul(eta, ctx.pow_(z, k)))

    alpha = norm(m0 - q // 2 + 1)
    if alpha in (0, 1):
        raise NotInFamily("recovered alpha lies in GF(2)")
    t_gamma = norm(m0)
    u = norm(m0 - q // 2)
    if q == 4:
        u = ctx.add(u, ctx.add(alpha, 1))
    gamma = ctx.div(
        ctx.add(u, ctx.add(ctx.mul(t_gamma, t_gamma), t_gamma)),
        ctx.add(alpha, 1),
    )
    form = CanonicalForm(
        q=q,
        alpha=FieldElem(ctx, alpha),
        zeta=FieldElem(ctx, z),
        gamma=FieldElem(ctx, gamma),
        eta=FieldElem(ctx, eta),
        delta=FieldElem(ctx, 0),
    )
    # the reassembly with delta = 0 is f - delta when the answer is right
    g = form.reassemble()
    delta = ctx.add(f.coeff(0), g.coeff(0))
    if g + UniPoly.const(ctx, delta) != f:
        raise NotInFamily("reassembly mismatch")
    return replace(form, delta=FieldElem(ctx, delta))

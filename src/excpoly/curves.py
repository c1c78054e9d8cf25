"""The plane curve model, point counts, zeta data, and exact automorphism
certificates.

The genus-q(q-1)/2 curve is the smooth plane model

    Y^(q+1) + Z^(q+1) + T(YZ) + c = 0,      T(X) = X + X^2 + ... + X^(q/2),

for c outside F_2; it is the model that smoothness checks, point counts and
zeta data take.  The same curve is the additive cover

    v^q + v = (alpha + beta) w + w^q T(beta / (1 + w^(q-1))),

a degree-q cover of the w-line, which appears only as the cleared polynomial
the certificates check.  The module certifies the change of variables linking
the two, verifies the Borel and full SL2(q) automorphism actions as exact
identities in a small function-field engine, counts points over extensions (one
production counter over the product fibration, with per-z root counting and
brute-force pair enumeration as independent references on small fields),
assembles L-polynomials with functional-equation and exact root-radius
validation (a Sturm count on small polynomials over Q, kept as lists of
Fractions), and mechanizes the Weil-bound contradiction arithmetic used to
rule out small genus alternatives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .families import trace_poly
from .ff import (VEC_CHUNK, FieldCtx, FieldElem, _fan_out, _frob_orbits, _index, _same_field,
                 embed, lift, log_p, make_field)
from .poly import BiPoly, UniPoly

FIBER_GUARD = 1 << 24
DENSE_GUARD = 1 << 12


# ---------------------------------------------------------------------------
# rational functions in one variable

def _reduce_pair(num, den):
    """Bring num/den to the canonical reduced form: monic den, gcd 1."""
    if num.is_zero():
        return num, UniPoly.one(den.ctx)
    g = num.gcd(den)
    if g.degree > 0:
        num = num.exact_div(g)
        den = den.exact_div(g)
    lead = den.lead
    if lead != 1:
        s = den.ctx.inv(lead)
        num = num.scale(s)
        den = den.scale(s)
    return num, den


class RatFn:
    """Fraction of univariate polynomials, kept reduced with a monic denominator.

    Equality of reduced fractions is componentwise, which makes these usable as
    exact coefficients inside the function-field engine below.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, reduced=False):
        if den is None:
            den = UniPoly.one(num.ctx)
        _same_field(num.ctx, den.ctx)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not reduced:
            num, den = _reduce_pair(num, den)
        self.num = num
        self.den = den

    @property
    def ctx(self):
        return self.num.ctx

    @classmethod
    def zero(cls, ctx):
        return cls(UniPoly.zero(ctx), UniPoly.one(ctx), reduced=True)

    @classmethod
    def one(cls, ctx):
        return cls(UniPoly.one(ctx), UniPoly.one(ctx), reduced=True)

    @classmethod
    def const(cls, ctx, a):
        return cls(UniPoly.const(ctx, a), UniPoly.one(ctx), reduced=True)

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        _same_field(self.ctx, other.ctx)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        num = self.num * other.den + other.num * self.den
        return RatFn(num, self.den * other.den)

    def __mul__(self, other):
        _same_field(self.ctx, other.ctx)
        if self.is_zero() or other.is_zero():
            return RatFn.zero(self.ctx)
        # cross-cancel so the final product is already coprime
        g1 = self.num.gcd(other.den)
        g2 = other.num.gcd(self.den)
        n1 = self.num.exact_div(g1) if g1.degree > 0 else self.num
        d2 = other.den.exact_div(g1) if g1.degree > 0 else other.den
        n2 = other.num.exact_div(g2) if g2.degree > 0 else other.num
        d1 = self.den.exact_div(g2) if g2.degree > 0 else self.den
        num = n1 * n2
        den = d1 * d2
        lead = den.lead
        if lead != 1:
            s = den.ctx.inv(lead)
            num = num.scale(s)
            den = den.scale(s)
        return RatFn(num, den, reduced=True)

    def scale(self, a):
        a = _index(self.ctx, a)
        if a == 0:
            return RatFn.zero(self.ctx)
        return RatFn(self.num.scale(a), self.den, reduced=True)

    def __eq__(self, other):
        if not isinstance(other, RatFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den.degree == 0:
            return f"RatFn({self.num!r})"
        return f"RatFn({self.num!r} / {self.den!r})"


# ---------------------------------------------------------------------------
# function-field engine, K(x)[y] / (y^q = A(x) y + B(x))

class FnField:
    """Degree-q extension of a rational function field, char 2.

    Elements are tuples of q RatFn coefficients (c_0, ..., c_{q-1}) standing
    for sum c_i y^i.  Products reduce through y^(q+j) = A y^(j+1) + B y^j,
    a single high-to-low pass since products have y-degree at most 2q-2.
    """

    def __init__(self, ctx, q, A, B):
        if ctx.p != 2:
            raise ValueError(f"the engine is specific to characteristic 2, not {ctx!r}")
        e = log_p(q, 2)
        self.ctx = ctx
        self.q = q
        self.e = e
        self.A = A
        self.B = B
        z = RatFn.zero(ctx)
        self.zero_el = (z,) * q
        self._z = z
        self.one_el = self.const(RatFn.one(ctx))
        self.gen = self.elem({1: RatFn.one(ctx)})

    def elem(self, coeffs):
        """Element from a {degree: RatFn} mapping, degrees below q."""
        out = [self._z] * self.q
        for i, r in coeffs.items():
            if not 0 <= i < self.q:
                raise ValueError(f"degree {i} lies outside [0, {self.q})")
            out[i] = r
        return tuple(out)

    def const(self, r):
        out = [self._z] * self.q
        out[0] = r
        return tuple(out)

    def is_zero(self, u):
        return all(c.is_zero() for c in u)

    def add(self, u, v):
        return tuple(a + b for a, b in zip(u, v))

    def scale(self, u, r):
        """Multiply by a rational-function scalar."""
        return tuple(c * r for c in u)

    def scale_c(self, u, a):
        """Multiply by a constant-field scalar (packed index or element)."""
        return tuple(c.scale(a) for c in u)

    def mul(self, u, v):
        q = self.q
        prod = [self._z] * (2 * q - 1)
        for i, ci in enumerate(u):
            if ci.is_zero():
                continue
            for j, dj in enumerate(v):
                if dj.is_zero():
                    continue
                prod[i + j] = prod[i + j] + ci * dj
        for d in range(2 * q - 2, q - 1, -1):
            cd = prod[d]
            if cd.is_zero():
                continue
            prod[d - q + 1] = prod[d - q + 1] + self.A * cd
            prod[d - q] = prod[d - q] + self.B * cd
            prod[d] = self._z
        return tuple(prod[:q])

    def square(self, u):
        return self.mul(u, u)

    def pow_q(self, u):
        """q-th power: e repeated squarings."""
        out = u
        for _ in range(self.e):
            out = self.square(out)
        return out

    def trace_T(self, u):
        """T(u) = u + u^2 + ... + u^(q/2), the additive trace polynomial."""
        acc = u
        cur = u
        for _ in range(self.e - 1):
            cur = self.square(cur)
            acc = self.add(acc, cur)
        return acc


# ---------------------------------------------------------------------------
# shared builders

def _plane_poly(q, ctx, c):
    """Y^(q+1) + Z^(q+1) + T(YZ) + c as a BiPoly over ctx (c a packed index)."""
    e = log_p(q, 2)
    terms = {(q + 1, 0): 1, (0, q + 1): 1}
    for i in range(e):
        k = 1 << i
        terms[(k, k)] = 1
    if c:
        terms[(0, 0)] = c
    return BiPoly(ctx, terms)


def _cab_poly(q, ctx, a, b):
    """Cleared additive-cover equation as a BiPoly in (V, W) over ctx.

    (V^q + V + (a+b) W) (1 + W^(q-1))^(q/2)  +  W^q sum_i b^(2^i) (1 + W^(q-1))^(q/2 - 2^i)
    """
    V = BiPoly.X(ctx)
    W = BiPoly.Y(ctx)
    D, tail = _cleared_trace(BiPoly.const(ctx, 1) + BiPoly(ctx, {(0, q - 1): 1}), q, b)
    head = (BiPoly(ctx, {(q, 0): 1}) + V + W.scale(ctx.add(a, b))) * D
    return head + BiPoly(ctx, {(0, q): 1}) * tail


def _cleared_trace(base, q, b):
    """T(b / base) cleared to base^(q/2): the pair (base^(q/2), sum_i
    b^(2^i) base^(q/2 - 2^i)) for a UniPoly or BiPoly base."""
    ks = [1 << i for i in range(log_p(q, 2))]
    terms = [base.pow_(q // 2 - k).scale(base.ctx.pow_(b, k)) for k in ks]
    return base.pow_(q // 2), sum(terms[1:], terms[0])


def _cover_params(alpha, beta, e=1):
    """The additive cover's (alpha, beta) gate: both nonzero in
    characteristic 2, lifted as (amb, a, b) into GF(2^lcm(e, ...))."""
    if alpha.ctx.p != 2 or beta.ctx.p != 2:
        raise ValueError("parameters must live in characteristic 2")
    if alpha.i == 0 or beta.i == 0:
        raise ValueError("alpha and beta must be nonzero")
    amb = make_field(2, math.lcm(e, alpha.ctx.e, beta.ctx.e))
    return amb, lift(alpha, amb).i, lift(beta, amb).i


def _unit_root(ctx, n):
    """An element of exact multiplicative order n (n must divide ctx.order - 1)."""
    if (ctx.order - 1) % n:
        raise ValueError(f"{n} does not divide the {ctx.order - 1} units of {ctx!r}")
    g = ctx.pow_(ctx.gen, (ctx.order - 1) // n)
    if ctx.pow_(g, n) != 1:
        raise ArithmeticError(f"the root of unity of order {n} does not have order {n}")
    return g


# ---------------------------------------------------------------------------
# identity certificates

def verify_product_identity(q, mutate=False):
    """Expand prod over the (q+1)-th roots of unity of (wY + 1 + Z/w) and
    compare with Y^(q+1) + Z^(q+1) + T(YZ) + 1, coefficientwise over GF(q^2).

    With mutate=True the +1 on the right-hand side is dropped; the comparison
    must then fail, which the tests use as a falsifiability control.
    """
    e = log_p(q, 2)
    ctx = make_field(2, 2 * e)
    n = q + 1
    w0 = _unit_root(ctx, n)
    Y = BiPoly.X(ctx)
    Z = BiPoly.Y(ctx)
    prod = BiPoly.const(ctx, 1)
    for k in range(n):
        om = ctx.pow_(w0, k)
        lin = Y.scale(om) + BiPoly.const(ctx, 1) + Z.scale(ctx.inv(om))
        prod = prod * lin
    rhs = _plane_poly(q, ctx, 0 if mutate else 1)
    return prod == rhs


def _b_action(q, amb, a, b):
    """(sigma, mu) for the upper-triangular automorphisms of the cover.

    The matrix [[g^-1, d], [0, g]] acts through w -> g^2 w, v -> g^2 v + g d
    on the cleared curve polynomial E = _cab_poly(q, amb, a, b).  sigma says
    that the e additive shifts along an F_2-basis of GF(q) fix E; mu says
    that the order-(q-1) diagonal, alone and with d the basis sum, multiplies
    E by the unit g^2.
    """
    e = log_p(q, 2)
    E = _cab_poly(q, amb, a, b)
    V = BiPoly.X(amb)
    W = BiPoly.Y(amb)
    qf = make_field(2, e)
    up = embed(qf, amb)
    sigma = all(E.subst(x=V + BiPoly.const(amb, up.apply(1 << i))) == E for i in range(e))
    g0 = up.apply(qf.gen)          # order q-1
    g2 = amb.mul(g0, g0)
    diag = V.scale(g2)
    d = up.apply((1 << e) - 1 if e > 1 else 1)
    mixed = diag + BiPoly.const(amb, amb.mul(g0, d))
    mu = all(E.subst(x=x, y=W.scale(g2)) == E.scale(g2) for x in (diag, mixed))
    return sigma, mu


def verify_b_action(q, alpha, beta):
    """Check the upper-triangular automorphisms of the additive-cover model.

    Substituting a generating set (one order-(q-1) diagonal, the e additive
    shifts along an F_2-basis of GF(q), and one mixed element) into the cleared
    curve polynomial must reproduce it exactly up to the unit factor g^2; see
    _b_action.
    """
    amb, a, b = _cover_params(alpha, beta, log_p(q, 2))
    return all(_b_action(q, amb, a, b))


def sl2_certificate(q, alpha, beta=None):
    """Run the four-step change-of-variables certificate and report each step.

    Steps, all exact identities in GF(q^2)(alpha)(w)[v] modulo the curve:
      1. the hat-coordinate identities for w^ = 1/w and
         v^ = v^2/w + v + beta w / (1 + w^(q-1)),
      2. the plane equation y^(q+1) + z^(q+1) + T(yz) + alpha + 1 = 0 for
         y = (v^ g + w^/g + 1)/d, z = (v^/g + w^ g + 1)/d with g of order
         q+1 and d = g + 1/g,
      3. preservation of the plane equation by (y,z) -> (yn, z/n) for every
         (q+1)-th root of unity n and by the swap, and preservation of the
         cover equation by the additive shifts and the diagonal scalings,
      4. the line cut out by 1/w = 0 meets the plane curve in a single
         point of full multiplicity q+1, and that point is moved by every
         nontrivial (y,z) -> (yn, z/n).

    Step 1c and step 2 hold precisely when beta^2 = alpha + alpha^2; the
    default beta is the square root of alpha + alpha^2, and passing any other
    beta produces a report whose failing steps localize the defect.
    """
    e = log_p(q, 2)
    actx = alpha.ctx
    if actx.p != 2:
        raise ValueError("alpha must live in characteristic 2")
    if alpha.i in (0, 1):
        raise ValueError("alpha must lie outside F_2")
    amb = make_field(2, math.lcm(2 * e, actx.e))
    a = lift(alpha, amb).i
    if beta is None:
        b = amb.sqrt_(amb.add(a, amb.mul(a, a)))
    else:
        b = lift(beta, amb).i
    if b == 0:
        raise ValueError("beta must be nonzero")
    defect = amb.add(amb.add(amb.mul(a, a), a), amb.mul(b, b))
    applicable = defect == 0

    # engine for the cover: v^q = v + B(w)
    w = UniPoly.X(amb)
    one = UniPoly.one(amb)
    wq1 = UniPoly.monomial(amb, q - 1)
    base = one + wq1
    D, NT = _cleared_trace(base, q, b)
    Bnum = UniPoly.monomial(amb, 1, amb.add(a, b)) * D + UniPoly.monomial(amb, q) * NT
    E = FnField(amb, q, RatFn.one(amb), RatFn(Bnum, D))
    v = E.gen
    wh = RatFn(one, w)                       # 1/w
    whq = RatFn(one, UniPoly.monomial(amb, q))
    vhat = E.elem({
        2: wh,
        1: RatFn.one(amb),
        0: RatFn(UniPoly.monomial(amb, 1, b), base),
    })
    TB = RatFn(NT, D)                        # T(beta / (1 + w^(q-1)))

    # step 1
    vw = E.scale(vhat, wh)
    t_vw = E.trace_T(vw)
    vow = E.scale(v, wh)
    rhs_a = E.add(E.add(E.pow_q(vow), vow), E.const(TB))
    ok_1a = t_vw == rhs_a
    rhs_b = E.add(E.scale(v, wh + whq),
                  E.const(RatFn(UniPoly.const(amb, amb.add(a, b)), wq1)))
    ok_1b = t_vw == rhs_b
    lhs_c = E.scale(E.pow_q(vhat), wh)
    rhs_c = E.add(E.add(t_vw, E.scale(vhat, whq)), E.const(RatFn.const(amb, a)))
    ok_1c = lhs_c == rhs_c
    # the residual of 1c is always (a^2 + a + b^2) / w^(q-1)
    residual = E.add(lhs_c, rhs_c)
    expected = E.const(RatFn(UniPoly.const(amb, defect), wq1))
    if residual != expected:
        raise ArithmeticError("hat-identity residual disagrees with the closed form")
    ok1 = ok_1a and ok_1b and ok_1c

    # step 2
    g = _unit_root(amb, q + 1)
    ginv = amb.inv(g)
    d_idx = amb.add(g, ginv)
    if d_idx == 0 or amb.pow_(d_idx, q) != d_idx:
        raise ArithmeticError("g + 1/g must lie in GF(q)*")
    if trace_poly(q, amb).eval_index(amb.inv(amb.mul(d_idx, d_idx))) != 1:
        raise ArithmeticError("T(1 / (g + 1/g)^2) must be 1")
    dinv = amb.inv(d_idx)
    y_el = E.add(E.add(E.scale_c(vhat, amb.mul(g, dinv)),
                       E.const(wh.scale(amb.mul(ginv, dinv)))),
                 E.const(RatFn.const(amb, dinv)))
    z_el = E.add(E.add(E.scale_c(vhat, amb.mul(ginv, dinv)),
                       E.const(wh.scale(amb.mul(g, dinv)))),
                 E.const(RatFn.const(amb, dinv)))
    yq1 = E.mul(E.pow_q(y_el), y_el)
    zq1 = E.mul(E.pow_q(z_el), z_el)
    tyz = E.trace_T(E.mul(y_el, z_el))
    resid2 = E.add(E.add(yq1, zq1), E.add(tyz, E.const(RatFn.const(amb, amb.add(a, 1)))))
    ok2 = E.is_zero(resid2)

    # step 3
    c_idx = amb.add(a, 1)
    Fpl = _plane_poly(q, amb, c_idx)
    Ybp = BiPoly.X(amb)
    Zbp = BiPoly.Y(amb)
    ok_nu = True
    for k in range(q + 1):
        eta = amb.pow_(g, k)
        img = Fpl.subst(x=Ybp.scale(eta), y=Zbp.scale(amb.inv(eta)))
        if img != Fpl:
            ok_nu = False
            break
    sym = BiPoly(amb, {(q, 1): 1, (1, q): 1, (0, 0): a})
    for i in range(e):
        k = 1 << i
        sym = sym + BiPoly(amb, {(k, k): 1})
    ok_tau = Fpl.swap_vars() == Fpl and sym.swap_vars() == sym
    ok_sigma, ok_mu = _b_action(q, amb, a, b)
    ok3 = ok_nu and ok_tau and ok_sigma and ok_mu

    # step 4: restrict the homogenized plane equation to the line
    # Y = g^2 Z + g W (the zero locus of 1/w) and parameterize by W at Z = 1
    g2 = amb.mul(g, g)
    lin = UniPoly(amb, (g2, g))              # g^2 + g W
    U = lin.pow_(q + 1) + one
    for i in range(e):
        k = 1 << i
        U = U + lin.pow_(k).times_x_power(q + 1 - 2 * k)
    U = U + UniPoly.monomial(amb, q + 1, c_idx)
    ok_deg = U.degree == q + 1
    ok_pp = False
    ok_moved = False
    if ok_deg:
        cN = U.coeff(q + 1)
        r = amb.div(U.coeff(q), cN)
        U_pp = UniPoly(amb, (r, 1)).pow_(q + 1).scale(cN)
        ok_pp = U == U_pp
        # the root parameter W = r names the projective point [g^2 + g r : 1 : r]
        y0 = amb.add(g2, amb.mul(g, r))
        p0 = (y0, 1, r)
        if _plane_eval_proj(q, e, amb, c_idx, p0) != 0:
            raise ArithmeticError("the moved point misses the plane curve")
        ok_moved = True
        for k in range(1, q + 1):
            eta = amb.pow_(g, k)
            image = (amb.mul(eta, y0), amb.inv(eta), r)
            if _proj_eq(amb, image, p0):
                ok_moved = False
                break
    pole = E.const(wh)
    recon = E.scale_c(
        E.add(E.add(E.scale_c(z_el, g), E.one_el), E.scale_c(y_el, ginv)), dinv)
    ok_w = pole == recon
    ok4 = ok_deg and ok_pp and ok_moved and ok_w

    steps = [
        {"id": 1, "ok": ok1, "detail": {"1a": ok_1a, "1b": ok_1b, "1c": ok_1c}},
        {"id": 2, "ok": ok2},
        {"id": 3, "ok": ok3, "detail": {"nu": ok_nu, "tau": ok_tau,
                                        "sigma": ok_sigma, "mu": ok_mu}},
        {"id": 4, "ok": ok4, "detail": {"degree": ok_deg, "perfect_power": ok_pp,
                                        "moved": ok_moved, "pole_line": ok_w}},
    ]
    return {
        "check": "sl2_certificate",
        "q": q,
        "alpha": alpha.i,
        "beta": b,
        "applicable": applicable,
        "steps": steps,
        "ok": applicable and all(s["ok"] for s in steps),
    }


def _plane_eval_proj(q, e, ctx, c, point):
    """Evaluate the homogenized plane equation at a projective triple; q = 2^e."""
    y, z, wv = point
    acc = ctx.add(ctx.pow_(y, q + 1), ctx.pow_(z, q + 1))
    yz = ctx.mul(y, z)
    for i in range(e):
        k = 1 << i
        acc = ctx.add(acc, ctx.mul(ctx.pow_(yz, k), ctx.pow_(wv, q + 1 - 2 * k)))
    return ctx.add(acc, ctx.mul(c, ctx.pow_(wv, q + 1)))


def _proj_eq(ctx, p1, p2):
    """Equality of projective triples up to a scalar."""
    for a, b in zip(p1, p2):
        if (a == 0) != (b == 0):
            return False
    for a, b in zip(p1, p2):
        if a != 0:
            s = ctx.div(b, a)
            return all(ctx.mul(x, s) == y for x, y in zip(p1, p2))
    return True


def quotient_relations_report(q, alpha, beta):
    """Verify the degree-q quotient relation and its hyperelliptic involution.

    In the quotient coordinates (t, y) with y^q + y/t = (alpha+beta)/t +
    T(beta/(t+1)), the element z = y^2 + y + beta/(t+1) satisfies

        0 = t^2 z^q + t (T(z) + alpha) + (z + alpha^2 + alpha + beta^2),

    an exact identity in the engine.  The involution t -> C/(z^q t) with
    C = z + alpha^2 + alpha + beta^2 fixes that relation and squares to the
    identity; when beta^2 = alpha + alpha^2 it further satisfies
    t * image(t) = 1/z^(q-1).  All checks are formal polynomial identities.
    """
    e = log_p(q, 2)
    amb, a, b = _cover_params(alpha, beta)
    c0 = amb.add(amb.add(amb.mul(a, a), a), amb.mul(b, b))

    t = UniPoly.X(amb)
    one = UniPoly.one(amb)
    tp1 = t + one
    half, NT = _cleared_trace(tp1, q, b)
    A = RatFn(one, t)
    B = RatFn(UniPoly.const(amb, amb.add(a, b)), t) + RatFn(NT, half)
    F = FnField(amb, q, A, B)
    y = F.gen
    z = F.add(F.add(F.square(y), y), F.const(RatFn(UniPoly.const(amb, b), tp1)))
    zq = F.pow_q(z)
    Tz = F.trace_T(z)
    rel = F.add(
        F.add(F.scale(zq, RatFn(UniPoly.monomial(amb, 2))),
              F.scale(F.add(Tz, F.const(RatFn.const(amb, a))), RatFn(t))),
        F.add(z, F.const(RatFn.const(amb, c0))))
    ok_rel = F.is_zero(rel)

    # formal involution checks on P(t, z) = z^q t^2 + (T(z) + a) t + (z + c0)
    P = BiPoly(amb, {(2, q): 1, (1, 0): a, (0, 1): 1, (0, 0): c0})
    for i in range(e):
        P = P + BiPoly(amb, {(1, 1 << i): 1})
    C = BiPoly(amb, {(0, 1): 1, (0, 0): c0})
    nu_den = BiPoly(amb, {(1, q): 1})        # z^q t
    zq_b = BiPoly(amb, {(0, q): 1})
    ok_fix = P.subst(x=(C, nu_den)) == zq_b * C * P
    # applying the substitution twice returns t: (C nu_den, zq_b C) == t/1
    ok_sq = C * nu_den == BiPoly.X(amb) * (zq_b * C)
    applicable = c0 == 0
    ok_prod = None
    if applicable:
        # t * image(t) = (t C)/(z^q t); equal to 1/z^(q-1) by cross-multiplying
        ok_prod = BiPoly.X(amb) * C * BiPoly(amb, {(0, q - 1): 1}) == nu_den
    ok = ok_rel and ok_fix and ok_sq and ok_prod is not False
    return {
        "check": "quotient_relations",
        "q": q,
        "alpha": alpha.i,
        "beta": beta.i,
        "identities": {"relation": ok_rel, "involution_fixes": ok_fix,
                       "involution_squared": ok_sq},
        "applicable": applicable,
        "pole_product": ok_prod,
        "ok": ok,
    }


# ---------------------------------------------------------------------------
# the plane model

@dataclass(frozen=True)
class CurveModel:
    """The plane model Y^(q+1) + Z^(q+1) + T(YZ) + c = 0 over its constant
    field ambient, with c a packed index in ambient.  The additive cover is
    not a model here: it is the cleared polynomial the certificates check.
    """

    q: int
    ambient: FieldCtx
    c: int


def plane_model(q, c, allow_singular=False):
    """Smooth plane model over GF(2)(c); c must avoid F_2 unless the caller
    explicitly asks for a singular instance to examine."""
    if not isinstance(c, FieldElem) or c.ctx.p != 2:
        raise ValueError("c must be a characteristic-2 field element")
    if c.i in (0, 1) and not allow_singular:
        raise ValueError("c in F_2 gives a singular curve")
    log_p(q, 2)
    return CurveModel(q, c.ctx, c.i)


def smoothness_check(model):
    """Decide smoothness of a plane model and return any singular points.

    The partials are F_Y = Y^q + Z and F_Z = Z^q + Y, so affine singular
    candidates are exactly {(y, y^q) : y in GF(q^2)}; the line at infinity is
    always smooth because the W-partial there reduces to (YZ)^(q/2), nonzero
    at the q+1 points [u : 1 : 0] with u^(q+1) = 1.  Both loci are complete
    over the algebraic closure, so the enumeration is a full certificate.
    """
    q = model.q
    e = log_p(q, 2)
    work = make_field(2, math.lcm(2 * e, model.ambient.e))
    c = lift(FieldElem(model.ambient, model.c), work).i
    big = make_field(2, 2 * e)
    up = embed(big, work)
    singular = []
    for yi in range(big.order):
        y = up.apply(yi)
        z = work.pow_(y, q)
        val = _plane_eval_proj(q, e, work, c, (y, z, 1))
        if val == 0:
            # partials vanish by construction; record the point
            if work.add(work.pow_(y, q), z) or work.add(work.pow_(z, q), y):
                raise ArithmeticError("a partial derivative misses a singular candidate")
            singular.append((FieldElem(work, y), FieldElem(work, z)))
    mu = _unit_root(work, q + 1)
    for k in range(q + 1):
        u = work.pow_(mu, k)
        wpart = work.pow_(u, q // 2)         # (Y Z)^(q/2) at [u : 1 : 0]
        if wpart == 0:
            raise ArithmeticError("a point at infinity is singular")
    return (not singular), singular


# ---------------------------------------------------------------------------
# vectorized counting

@functools.cache
def _quadratic_maps(vf):
    """x^2 + x = d on arrays, as two F_2-linear maps of d: a root x, and a
    residual that is 0 exactly where d lies in the image, i.e. where x solves
    it.  Both come from one Gauss elimination of the basis images, made once
    per VecField."""
    ctx = vf.ctx
    pivots = {}
    for j in range(vf.N):
        val, pre = ctx.mul(1 << j, 1 << j) ^ (1 << j), 1 << j
        while val and val.bit_length() - 1 in pivots:
            v2, p2 = pivots[val.bit_length() - 1]
            val, pre = val ^ v2, pre ^ p2
        if val:
            pivots[val.bit_length() - 1] = (val, pre)

    def solve(d):
        x = 0
        for h in sorted(pivots, reverse=True):
            if (d >> h) & 1:
                d ^= pivots[h][0]
                x ^= pivots[h][1]
        return x, d
    return (vf.linear("quadratic-root", lambda d: solve(d)[0]),
            vf.linear("quadratic-residual", lambda d: solve(d)[1]))


# ---------------------------------------------------------------------------
# point counting

def _count_plane_fiber_range(ctx, q, e, c, n, a, d, lo, hi):
    """Count affine points with y, z != 0 whose product u = yz lies in [lo, hi).

    For fixed u the equation collapses to s^2 + (T(u) + c) s + u^(q+1) = 0
    with s = y^(q+1); each root s in the image of the (q+1)-power map
    contributes n values of y (z is then determined).  (y, z) -> (y^A, z^A),
    A = 2^a the ambient order, carries the fiber of u onto the fiber of u^A,
    so only the least u of each orbit under u -> u^A is counted, weighted by
    the orbit length.  s is an n-th power iff its norm to GF(2^d) is, for n
    dividing 2^d - 1.  Returns (count, the summed weights).
    """
    vf = ctx.vec
    N = vf.N
    if N % a or N % d or (2**d - 1) % n:
        raise ArithmeticError(f"degrees a = {a}, d = {d} do not fit GF(2^{N}) and n = {n}")
    u = np.arange(max(lo, 1), hi, dtype=np.int64)
    least, weight = _frob_orbits(ctx, a, u)
    u, weight = u[least == u], weight[least == u]
    if u.size == 0:
        return 0, 0
    b = vf.trace_T(u, e) ^ c
    uq1 = vf.mul(vf.pow2(u, e), u)
    zero_b = b == 0
    # b = 0: the double root s = sqrt(u^(q+1)) is always a (q+1)-th power
    total = n * int(weight[zero_b].sum())
    nz = ~zero_b
    b, uq1, w = b[nz], uq1[nz], weight[nz]
    if b.size:
        dd = vf.mul(uq1, vf.sq(vf.inv(b)))
        root, residual = _quadratic_maps(vf)
        good = residual(dd) == 0
        b, dd, w = b[good], dd[good], w[good]
        if b.size:
            sol = root(dd)
            if not np.all(vf.sq(sol) ^ sol == dd):
                raise ArithmeticError("the quadratic solver returned a wrong root of s^2 + s = d")
            s = vf.mul(b, sol)
            chi = vf.pow_(vf.norm(s, d), (2**d - 1) // n) == 1
            total += 2 * n * int(w[chi].sum())
    return total, int(weight.sum())


def _count_plane_fiber(q, e, ext, c, n, a, threads):
    Q = ext.order
    N = ext.e
    # least subfield GF(2^d) whose unit group has order divisible by n
    d = next(k for k in range(1, N + 1) if N % k == 0 and (2**k - 1) % n == 0)
    total = n                                 # points at infinity
    if ext.pow_(c, (Q - 1) // n) == 1:        # y = 0 and z = 0 sections
        total += 2 * n
    parts = _fan_out(_count_plane_fiber_range, [
        (ext, q, e, c, n, a, d, lo, min(lo + VEC_CHUNK, Q)) for lo in range(1, Q, VEC_CHUNK)],
        threads)
    if sum(w for _, w in parts) != Q - 1:
        raise ArithmeticError(f"orbit weights do not sum to the {Q - 1} values of u")
    return total + sum(t for t, _ in parts)


def _count_plane_perz(q, e, ext, c, n):
    Q = ext.order
    X = UniPoly.X(ext)
    total = n
    for z in range(Q):
        coeffs = [0] * (q + 2)
        coeffs[q + 1] = 1
        for i in range(e):
            k = 1 << i
            coeffs[k] ^= ext.pow_(z, k)
        coeffs[0] ^= ext.add(ext.pow_(z, q + 1), c)
        fz = UniPoly(ext, coeffs)
        xq = X.pow_mod(Q, fz)
        total += fz.gcd(xq + X).degree
    return total


def _count_plane_brute(q, e, ext, c, n):
    Q = ext.order
    vf = ext.vec
    y = np.arange(Q, dtype=np.int64)
    yq1 = vf.mul(vf.pow2(y, e), y)
    total = n
    for z in range(Q):
        zq1 = int(yq1[z])
        u = vf.mul(y, z)
        f = yq1 ^ vf.trace_T(u, e) ^ zq1 ^ c
        total += int(np.count_nonzero(f == 0))
    return total


def count_points(model, m, strategy="fiber", threads=1):
    """Projective points of a smooth plane model (c outside F_2) over the
    degree-m extension GF(Q) of its ambient field GF(A); a singular model
    raises ValueError.  "fiber" (product fibration, guard 2^24) is the
    production counter; "per-z" (root counting by gcd) and
    "brute" (exhaustive pairs), both guarded at 2^12, are the independent
    references it is tested against.  A total outside the Weil bound raises
    ArithmeticError.

    The fiber counter sums the points of the fibers yz = u (README, design
    notes, with references).  As c lies in GF(A) and T has F_2 coefficients,
    (y, z) -> (y^A, z^A) maps the fiber of u onto that of u^A, so one u per
    orbit of u -> u^A is counted, weighted by the orbit length.  A root s is
    a (q+1)-th power iff s^((Q-1)/n) = 1, n = gcd(q+1, Q-1); for the least
    d dividing log2 Q with n | 2^d - 1 that is N(s)^((2^d-1)/n), N the norm
    to GF(2^d), which VecField.norm forms by the Itoh-Tsujii chain.  (n need
    not divide A - 1: q = 8 over GF(16) at m = 3 has n = 9.)
    """
    if m < 1:
        raise ValueError("extension degree must be positive")
    if model.c in (0, 1):
        raise ValueError("c in F_2 gives a singular curve; its count is not supported")
    if strategy not in ("fiber", "per-z", "brute"):
        raise ValueError(f"unknown strategy {strategy!r}")
    Q = model.ambient.order**m
    guard = FIBER_GUARD if strategy == "fiber" else DENSE_GUARD
    if Q > guard:
        raise ValueError(f"enumeration size {Q} exceeds the guard {guard}")
    q = model.q
    ext = make_field(2, model.ambient.e * m)
    c = lift(FieldElem(model.ambient, model.c), ext).i
    # the last entry, n = gcd(q + 1, Q - 1), counts the points at infinity
    plane = (q, log_p(q, 2), ext, c, math.gcd(q + 1, Q - 1))
    if strategy == "fiber":
        total = _count_plane_fiber(*plane, model.ambient.e, threads)
    else:
        total = (_count_plane_perz if strategy == "per-z" else _count_plane_brute)(*plane)
    g = q * (q - 1) // 2
    if (total - Q - 1) ** 2 > 4 * g * g * Q:
        raise ArithmeticError(f"count {total} over GF({Q}) breaks the Weil bound")
    return total


# ---------------------------------------------------------------------------
# polynomials over Q: lists of Fractions, low degree first, no trailing zeros

def _q_divmod(a, b):
    """Quotient and remainder of a by a nonzero b."""
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        k = len(a) - len(b)
        c = a[-1] / b[-1]
        q[k] = c
        for i, bi in enumerate(b):
            a[k + i] -= c * bi
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return q, a


def _q_deriv(a):
    return [i * c for i, c in enumerate(a)][1:]


def _q_squarefree(a):
    """a divided by its monic gcd with a': the same roots, each simple."""
    u, v = a, _q_deriv(a)
    while v:
        u, v = v, _q_divmod(u, v)[1]
    return _q_divmod(a, [c / u[-1] for c in u])[0]


def _sturm_count(f, lo, hi):
    """Distinct real roots in (lo, hi] of a square-free f, lo < hi."""
    chain = [f]
    nxt = _q_deriv(f)
    while nxt:
        chain.append(nxt)
        nxt = [-c for c in _q_divmod(chain[-2], chain[-1])[1]]

    def changes(x):
        signs = []
        for p in chain:
            v = Fraction(0)
            for c in reversed(p):
                v = v * x + c
            if v:
                signs.append(v > 0)
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return changes(lo) - changes(hi)


# ---------------------------------------------------------------------------
# zeta data

@dataclass(frozen=True)
class ZetaData:
    """Counts and L-polynomial of a curve over its base field."""

    g: int
    base: int
    counts: tuple
    L: tuple
    p_rank: int

    def to_json(self):
        return {"g": self.g, "base": self.base, "counts": list(self.counts),
                "L": list(self.L), "p_rank": self.p_rank}


def zeta(model, g, threads=1, counts=None):
    """Counts over m = 1..g, then the L-polynomial with full validation.

    The reciprocal-root power sums are S_m = base^m + 1 - N_m; Newton's
    identities give a_1..a_g, the functional equation a_{2g-i} = base^{g-i} a_i
    completes the polynomial, and the result is checked for integrality and
    for root radii |root| = base^(-1/2) exactly (_weil_radius_certified).
    Those two imply the rest: the completed L reproduces every input count,
    since its first g coefficients are the a_k, and L(1) = prod (1 + base - x)
    over the real roots |x| <= 2 sqrt(base) of H is positive.
    Raises when the counts admit no valid L-polynomial.  Passing counts skips
    the enumeration and validates the supplied values instead (replay path for
    cached runs).
    """
    base = model.ambient.order
    if counts is None:
        counts = [count_points(model, m, threads=threads) for m in range(1, g + 1)]
    counts = [int(n) for n in counts]
    if len(counts) != g:
        raise ValueError(f"need counts for m = 1..{g}")
    S = [base**m + 1 - counts[m - 1] for m in range(1, g + 1)]
    a = [Fraction(1)]
    for k in range(1, g + 1):
        s = sum(Fraction(S[j - 1]) * a[k - j] for j in range(1, k + 1))
        ak = -s / k
        if ak.denominator != 1:
            raise ValueError(f"counts are inconsistent: a_{k} = {ak} is not integral")
        a.append(ak)
    L = [int(x) for x in a] + [0] * g
    for i in range(g):
        L[2 * g - i] = base**(g - i) * L[i]
    if not _weil_radius_certified(L, base):
        raise ValueError("reciprocal roots stray from absolute value sqrt(base)")
    p_rank = next(k for k in range(g, -1, -1) if L[k] % 2)
    return ZetaData(g, base, tuple(counts), tuple(L), p_rank)


def _weil_radius_certified(L, base):
    """Whether every reciprocal root of L has absolute value sqrt(base), exactly.

    L = 1 + ... + L_2g T^(2g) must satisfy T^(2g) L(1/T) = T^g H(T + base/T)
    for an integer polynomial H of degree g; a ValueError says it does not.
    The reciprocal roots pair up as alpha, base/alpha over the roots
    x = alpha + base/alpha of H, and |alpha| = sqrt(base) exactly when x is
    real with x^2 <= 4 base.  So the radii are right exactly when all g roots
    of G(y) = H(x) H(-x), y = x^2, lie in [0, 4 base] counted with
    multiplicity, that is, when every root of the square-free part of G
    does; a Sturm chain over the rationals counts those in the interval.
    """
    L = [int(c) for c in L]
    g = len(L) // 2
    # the form holds exactly when the functional equation does: both sides
    # are then Laurent polynomials in T fixed by T -> base/T
    if len(L) % 2 == 0 or L[0] != 1 or any(
            L[2 * g - i] != base**(g - i) * L[i] for i in range(g)):
        raise ValueError("L is not 1 + ... with T^(2g) L(1/T) = T^g H(T + base/T)")
    # peel the top half of T^(2g) L(1/T) / T^g by powers of (T + base/T)
    c = [L[g - k] for k in range(g + 1)]
    h = [0] * (g + 1)
    for k in range(g, -1, -1):
        h[k] = c[k]
        for j in range(1, k // 2 + 1):
            c[k - 2 * j] -= h[k] * math.comb(k, j) * base**j
    hx = [0] * (2 * g + 1)
    for i in range(g + 1):
        for j in range(g + 1):
            hx[i + j] += h[i] * (-1) ** j * h[j]
    sf = _q_squarefree([Fraction(x) for x in hx[::2]])
    inside = _sturm_count(sf, 0, 4 * base) + (sf[0] == 0)
    return inside == len(sf) - 1


# ---------------------------------------------------------------------------
# Weil-bound arithmetic

def weil_check(g, s, claimed):
    """Compare a claimed point count with s + 1 + 2g sqrt(s), exactly.

    The comparison squares both sides: the claim violates the bound precisely
    when claimed > s + 1 and (claimed - s - 1)^2 > 4 g^2 s.
    """
    if not (g >= 0 and s >= 2 and claimed >= 0):
        raise ValueError(f"weil_check needs g >= 0, s >= 2 and claimed >= 0, "
                         f"got {g}, {s}, {claimed}")
    excess = claimed - s - 1
    violates = excess > 0 and excess * excess > 4 * g * g * s
    return {
        "g": g,
        "s": s,
        "claimed": claimed,
        "weil_max": s + 1 + math.isqrt(4 * g * g * s),
        "violates": violates,
        "consistent": not violates,
    }


def weil_contradiction_report(q):
    """Mechanize the genus/point-count contradiction for q in {8, 32}.

    With G of order q(q^2 - 1) acting on the genus-q(q-1)/2 curve, one place
    of the quotient lies under |G|/2 rational places over the quadratic
    extension of the prime-to-constant subfield F_{2^e'} for each divisor e'
    of e.  For proper divisors the relevant size is s = 2^(2e'); for e' = e
    the subfield argument pins the constant field only up to a quadratic
    extension, so both candidate sizes 2^e and 2^(2e) are reported and the
    violating one is flagged.
    """
    if q not in (8, 32):
        raise ValueError("report covers q = 8 and q = 32")
    e = log_p(q, 2)
    g = q * (q - 1) // 2
    group = q * (q * q - 1)
    places = group // 2
    cases = []
    for ep in [d for d in range(1, e + 1) if e % d == 0]:
        cands = [2**(2 * ep)] if ep < e else [2**e, 2**(2 * e)]
        checks = [weil_check(g, s, places) for s in cands]
        cases.append({
            "e_prime": ep,
            "candidates": cands,
            "checks": checks,
            "violated": any(ch["violates"] for ch in checks),
        })
    return {
        "q": q,
        "genus": g,
        "group_order": group,
        "places": places,
        "cases": cases,
        "all_cases_violated": all(c["violated"] for c in cases),
    }

"""Coset cycle types for the semilinear action on Frobenius pairs, and
empirical factorization-shape statistics for comparison.

The permutation model: PGL2(q) (for even q this equals PSL2(q) = SL2(q)
mod center) acts on the (q^2-q)/2 unordered pairs {x, x^q} with x in
GF(q^2) outside GF(q).  Semilinear elements carry a Frobenius power j;
the convention is twist-then-map: x maps to M(x^(2^j)).  The two
possible conventions give inverse cosets, so the choice is fixed here
and documented.

Empirical side: for f monic over a base field GF(s), the factorization
shape of f(X) - t is the multiset of degrees of the distinct
irreducible factors (multiplicity collapsed to the radical).  Over the
unramified t the shapes realize Frobenius cycle types, so the empirical
distribution can be compared against an exact coset distribution.

Two shape engines back chebotarev_sample.  Small jobs read each fiber's
factor degrees from its distinct-degree split (poly._squarefree_decomp,
then poly._ddf: a product of degree D at level d holds D / d factors), so
no factor is split off; the full factor runs only for the checks.  Large
char-2 jobs run a vectorized engine that never factors, on the base's
ff.VecField (log tables up to 2^16 elements, byte-table products above, so
on every base the API takes): with the fixed modulus h = f - t it computes
r_d = deg gcd(h, X^(s^d) - X) for d = 1, 2, ... by one Euclidean loop
across all live fibers at once, and takes the number of distinct degree-d
factors from r_d = sum over k | d of k * m_k as the rounds run.  A fiber
leaves that loop once its gcd is known, and the loop's columns follow the
largest degree left; the squarings mod h multiply by the fixed rows
X^(m+j) mod h through VecField.times, which takes their logs once a round.
A fiber leaves the live set once its uncounted degree r is below 2(d + 1),
the stopping rule poly._ddf uses: every factor of degree <= d is counted,
so r is zero or one irreducible factor.  Ramified fibers
are delegated to the direct path; their branch set, from one factorization
of f', is found once per run, before the fibers are split across jobs.  A
fixed subsample (the first, middle and last unramified fiber) of every
vectorized run is re-checked against full factorization.

Orbit reduction: when f has coefficients in GF(p^a), applying the
Frobenius x -> x^(p^a) to f - t gives f - t^(p^a), so the two fibers
factor with the same shape.  chebotarev_sample maps every t to the least
element of its orbit, computes shapes once per representative, and weights
each by the number of t in its orbit, which gives exactly the distribution
of one fiber per t.  One representative's Frobenius image is factored
directly on every run as a check; _shapes_for(fb, ts) stays the unreduced
engine and the test oracle.  An exhaustive run also checks a conservation
law: each x in the base is a root of exactly one fiber f - f(x), so the
orbit weights times the linear factors of the shapes sum to the base size.
"""

import random
from fractions import Fraction

import numpy as np

from .ff import (FieldElem, _fan_out, _frob_orbits, _frob_step, embed, lift, log_p,
                 make_field)
from .poly import UniPoly, _ddf, _squarefree_decomp, factor

# Exhaustive sampling is capped at this base-field size.
EXHAUSTIVE_LIMIT = 1 << 20
# Below this many fibers (or degree), the direct per-fiber path wins.  With
# Frobenius-row powers in the direct path and per-fiber stopping in the
# engine, over GF(2^6..2^12) for random monic f of degree 5, 12 and 28 the
# vectorized engine, its three direct spot checks and the factoring of f'
# for the branch points included, took 29-60% of the direct path's time at
# 32 fibers, 34-132% at 16 and 87-186% at 8 (medians of three, 2-core
# x86-64, Python 3.11).
VECTOR_MIN_FIBERS = 32
# How many fibers of each vectorized run are re-checked directly.
VECTOR_SPOT_CHECKS = 3


class CycleDist:
    """Exact distribution over factorization shapes / cycle types.

    entries maps a sorted tuple of positive parts to a Fraction weight.
    Weights must sum to 1.  Parts sum to at most degree; equality holds
    for genuine cycle types, while radical shapes of ramified fibers
    fall short.
    """

    __slots__ = ("degree", "entries")

    def __init__(self, degree, entries):
        if degree < 1:
            raise ValueError("degree %r must be positive" % (degree,))
        total = Fraction(0)
        clean = {}
        for shape, w in entries.items():
            shape = tuple(sorted(shape))
            if not shape:
                raise ValueError("empty shape")
            if shape[0] < 1:
                raise ValueError("nonpositive part in %r" % (shape,))
            if sum(shape) > degree:
                raise ValueError("shape %r exceeds degree %d" % (shape, degree))
            w = Fraction(w)
            if w <= 0:
                raise ValueError("weight %s of shape %r is not positive" % (w, shape))
            if shape in clean:
                raise ValueError("shape %r listed twice" % (shape,))
            clean[shape] = w
            total += w
        if total != 1:
            raise ValueError("weights sum to %s, not 1" % (total,))
        self.degree = degree
        self.entries = clean

    def support(self):
        return frozenset(self.entries)

    def unramified(self):
        """Restriction to full-degree shapes, renormalized."""
        keep = {s: w for s, w in self.entries.items() if sum(s) == self.degree}
        if not keep:
            raise ValueError("no full-degree shapes to keep")
        total = sum(keep.values())
        return CycleDist(self.degree, {s: w / total for s, w in keep.items()})

    def average_fixed_points(self):
        """Expected number of parts equal to 1 (Burnside statistic)."""
        return sum(w * shape.count(1) for shape, w in self.entries.items())

    def to_json(self):
        return {
            "degree": self.degree,
            "entries": [
                {"type": list(shape), "weight": str(w)}
                for shape, w in sorted(self.entries.items())
            ],
        }

    @classmethod
    def from_json(cls, obj):
        entries = {}
        for rec in obj["entries"]:
            entries[tuple(rec["type"])] = Fraction(rec["weight"])
        return cls(obj["degree"], entries)

    def __eq__(self, other):
        if not isinstance(other, CycleDist):
            return NotImplemented
        return self.degree == other.degree and self.entries == other.entries

    def __repr__(self):
        return "CycleDist(degree=%d, %d shapes)" % (self.degree, len(self.entries))


def dist_compare(a, b):
    """Total-variation distance between two shape distributions."""
    if a.degree != b.degree:
        raise ValueError(
            "degree mismatch: %d vs %d" % (a.degree, b.degree))
    keys = set(a.entries) | set(b.entries)
    acc = Fraction(0)
    for k in keys:
        acc += abs(a.entries.get(k, Fraction(0)) - b.entries.get(k, Fraction(0)))
    return acc / 2


class PermAction:
    """The degree q(q-1)/2 action of PGL2(q) cosets on Frobenius pairs.

    Points are unordered pairs {x, x^q} with x in GF(q^2) off GF(q),
    stored by the smaller packed index of the two conjugates.  Group
    elements are matrices (a, b, c, d) over GF(q) mod scalars together
    with a Frobenius power j; the element sends x to M(x^(2^j)) where
    M is the fractional-linear map.
    """

    def __init__(self, q):
        if q not in (4, 8, 16, 32):
            raise ValueError("q must be one of 4, 8, 16, 32, got %r" % (q,))
        self.q = q
        self.e = log_p(q, 2)
        self.ctx2 = make_field(2, 2 * self.e)
        ctx2 = self.ctx2
        gfq = make_field(2, self.e)
        up = embed(gfq, ctx2)
        # Packed-index image of GF(q) inside GF(q^2).
        self.lift = [up.apply(i) for i in range(q)]
        subfield = set(self.lift)
        # x^q table over GF(q^2): e squarings.
        order2 = q * q
        frq = list(range(order2))
        for _ in range(self.e):
            frq = [ctx2.mul(x, x) for x in frq]
        self.frobq = frq
        # Squaring table, for the semilinear twist.
        self.sq = [ctx2.mul(x, x) for x in range(order2)]
        reps = []
        pair_id = {}
        for x in range(order2):
            if x in subfield:
                continue
            r = min(x, frq[x])
            if r == x:
                pair_id[r] = len(reps)
                reps.append(r)
        self.domain = reps
        self.pair_id = pair_id
        if len(reps) != q * (q - 1) // 2:
            raise ArithmeticError("domain size %d" % len(reps))
        g = gfq.gen
        self.gens = [(1, 1, 0, 1), (g, 0, 0, 1), (0, 1, 1, 0)]
        self._elements = None
        self._validate()

    def elements(self):
        """All q^3 - q canonical matrices (first nonzero entry 1)."""
        if self._elements is not None:
            return self._elements
        q = self.q
        gfq = make_field(2, self.e)
        out = []
        for b in range(q):
            for c in range(q):
                bc = gfq.mul(b, c)
                for d in range(q):
                    if d != bc:  # det = d + b c must not vanish
                        out.append((1, b, c, d))
        for c in range(1, q):
            for d in range(q):
                out.append((0, 1, c, d))
        if len(out) != q ** 3 - q:
            raise ArithmeticError("linear group order %d" % len(out))
        self._elements = out
        return out

    def apply(self, mat, j, x):
        """Image of the pair represented by x under (mat, frobenius^j)."""
        ctx2 = self.ctx2
        lift = self.lift
        for _ in range(j % self.e):
            x = self.sq[x]
        a, b, c, d = mat
        num = ctx2.add(ctx2.mul(lift[a], x), lift[b])
        den = ctx2.add(ctx2.mul(lift[c], x), lift[d])
        y = ctx2.div(num, den)
        yq = self.frobq[y]
        return y if y < yq else yq

    def point_perm(self, mat, j):
        """The permutation of domain ordinals induced by (mat, j)."""
        pid = self.pair_id
        return [pid[self.apply(mat, j, x)] for x in self.domain]

    def cycle_type(self, mat, j):
        perm = self.point_perm(mat, j)
        n = len(perm)
        seen = [False] * n
        parts = []
        for s in range(n):
            if seen[s]:
                continue
            length = 0
            t = s
            while not seen[t]:
                seen[t] = True
                t = perm[t]
                length += 1
            parts.append(length)
        return tuple(sorted(parts))

    def _validate(self):
        q = self.q
        n = len(self.domain)
        # Transitivity: orbit of the three generators covers the domain.
        start = self.pair_id[self.domain[0]]
        seen = {start}
        frontier = [start]
        perms = [self.point_perm(g, 0) for g in self.gens]
        while frontier:
            nxt = []
            for s in frontier:
                for perm in perms:
                    t = perm[s]
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
            frontier = nxt
        if len(seen) != n:
            raise ArithmeticError(
                "action not transitive: orbit %d of %d" % (len(seen), n))
        # Point stabilizer order, by direct count over all elements.
        base = self.domain[0]
        stab = sum(1 for mat in self.elements() if self.apply(mat, 0, base) == base)
        if stab != 2 * (q + 1):
            raise ArithmeticError(
                "stabilizer order %d, want %d" % (stab, 2 * (q + 1)))


_ACTIONS = {}
_COSET_DISTS = {}


def build_action(q):
    """Construct and validate the pair action for q in {4, 8, 16, 32}."""
    if q not in _ACTIONS:
        _ACTIONS[q] = PermAction(q)
    return _ACTIONS[q]


def coset_cycle_types(q, j):
    """Exact cycle-type distribution of the coset (linear group) * frob^j."""
    act = build_action(q)
    if not 0 <= j < act.e:
        raise ValueError("frobenius power %r out of range [0, %d)" % (j, act.e))
    key = (q, j)
    if key in _COSET_DISTS:
        return _COSET_DISTS[key]
    counts = {}
    for mat in act.elements():
        ct = act.cycle_type(mat, j)
        counts[ct] = counts.get(ct, 0) + 1
    order = q ** 3 - q
    dist = CycleDist(
        q * (q - 1) // 2,
        {ct: Fraction(c, order) for ct, c in counts.items()},
    )
    if j == 0:
        ident = tuple([1] * (q * (q - 1) // 2))
        if dist.entries.get(ident) != Fraction(1, order):
            raise ArithmeticError("the identity is not one element of the coset")
        # Burnside: a transitive action averages one fixed point.
        if dist.average_fixed_points() != 1:
            raise ArithmeticError("the coset does not average one fixed point")
    _COSET_DISTS[key] = dist
    return dist


# ---------------------------------------------------------------------------
# Shape engines


def _shape_ddf(fb, t):
    """Radical factorization shape of f - t from the distinct-degree split:
    a product of degree D at level d holds D / d factors of degree d, and
    the squarefree parts are coprime, so no factor is counted twice."""
    h = (fb - UniPoly.const(fb.ctx, t)).monic()
    shape = []
    for g, _mult in _squarefree_decomp(h):
        for prod, d in _ddf(g):
            if prod.degree % d:
                raise ArithmeticError("degree %d at level %d of fiber %d" % (prod.degree, d, t))
            shape += [d] * (prod.degree // d)
    if not shape:
        raise ArithmeticError("fiber at t index %d has no factor" % t)
    return tuple(sorted(shape))


def _shape_one(fb, t):
    """Radical factorization shape of f - t by full factorization; the
    independent path behind the spot checks and the orbit check."""
    h = fb - UniPoly.const(fb.ctx, t)
    fac = factor(h, seed=0)
    shape = tuple(sorted(p.degree for p, _mult in fac.factors))
    if not shape:
        raise ArithmeticError("fiber at t index %d has no factor" % t)
    return shape


def branch_points(f, base):
    """All t in base whose fiber f - t is not squarefree.

    gcd(f - t, f') is nontrivial exactly when some irreducible factor P
    of f' divides f - t, i.e. when f mod P is the constant t.  Factoring
    f' once per base therefore finds every branch value.
    """
    fb = lift(f, base)
    fprime = fb.derivative()
    if fprime.is_zero():
        raise ValueError("derivative vanishes identically; every fiber is ramified")
    vals = set()
    for pfac, _mult in factor(fprime, seed=0).factors:
        if pfac.degree == 0:
            continue
        r = fb % pfac
        if r.degree <= 0:
            vals.add(r.coeff(0))
    return [FieldElem(base, v) for v in sorted(vals)]


def _gcd_degrees(vf, H, V0):
    """deg gcd(h, v) per fiber, h rows of H (monic), v rows of V0, over vf.

    Mask-synchronized Euclid: every iteration eliminates the leading
    coefficient of the currently-larger polynomial in each live fiber,
    swapping when degrees cross.  A fiber leaves, its result written under
    its original row, once V is zero (the gcd is U) or a nonzero constant
    (the gcd is 1), and U and V are cut to the largest live degree.
    """
    width = H.shape[1]
    out = np.empty(len(H), dtype=np.int64)
    idx = np.arange(len(H))
    U = H.copy()
    V = np.zeros_like(U)
    V[:, : V0.shape[1]] = V0

    def degrees(M):
        nz = M != 0
        top = M.shape[1] - 1 - np.argmax(nz[:, ::-1], axis=1)
        return np.where(nz.any(axis=1), top, -1)

    dU = degrees(U)
    dV = degrees(V)
    guard = 0
    while len(idx):
        guard += 1
        if guard > 3 * width + 10:
            raise ArithmeticError("gcd loop failed to converge")
        swap = dU < dV
        if swap.any():
            sw = swap[:, None]
            U, V = np.where(sw, V, U), np.where(sw, U, V)
            dU, dV = np.where(swap, dV, dU), np.where(swap, dU, dV)
        done = dV <= 0
        if done.any():
            out[idx[done]] = np.where(dV[done] == 0, 0, dU[done])
            keep = ~done
            idx, U, V, dU, dV = idx[keep], U[keep], V[keep], dU[keep], dV[keep]
            if not len(idx):
                break
        w = int(dU.max()) + 1
        U, V = U[:, :w], V[:, :w]
        rows = np.arange(len(idx))
        coef = vf.mul(U[rows, dU], vf.inv(V[rows, dV]))
        src = np.arange(w)[None, :] - (dU - dV)[:, None]
        vsh = np.where(src >= 0, V[rows[:, None], np.maximum(src, 0)], 0)
        U = U ^ vf.mul(coef[:, None], vsh)
        dU = degrees(U)
    return out


def _vector_shapes(fb, ts, branch_set):
    """Radical shapes for many fibers at once; char-2 base, f monic.

    Returns a list of shape tuples aligned with ts.  Ramified fibers
    (t in branch_set) are computed by the direct path; the vectorized
    root-count recursion assumes a squarefree modulus everywhere else.
    Round d counts the degree-d factors of every live fiber; a fiber
    leaves once its uncounted degree r is below 2(d + 1), the stopping
    rule of poly._ddf, because r is then zero or one irreducible factor.
    """
    ctx = fb.ctx
    m = fb.degree
    if m < 3 or not fb.is_monic():
        raise ValueError("the vectorized engine needs f monic of degree >= 3")
    vf = ctx.vec
    n = ctx.e
    flow = np.array([fb.coeff(i) for i in range(m)], dtype=np.int64)
    ts_arr = np.asarray(ts, dtype=np.int64)

    shapes = [None] * len(ts)
    chunk = 4096
    for lo in range(0, len(ts), chunk):
        tchunk = ts_arr[lo: lo + chunk]
        live = []
        for i, t in enumerate(tchunk.tolist()):
            if t in branch_set:
                shapes[lo + i] = _shape_ddf(fb, t)
            else:
                live.append(i)
        live = np.array(live, dtype=np.int64)
        nf = len(live)
        # h = f - t: X^m reduces to hlow, the low part with t folded in.
        hlow = np.broadcast_to(flow, (nf, m)).copy()
        hlow[:, 0] ^= tchunk[live]
        # red[j] = X^(m+j) mod h for the even spread positions.
        red = np.zeros((m - 1, nf, m), dtype=np.int64)
        red[0] = hlow
        times_hlow = vf.times(hlow)
        for j in range(1, m - 1):
            red[j][:, 1:] = red[j - 1][:, : m - 1]
            red[j] ^= times_hlow(red[j - 1][:, m - 1:])
        half = (m + 1) // 2

        def sqmod(B):
            sq = vf.sq(B)
            out = np.zeros_like(B)
            out[:, : 2 * half - 1: 2] = sq[:, :half]
            for i, times_red in enumerate(reds, half):
                out ^= times_red(sq[:, i:i + 1])
            return out

        H = np.zeros((nf, m + 1), dtype=np.int64)
        H[:, :m] = hlow
        H[:, m] = 1
        # mults[:, k] = number of degree-k factors; rest = degree not yet counted
        mults = np.zeros((nf, m // 2 + 1), dtype=np.int64)
        rest = np.full(nf, m, dtype=np.int64)
        B = np.zeros((nf, m), dtype=np.int64)
        B[:, 1] = 1
        d = 0
        while len(live):
            d += 1
            # the rows of red are fixed for a round: times takes their logs once
            reds = [vf.times(red[2 * i - m]) for i in range(half, m)]
            for _ in range(n):
                B = sqmod(B)
            V0 = B.copy()
            V0[:, 1] ^= 1
            # deg gcd(h, X^(s^d) - X) = sum over k | d of k * mults[:, k]
            acc = _gcd_degrees(vf, H, V0)
            for k in range(1, d // 2 + 1):
                if d % k == 0:
                    acc -= k * mults[:, k]
            if (acc % d).any() or (acc < 0).any():
                raise ArithmeticError("root counts are not Moebius-consistent")
            mults[:, d] = acc // d
            rest -= acc
            done = rest < 2 * (d + 1)
            if not done.any():
                continue
            # every factor of degree <= d is counted: what is left is one factor
            bad = done & ((rest < 0) | ((rest > 0) & (rest <= d)))
            if bad.any():
                raise ArithmeticError(
                    "leftover degree %d is impossible" % int(rest[bad][0]))
            for i in np.flatnonzero(done).tolist():
                parts = []
                for k in range(1, d + 1):
                    parts.extend([k] * int(mults[i, k]))
                if rest[i]:
                    parts.append(int(rest[i]))
                shapes[lo + int(live[i])] = tuple(parts)
            keep = ~done
            live, rest, mults = live[keep], rest[keep], mults[keep]
            B, H, red = B[keep], H[keep], red[:, keep]
    # Spot-check the first, middle and last unramified fiber against the
    # direct path; the ramified ones were factored directly above.
    picks = [i for i, t in enumerate(ts_arr.tolist()) if t not in branch_set]
    if len(picks) > VECTOR_SPOT_CHECKS:
        picks = [picks[0], picks[len(picks) // 2], picks[-1]]
    for i in picks:
        if shapes[i] != _shape_one(fb, int(ts_arr[i])):
            raise ArithmeticError(
                "vectorized shape disagrees with direct factorization at t index %d"
                % int(ts_arr[i]))
    return shapes


def _vectorizes(fb, n):
    """Whether a batch of n fibers of fb goes to the vectorized engine; the
    one engine-choice rule."""
    return (n >= VECTOR_MIN_FIBERS and fb.ctx.p == 2 and fb.degree >= 3 and fb.is_monic()
            and not fb.derivative().is_zero())


def _branch_set(fb):
    """The branch values of fb as packed indices."""
    return {e.i for e in branch_points(fb, fb.ctx)}


def _shapes_for(fb, ts, branch=None):
    """Dispatch between the direct and vectorized engines; branch is
    _branch_set(fb), found here when a vectorized batch is not given it."""
    if _vectorizes(fb, len(ts)):
        return _vector_shapes(fb, ts, _branch_set(fb) if branch is None else branch)
    return [_shape_ddf(fb, t) for t in ts]


def _subfield_degree(fb):
    """Least a dividing e with every coefficient of fb in GF(p^a)."""
    ctx = fb.ctx
    for a in range(1, ctx.e + 1):
        if ctx.e % a == 0 and all(ctx.pow_(c, ctx.p ** a) == c for c in fb.c):
            return a


def _check_orbit(fb, a, reps, shapes):
    """Factor the Frobenius image of one representative directly; its shape
    must be the representative's."""
    imgs = _frob_step(fb.ctx, a)(np.asarray(reps, dtype=np.int64))
    moved = np.flatnonzero(imgs != reps)
    if len(moved):
        i = int(moved[len(moved) // 2])
        if _shape_one(fb, int(imgs[i])) != shapes[i]:
            raise ArithmeticError(
                "fibers %d and %d lie in one Frobenius orbit but have "
                "different shapes" % (reps[i], int(imgs[i])))


def chebotarev_sample(f, base, mode="exhaustive", n=None, seed=None, threads=1):
    """Empirical distribution of fiber factorization shapes of f over base.

    mode "exhaustive" walks every t in base (size capped at 2^20);
    mode "sampled" draws n distinct t values with the given seed.
    Every fiber contributes the radical shape of f - t, ramified fibers
    included; use CycleDist.unramified() to restrict before a
    Chebotarev comparison.  An exhaustive run checks that the weighted
    linear factors number the base's elements (ArithmeticError otherwise).
    threads > 1 splits the representatives across worker processes.
    """
    fb = lift(f, base)
    if fb.degree < 1:
        raise ValueError("f must be nonconstant")
    size = base.order
    if mode == "exhaustive":
        if size > EXHAUSTIVE_LIMIT:
            raise ValueError(
                "base size %d exceeds the exhaustive cap %d" % (size, EXHAUSTIVE_LIMIT))
        ts = list(range(size))
    elif mode == "sampled":
        if n is None or seed is None:
            raise ValueError("sampled mode needs n and seed")
        if not 0 < n <= size:
            raise ValueError("cannot draw %d distinct values from %d" % (n, size))
        ts = sorted(random.Random(seed).sample(range(size), n))
    else:
        raise ValueError("mode must be 'exhaustive' or 'sampled', got %r" % (mode,))

    # f - t and f - t^(p^a) have the same shape: factor one fiber per orbit
    a = _subfield_degree(fb)
    reps, mult = np.unique(_frob_orbits(base, a, ts)[0], return_counts=True)
    reps = [int(r) for r in reps]
    if threads > 1 and len(reps) >= 4 * VECTOR_MIN_FIBERS:
        step = -(-len(reps) // threads)
    else:
        step = len(reps)
    # the branch set is found once here, not once per job
    branch = _branch_set(fb) if _vectorizes(fb, step) else None
    parts = _fan_out(_shapes_for, [(fb, reps[i: i + step], branch)
                                   for i in range(0, len(reps), step)], threads)
    shapes = [sh for part in parts for sh in part]
    _check_orbit(fb, a, reps, shapes)
    mult = mult.tolist()
    # every x in the base lies in exactly one fiber, that of t = f(x), as one
    # linear factor of f - t: the linear factors over all fibers number |base|
    if mode == "exhaustive" and sum(c * sh.count(1) for sh, c in zip(shapes, mult)) != size:
        raise ArithmeticError("the linear factors over all fibers do not number the %d "
                              "elements of the base" % size)

    counts = {}
    for sh, c in zip(shapes, mult):
        counts[sh] = counts.get(sh, 0) + c
    total = len(ts)
    return CycleDist(
        fb.degree, {sh: Fraction(c, total) for sh, c in counts.items()})

"""Exact arithmetic in a number field K = Q[x]/(p) with certified embeddings.

A field is defined by a monic irreducible polynomial p.  Elements live
in the power basis 1, a, ..., a^(d-1) as integer numerators over one
denominator, reduced by their gcd, so equality is literal; products fold
through a table of x^k mod p (Cohen, A Course in Computational Algebraic
Number Theory, 4.2).  Embeddings into R and C are certified: every
numeric answer comes as an integer midpoint-radius ball (intervals.Ball)
guaranteed to contain the true value, refinable to any width.  `embed`
evaluates exactly at the dyadic centre of a place's ball and bounds the
rest of the ball in integers, so no rational arithmetic runs on the way
to a sign.

Root enclosures come from one function, `root_enclosures`; `isolate_roots`
puts them in place order.  The approximations come from the Aberth-Ehrlich
iteration in fixed point, on Gaussian integers over 2^prec, started at
Bini's points, whose radii are read off the upper convex hull of the
points (k, log2|a_k|).  Each iterate is certified by the inclusion disk
|w - c| <= n |p(c)/p'(c)| (Rump, "Verification methods", Acta Numerica
19, 2010), whose radius is evaluated exactly in integers and rounded up.
n pairwise disjoint disks hold one root each, so a disk centred on R
holds a real root and a disk off R a non-real one.  A place refines its
ball by Newton steps on a dyadic grid and keeps a monotone cache.  Every
decision made on balls walks one precision ladder, `refine`.
"""

from __future__ import annotations

import copy
from fractions import Fraction
from functools import cached_property, cmp_to_key, lru_cache, partial
from math import comb, cos, floor, gcd, isqrt, lcm, log2, pi, sin
from operator import mul, ne

from .errors import (
    FieldMismatchError,
    NotMonicError,
    ReduciblePolynomialError,
    UndecidedNumericallyError,
)
from .intervals import Ball, eval_poly_box, horner
from .polys import Poly

# The precision ladder, which lives in `refine`: 2^-53, then the square of
# the last width, until a width below the cap has failed.
DEFAULT_START_WIDTH = Fraction(1, 2**53)
DEFAULT_WIDTH_CAP = Fraction(1, 2**2000)
# embed_value's width, built once: a new Fraction costs a quarter of a warm embed
_EMBED_WIDTH = Fraction(1, 2**70)

MAX_DESK_DEGREE = 16


def refine(decide, cap: Fraction = DEFAULT_WIDTH_CAP):
    """The first value other than None of decide(w) at w = 2^-53, 2^-106,
    ..., each width the square of the last."""
    width = DEFAULT_START_WIDTH
    while (out := decide(width)) is None:
        if width < cap:
            raise UndecidedNumericallyError(f"undecided at width 2^-{_bits(width)}")
        width = width * width
    return out


def _to_sympoly(p: Poly):
    import sympy  # only define_field's factoring needs it
    return sympy.Poly.from_list(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
        sympy.Symbol("x"),
    )


def _bits(width: Fraction) -> int:
    """The least k >= 0 with 2^-k <= width."""
    return (-(-width.denominator // width.numerator) - 1).bit_length()


def _positive(width) -> Fraction:
    """A requested width as a Fraction, which must be positive."""
    if width.__class__ is not Fraction:
        width = Fraction(width)
    if width.numerator <= 0:
        raise ValueError("width must be positive")
    return width


def _newton(coeffs, re: int, im: int, k: int) -> tuple[int | None, int, int]:
    """Inclusion radius and Newton step at c = (re + im i) / 2^k, exactly.

    Returns (s, d_re, d_im): the disk |w - c| <= s / 2^k, with
    s = ceil(n |p(c)/p'(c)| 2^k), holds a root of p, and
    c - (d_re + d_im i) / 2^k is the Newton step from c rounded to the
    2^-k grid.  s is None where p'(c) = 0."""
    n = len(coeffs) - 1
    a_re, a_im = horner(coeffs, re, im, k)
    b_re, b_im = horner([j * c for j, c in enumerate(coeffs)][1:], re, im, k)
    bb = b_re * b_re + b_im * b_im
    if bb == 0:
        return None, 0, 0
    # n |p/p'| 2^k = n |a| / |b|; its ceiling s satisfies s^2 |b|^2 >= n^2 |a|^2
    num = n * n * (a_re * a_re + a_im * a_im)
    s = isqrt(num // bb)
    if s * s * bb < num:
        s += 1
    # (p/p') 2^k = a conj(b) / |b|^2, rounded to the nearest integer
    q_re, q_im = a_re * b_re + a_im * b_im, a_im * b_re - a_re * b_im
    return s, (2 * q_re + bb) // (2 * bb), (2 * q_im + bb) // (2 * bb)


class Place:
    """An archimedean place: one root of a squarefree polynomial, held as a
    certified ball on a dyadic grid that isolates it from the other roots.
    Complex places of a field store the representative root with positive
    imaginary part; the conjugate embedding is obtained by reflection."""

    def __init__(self, coeffs: tuple, isolating: Ball):
        self.is_real = isolating.real
        self.isolating = isolating
        self._coeffs = coeffs  # integer multiple of the polynomial, lowest first
        self._box = isolating  # the finest ball so far, centred on the 2^-k grid

    def box(self, width: Fraction) -> Ball:
        """Certified ball of width <= width around the root, whose square
        lies inside the isolating one.  Refinement is monotone: a cached
        finer ball is reused as-is."""
        width = _positive(width)
        if self._box.fits(width):
            return self._box
        re, im, k0 = self._centre()
        # a centre within 2^-k of the root gives a ball of width about
        # 2 n 2^-k; the bitlen(n) + 2 guard bits bring that under the request
        k = max(k0, _bits(width) + (len(self._coeffs) - 1).bit_length() + 2)
        if k > 4 * k0:
            # Newton doubles the correct bits per step: climb on coarser grids
            self.box(Fraction(1, 1 << (k // 2)))
            re, im, k0 = self._centre()
        while Fraction(1, 1 << k) >= width * DEFAULT_WIDTH_CAP:
            re, im, k0 = re << (k - k0), im << (k - k0), k
            for _ in range(k.bit_length() + 2):
                s, d_re, d_im = _newton(self._coeffs, re, im, k)
                if s is not None:
                    box = Ball(re, im, s, 1 << k, self.is_real)
                    if box.fits(width) and box.inside(self.isolating):
                        self._box = box
                        return box
                if not (d_re or d_im):
                    break
                re, im = re - d_re, im - d_im
            k *= 2
        raise UndecidedNumericallyError("root refinement hit the width cap")

    def _centre(self) -> tuple[int, int, int]:
        """(re, im, k): the centre (re + im i) / 2^k of the finest ball."""
        b = self._box
        return b.x, b.y, b.den.bit_length() - 1

    def __repr__(self):
        return f"Place({'real' if self.is_real else 'complex'}, {self._box.mid})"


def _real_part_resultant(p: Poly) -> list[int]:
    """The squarefree part of E(y) = prod_(i<j) (y - a_i - a_j) over the
    roots a_i of p, primitive in Z[y], lowest first: 2 Re z = z + conj(z)
    is a root for each non-real root z.  As in Bostan, Flajolet, Salvy and
    Schost, "Fast computation of special resultants" (J. Symbolic Comput.
    41, 2006), E comes from power sums: with P_k those of p (by Newton's
    identities, c_k the coefficient of x^(n-k)), S_k = sum_m C(k, m) P_m
    P_(k-m) sums (a_i + a_j)^k over ordered pairs, so E has the power sums
    (S_k - 2^k P_k) / 2.  The last of E's Sturm sequence is gcd(E, E')."""
    n, big = p.degree, p.degree * (p.degree - 1) // 2
    c = [int(q) if q.denominator == 1 else q for q in p.coeffs[::-1]] + [0] * big
    sums = [n]
    for k in range(1, big + 1):  # P_k = -(c_1 P_(k-1) + ... + c_(k-1) P_1 + k c_k)
        sums.append(-sum(map(mul, c[1:k], reversed(sums))) - k * c[k])
    e = _monic_from_power_sums([
        Fraction(sum(comb(k, m) * sums[m] * sums[k - m] for m in range(k + 1))
                 - 2**k * sums[k], 2) for k in range(1, big + 1)])
    # a monic polynomial over its least common denominator is primitive
    e = _over_common_denominator(e)[0]
    g = _sturm_sequence(e)[-1]
    content = gcd(*g) if g[-1] > 0 else -gcd(*g)
    return _exact_quotient(e, [u // content for u in g])


def _exact_quotient(a, b) -> list[int]:
    """a / b for integer polynomials (lowest first) where b divides a in Z[x]."""
    a, k, quo = list(a), len(b) - 1, []
    for i in range(len(a) - 1, k - 1, -1):
        quo.append(q := a[i] // b[-1])
        for j, v in enumerate(b, i - k):
            a[j] -= q * v
    assert not any(a), "the divisor leaves a remainder"
    return quo[::-1]


def _compare_real_parts(u: Place, v: Place, sturm, width: Fraction) -> int | None:
    """-1, 0 or 1 as Re u <, =, > Re v, or None if balls of this width do
    not decide.  Unequal real parts show as disjoint enclosures; equal ones
    are proved by the closed hull of the two enclosures of 2 Re holding one
    root of q, the `_real_part_resultant`, whose Sturm sequence is sturm()."""
    a, b = u.box(width), v.box(width)
    # the real parts as integer intervals over the denominator a.den b.den
    a_lo, a_hi = (a.x - a.rad) * b.den, (a.x + a.rad) * b.den
    b_lo, b_hi = (b.x - b.rad) * a.den, (b.x + b.rad) * a.den
    if a_hi < b_lo or b_hi < a_lo:
        return -1 if a_hi < b_lo else 1
    # 2 Re lies in [lo, hi] / 2^k, as a.den b.den = 2^(k + 1)
    k = (a.den * b.den).bit_length() - 2
    return 0 if _roots_between(sturm(), min(a_lo, b_lo), max(a_hi, b_hi), k) == 1 else None


def _start(coeffs, k: int) -> list[tuple[int, int]]:
    """Bini's starting points (Numer. Algorithms 13, 1996) on the 2^-k grid:
    an edge from i to j of the upper convex hull of the points (i, log2|a_i|)
    gives j - i points on the circle of radius (|a_i| / |a_j|)^(1/(j - i)),
    and a zero constant term the exact root 0, at most once in a squarefree p."""
    hull = []
    for q in [(i, log2(abs(c))) for i, c in enumerate(coeffs) if c]:
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (q[1] - hull[-2][1])
                                 >= (hull[-1][1] - hull[-2][1]) * (q[0] - hull[-2][0])):
            hull.pop()
        hull.append(q)
    zs, n = [(0, 0)] * hull[0][0], len(coeffs) - 1
    for (i, u), (j, v) in zip(hull, hull[1:]):
        # the radius on the grid, at least 2^5 so that the points are apart,
        # is f 2^e with f < 2^31 a float, so that huge radii fit
        r = max((u - v) / (j - i) + k, 5)
        e = floor(r) - 30
        f = 2 ** (r - e)
        for m in range(j - i):
            t = 2 * pi * (m / (j - i) + i / n) + 0.7
            x, y = int(f * cos(t)), int(f * sin(t))
            zs.append((x << e, y << e) if e >= 0 else (x >> -e, y >> -e))
    return zs


def _aberth_sweep(coeffs, zs: list, k: int) -> list | None:
    """One Gauss-Seidel sweep of the Aberth-Ehrlich iteration (Aberth,
    Math. Comp. 27, 1973) on the iterates zs, Gaussian integers over 2^k,
    in place: z_i moves by w / (1 - w sum_(j != i) 1/(z_i - z_j)), w its
    Newton quotient from `_newton`, or by w where that denominator is 0 on
    the grid.  Returns `_newton` at every iterate if none moved, else None."""
    out, moved = [], False
    for i, (x, y) in enumerate(zs):
        s, w_re, w_im = q = _newton(coeffs, x, y, k)
        out.append(q)
        if s is None:  # p'(z_i) = 0: step off the critical point, and off R
            w_re = w_im = -1
        elif not (w_re or w_im):
            continue
        # t = 2^k (1 - w sum 1/(z_i - z_j)) over the iterates z_j != z_i: an
        # equal one is left out, and the first of the two to move parts them
        t_re, t_im = 1 << k, 0
        for u, v in zs:
            d_re, d_im = x - u, y - v
            if dd := d_re * d_re + d_im * d_im:
                t_re -= ((w_re * d_re + w_im * d_im) << k) // dd
                t_im -= ((w_im * d_re - w_re * d_im) << k) // dd
        # the move (w 2^k) / t, rounded to the grid
        if tt := t_re * t_re + t_im * t_im:
            n_re, n_im = (w_re * t_re + w_im * t_im) << k, (w_im * t_re - w_re * t_im) << k
            w_re, w_im = (2 * n_re + tt) // (2 * tt), (2 * n_im + tt) // (2 * tt)
        if w_re or w_im:
            zs[i] = (x - w_re, y - w_im)
            moved = True
    return None if moved else out


def root_enclosures(p: Poly) -> list[Place]:
    """Every root of the squarefree polynomial p as a Place with a certified
    isolating ball: the real roots ascending, one root of each conjugate
    pair (Im > 0) in no proved order, then their conjugates in the same order.

    Aberth's iteration runs on the 2^-prec grid at the precision of
    `refine`'s widths, 53, 106, ... bits, from Bini's points on the first
    rung and from the last rung's iterates, shifted left, on the next,
    until it stops moving and the inclusion disks of its iterates are
    pairwise disjoint.  An iterate whose disk meets R is moved onto R first,
    so that a real root gets a disk symmetric about R."""
    coeffs = _over_common_denominator(p.coeffs)[0]
    n = p.degree
    zs, last = [], 0

    def separated(width: Fraction) -> list[Place] | None:
        nonlocal zs, last
        prec = _bits(width)
        zs = [(x << prec - last, y << prec - last) for x, y in zs] if zs else _start(coeffs, prec)
        last = prec
        # iterates near a cluster of roots finer than the last grid close in
        # on it linearly, so the sweeps allowed grow with the precision
        for _ in range(50 + 10 * n + prec):
            if (quotients := _aberth_sweep(coeffs, zs, prec)) is not None:
                break
        else:
            return None
        disks = []  # (re, im, s) on the 2^-prec grid, Im >= 0 only
        for (re, im), (s, _, _) in zip(zs, quotients):
            if s is not None and abs(im) <= s:
                im, s = 0, _newton(coeffs, re, 0, prec)[0]
            if s is not None and im >= 0:
                disks.append((re, im, s))
        if sum(2 - (im == 0) for _, im, _ in disks) != n or any(
            abs(u[0] - v[0]) <= u[2] + v[2] and abs(u[1] - v[1]) <= u[2] + v[2]
            for i, u in enumerate(disks) for v in disks[i + 1:]
        ):
            return None
        return [Place(coeffs, Ball(re, im, s, 1 << prec, im == 0))
                for re, im, s in sorted(disks, key=lambda d: (d[1] != 0, d[0]))]

    places = refine(separated)
    return places + [Place(coeffs, q.isolating.conjugate()) for q in places if not q.is_real]


def isolate_roots(p: Poly) -> list[Place]:
    """`root_enclosures` in place order: real roots ascending, then one root
    of each conjugate pair (Im > 0) by (re, im), then their conjugates in
    the same order."""
    places = root_enclosures(p)
    r = sum(q.is_real for q in places)
    s = (len(places) - r) // 2
    sturm = lru_cache(None)(lambda: _sturm_sequence(_real_part_resultant(p)))
    # the refinement that proves an order happens on copies, so the places
    # keep their isolating balls
    proof = {id(q): copy.copy(q) for q in places[r:r + s]}

    def order(u: Place, v: Place) -> int:
        a, b = u.isolating, v.isolating  # one denominator
        if abs(a.x - b.x) > a.rad + b.rad:
            return -1 if a.x < b.x else 1
        c = refine(partial(_compare_real_parts, proof[id(u)], proof[id(v)], sturm))
        # equal real parts: the disjoint squares are apart in Im
        return c or (-1 if a.y < b.y else 1)

    pairs = sorted(zip(places[r:r + s], places[r + s:]),
                   key=cmp_to_key(lambda x, y: order(x[0], y[0])))
    return places[:r] + [u for u, _ in pairs] + [w for _, w in pairs]


def _sturm_sequence(coeffs) -> list[list[int]]:
    """The Sturm sequence of a squarefree integer polynomial (lowest first):
    primitive pseudo-remainders, scaled and divided by positive factors
    only, so they keep the signs of the true Sturm sequence."""
    a, b = list(coeffs), [i * c for i, c in enumerate(coeffs)][1:]
    seq = [a]
    while b:
        seq.append(b)
        lb, sb = abs(b[-1]), 1 if b[-1] > 0 else -1
        while len(a) >= len(b):
            c, k = sb * a[-1], len(a) - len(b)
            a = [lb * u for u in a[:k]] + [lb * u - c * v for u, v in zip(a[k:], b)]
            while a and not a[-1]:
                a.pop()
        g = gcd(*a)
        a, b = b, [-u // g for u in a]
    return seq


def _sign_changes(seq, m: int, k: int | None = None) -> int:
    """The sign changes, zeros skipped, of a Sturm sequence at m / 2^k, or
    at the infinity of the sign of m = +-1 if k is None."""
    values = ([q[-1] * m ** (len(q) - 1) for q in seq] if k is None
              else [horner(q, m, 0, k)[0] for q in seq])
    signs = [v > 0 for v in values if v]
    return sum(map(ne, signs, signs[1:]))


def _roots_between(seq, lo: int, hi: int, k: int) -> int:
    """The number of real roots of seq[0] in [lo, hi] / 2^k, by Sturm's
    theorem: V(lo) - V(hi) counts those in (lo, hi]."""
    return (_sign_changes(seq, lo, k) - _sign_changes(seq, hi, k)
            + (horner(seq[0], lo, 0, k)[0] == 0))


class NumberField:
    """Q[x]/(minpoly) together with its isolated archimedean places.

    Root isolation is deferred until a place is first requested: purely
    algebraic work — arithmetic, traces, minimal polynomials, and the
    signature, an exact Sturm count — never pays for it."""

    def __init__(self, minpoly: Poly):
        self.minpoly = minpoly
        self.degree = minpoly.degree
        # the minimal polynomial as integers over one denominator, its last entry
        self._ints = _over_common_denominator(minpoly.coeffs)[0]
        self._hash = hash(self._ints)
        self._reduction = den, table = _reduction_table(self._ints)
        # den Tr(x^i) = den sum_j [x^j] x^(i+j), read off the table where i + j >= d
        d = self.degree
        self._traces = [d * den] + [sum(table[i + j - d][j] for j in range(d - i, d))
                                    for i in range(1, d)]
        self._places: list[Place] | None = None
        self._basis_cache: list[FieldElement] | None = None
        self._sign_cache: dict = {}
        self._minpoly_cache: dict = {}
        self._root_cache: dict = {}  # minpoly of an element -> root_enclosures

    @property
    def places(self) -> list[Place]:
        """Real places ascending, then one place per conjugate pair."""
        if self._places is None:
            self._places = isolate_roots(self.minpoly)[: sum(self.signature)]
        return self._places

    @cached_property
    def signature(self) -> tuple[int, int]:
        """(r, s): the numbers of real places and of complex pairs."""
        seq = _sturm_sequence(self._ints)
        r = _sign_changes(seq, -1) - _sign_changes(seq, 1)
        return r, (self.degree - r) // 2

    @cached_property
    def _mul_table(self) -> list[list[list[int]]]:
        """Entry [r][j] lists coordinate r of x^i x^j (i < d) over the reduction
        denominator; its dot product with a's numerators is that of a x^j."""
        den, basis = self._reduction[0], self.power_basis()
        prods = [[[c * (den // p.den) for c in p.num] for p in (u * v for u in basis)]
                 for v in basis]
        return [[[p[r] for p in row] for row in prods] for r in range(self.degree)]

    # -- constructors ------------------------------------------------

    def element(self, coords) -> "FieldElement":
        return self.from_integers(*_over_common_denominator(coords))

    def from_integers(self, num, den: int = 1) -> "FieldElement":
        """The element with coordinates num / den, for den > 0."""
        if len(num) != self.degree:
            raise ValueError(f"need {self.degree} coordinates, got {len(num)}")
        return FieldElement(self, num, den)

    def from_rational(self, q) -> "FieldElement":
        q = Fraction(q)
        return FieldElement(self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.degree)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.degree - 1))

    @property
    def gen(self) -> "FieldElement":
        if self.degree == 1:
            # Q[x]/(x - c): the generator is the rational number c
            return self.from_rational(-self.minpoly.coeffs[0])
        return self.element([0, 1] + [0] * (self.degree - 2))

    def power_basis(self) -> list["FieldElement"]:
        if self._basis_cache is None:
            basis = [self.one]
            for _ in range(1, self.degree):
                basis.append(basis[-1] * self.gen)
            self._basis_cache = basis
        return self._basis_cache

    # -- identity ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, NumberField) and self.minpoly == other.minpoly)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self):
        return f"NumberField(deg={self.degree}, minpoly={self.minpoly})"


def _over_common_denominator(values) -> tuple[tuple[int, ...], int]:
    """Rationals as integer numerators over their least common denominator."""
    qs = [v if v.__class__ is int or v.__class__ is Fraction else Fraction(v) for v in values]
    den = lcm(*(q.denominator for q in qs))
    return tuple(q.numerator * (den // q.denominator) for q in qs), den


def _reduction_table(a: tuple[int, ...]) -> tuple[int, list]:
    """x^k mod (a_0 + ... + a_d x^d) / a_d for d <= k <= 2d - 2 (Cohen, A Course
    in Computational Algebraic Number Theory, 4.2): (den, rows), where row
    k - d holds the power-basis coordinates of x^k times den, their lcm."""
    d, D = len(a) - 1, a[-1]
    rows = [[-c for c in a[:d]]][:d - 1]  # row j over D^(j + 1)
    while len(rows) < d - 1:  # times x
        r = rows[-1]
        rows.append([D * u - r[-1] * c for u, c in zip([0] + r[:-1], a)])
    rows = [[c * D ** (d - 2 - j) for c in r] for j, r in enumerate(rows)]
    g = gcd(D ** (d - 1), *(c for r in rows for c in r))
    return D ** (d - 1) // g, [[c // g for c in r] for r in rows]


class FieldElement:
    """Power-basis coordinates as integer numerators `num` over one positive
    denominator `den`, with gcd(num, den) = 1.  `coords`, the rational
    coordinates, is built on first use.  Elements are values: the hash is
    cached, so `num`, `den` and `field` are never reassigned."""

    __slots__ = ("field", "num", "den", "_hash", "_coords")

    def __init__(self, field: NumberField, num, den: int = 1):
        assert len(num) == field.degree and den > 0
        if den != 1 and (g := gcd(*num, den)) != 1:
            num, den = [c // g for c in num], den // g
        self.field = field
        self.num = tuple(num)
        self.den = den
        self._hash = None
        self._coords = None

    @property
    def coords(self) -> tuple:
        if self._coords is None:
            self._coords = tuple(Fraction(c, self.den) for c in self.num)
        return self._coords

    def __eq__(self, other) -> bool:
        if other.__class__ is not FieldElement:
            return NotImplemented
        return (self.num == other.num and self.den == other.den
                and self.field == other.field)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    # -- arithmetic --------------------------------------------------

    def _check(self, other: "FieldElement"):
        if self.field != other.field:
            raise FieldMismatchError("elements belong to different fields")

    def __add__(self, other) -> "FieldElement":
        other = self._coerce(other)
        if other.field is not self.field:
            self._check(other)
        da, db = self.den, other.den
        if da == db:
            num = [x + y for x, y in zip(self.num, other.num)]
        else:
            num = [x * db + y * da for x, y in zip(self.num, other.num)]
            da *= db
        return FieldElement(self.field, num, da)

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, [-c for c in self.num], self.den)

    __radd__ = __add__

    def __sub__(self, other) -> "FieldElement":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "FieldElement":
        return self._coerce(other) - self

    def __mul__(self, other) -> "FieldElement":
        """Schoolbook product of the numerators, folded back to degree
        < d through the field's reduction table."""
        other = self._coerce(other)
        if other.field is not self.field:
            self._check(other)
        a, b = self.num, other.num
        d = len(a)
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    prod[k] += x * y
        den, table = self.field._reduction
        out = prod[:d] if den == 1 else [den * c for c in prod[:d]]
        for c, row in zip(prod[d:], table):
            if c:
                for i, r in enumerate(row):
                    out[i] += c * r
        return FieldElement(self.field, out, den * self.den * other.den)

    def __rmul__(self, other) -> "FieldElement":
        return self * other

    def inverse(self) -> "FieldElement":
        """By Cayley-Hamilton: with chi = x^d + c_(d-1) x^(d-1) + ... + c_0
        the characteristic polynomial of self, self^-1 is
        -(self^(d-1) + c_(d-1) self^(d-2) + ... + c_1) / c_0."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero field element")
        powers = PowerMap(self, self.field.degree + 1)
        chi = _monic_from_power_sums([absolute_trace(p) for p in powers.powers[1:]])
        return powers(*_over_common_denominator([c / -chi[0] for c in chi[1:]]))

    def __rtruediv__(self, other) -> "FieldElement":
        return self._coerce(other) * self.inverse()

    def __truediv__(self, other) -> "FieldElement":
        other = self._coerce(other)
        return self * other.inverse()

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            return other
        return self.field.from_rational(other)

    # -- predicates --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    @property
    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def __repr__(self):
        return f"FieldElement({list(self.coords)})"


class PowerMap:
    """c -> c_0 + c_1 y + ... + c_(n-1) y^(n-1) as an integer matrix over one
    denominator, its columns the powers of y: the one evaluator of a rational
    polynomial at a field element, and the matrix of an automorphism or a
    tower embedding (y the image of the generator).  `powers` keeps the
    powers 1, y, ..., y^(n-1) as field elements."""

    __slots__ = ("field", "powers", "rows", "den")

    def __init__(self, y: FieldElement, n: int):
        powers = [y.field.one]
        for _ in range(1, n):
            powers.append(powers[-1] * y)
        self.field, self.powers, self.den = y.field, powers, lcm(*(p.den for p in powers))
        self.rows = list(zip(*([c * (self.den // p.den) for c in p.num] for p in powers)))

    def __call__(self, num, den: int = 1) -> FieldElement:
        """The image of the vector num / den (at most n entries)."""
        return FieldElement(self.field, [sum(map(mul, row, num)) for row in self.rows],
                            self.den * den)


def poly_at(p: Poly, y: FieldElement) -> FieldElement:
    """p(y), exactly, in the field of y."""
    num, den = _over_common_denominator(p.coeffs)
    return PowerMap(y, len(num))(num, den)


def _monic_from_power_sums(sums) -> list[Fraction]:
    """The monic polynomial of degree n = len(sums) whose n roots, counted
    with multiplicity, have the power sums p_k = sums[k - 1], lowest
    coefficient first.  With b_k the coefficient of x^(n-k), Newton's
    identities read k b_k = -(b_(k-1) p_1 + b_(k-2) p_2 + ... + b_0 p_k)."""
    b = [Fraction(1)]
    for k in range(1, len(sums) + 1):
        b.append(-sum(map(mul, reversed(b), sums)) / k)
    return b[::-1]


# -- field construction ---------------------------------------------


def define_field(minpoly: Poly) -> NumberField:
    """Build a number field from a monic irreducible polynomial.  Root
    isolation into certified, pairwise disjoint boxes happens lazily on
    first use of the places.

    Irreducibility is proved exactly: degree 1 always holds, x^2 + bx + c
    splits over Q iff its discriminant b^2 - 4c is the square of a
    rational, a cyclotomic polynomial is irreducible by theorem, and every
    other polynomial of degree >= 3 goes through sympy's factorisation."""
    if minpoly.is_zero or minpoly.degree < 1:
        raise ValueError("minimal polynomial must have degree >= 1")
    if not minpoly.is_monic:
        raise NotMonicError(f"minimal polynomial must be monic: {minpoly}")
    if minpoly.degree > MAX_DESK_DEGREE:
        raise ValueError(f"degree {minpoly.degree} exceeds desk scale ({MAX_DESK_DEGREE})")
    field = NumberField(minpoly)
    if minpoly.degree == 2:
        c, b, den = field._ints
        disc = b * b - 4 * c * den  # den^2 times the discriminant
        if disc >= 0 and isqrt(disc) ** 2 == disc:
            # the root (-b + sqrt(disc)) / (2 den) as the factor x - root
            raise ReduciblePolynomialError(Poly([Fraction(b - isqrt(disc), 2 * den), 1]))
    elif minpoly.degree > 2 and field._ints not in map(_cyclotomic, range(3, 61)):
        _, factors = _to_sympoly(minpoly).factor_list()
        if len(factors) > 1 or factors[0][1] > 1:
            # a proper factor: a repeated one has lower degree than minpoly
            factor = factors[0][0].monic().all_coeffs()
            raise ReduciblePolynomialError(Poly([Fraction(c.p, c.q) for c in reversed(factor)]))
    return field


# -- operations ------------------------------------------------------


def absolute_trace(a: FieldElement) -> Fraction:
    """Trace of multiplication-by-a in the power basis, computed exactly
    as sum_i a_i Tr(x^i)."""
    return Fraction(sum(map(mul, a.num, a.field._traces)), a.field._reduction[0] * a.den)


def dual_vector(a: FieldElement) -> list[Fraction]:
    """Pairing of a against the power basis: (Tr(a * x^j))_j."""
    return [absolute_trace(a * b) for b in a.field.power_basis()]


def minimal_polynomial_of(a: FieldElement) -> Poly:
    """Monic minimal polynomial m of a over Q, from its characteristic
    polynomial chi = m^(d / deg m) without factoring: the roots of m carry
    the power sums Tr(a^j) deg m / d.  For each divisor k of d, ascending,
    the monic polynomial of degree k with the power sums Tr(a^j) k / d is
    tried at a; the first that vanishes there is m, as no nonzero
    polynomial of degree below deg m does."""
    key = a.num, a.den
    cache = a.field._minpoly_cache
    if key in cache:
        return cache[key]
    d = a.field.degree
    powers = PowerMap(a, d + 1)
    sums = [absolute_trace(p) for p in powers.powers[1:]]
    for k in (k for k in range(1, d + 1) if d % k == 0):
        m = _monic_from_power_sums([s * k / d for s in sums[:k]])
        if powers(*_over_common_denominator(m)).is_zero:
            cache[key] = p = Poly(m)
            return p
    raise AssertionError("no candidate of degree dividing d vanishes at a")


def embed(a: FieldElement, place: Place, width: Fraction = DEFAULT_START_WIDTH) -> Ball:
    """Certified ball of width <= width containing the image of a at the
    place: a real ball at a real place."""
    width = _positive(width)
    root_w = min(width, DEFAULT_START_WIDTH)
    while True:
        val = eval_poly_box(a.num, a.den, place.box(root_w))
        if val.fits(width):
            return val
        root_w = root_w * root_w


def embed_value(a: FieldElement, place: Place) -> complex:
    """Float approximation of the embedding: the correctly rounded midpoint
    of a certified ball of width 2^-70."""
    return embed(a, place, _EMBED_WIDTH).mid


def embed_vector(a: FieldElement) -> list[complex]:
    """Image of a under the diagonal embedding into K_oo, one entry per
    real place followed by one per complex pair representative."""
    return [embed_value(a, p) for p in a.field.places]


def trace_on_infinity(field: NumberField, v) -> float:
    """Trace extended to K_oo: sum of real coordinates plus twice the real
    part of each complex-pair coordinate."""
    r, s = field.signature
    v = list(v)
    if len(v) != r + s:
        raise ValueError(f"expected {r} real + {s} complex coordinates")
    total = 0.0
    for j, val in enumerate(v):
        total += (1.0 if j < r else 2.0) * complex(val).real
    return total


def is_in_inverse_different(a: FieldElement) -> bool:
    """Tr(a * Z[alpha]) inside Z, checked exactly on the power basis."""
    return all(q.denominator == 1 for q in dual_vector(a))


def is_in_power_order(a: FieldElement) -> bool:
    """Membership in Z[alpha]: all power-basis coordinates integral."""
    return a.den == 1


# -- convenience fields used throughout the suites -------------------


@lru_cache(maxsize=None)
def rationals() -> NumberField:
    """Q itself, realized as Q[x]/(x)."""
    return define_field(Poly([0, 1]))


@lru_cache(maxsize=None)
def quadratic_field(n: int) -> NumberField:
    """Q(sqrt(n)) for a squarefree nonzero integer n."""
    return define_field(Poly([-n, 0, 1]))


@lru_cache(maxsize=None)
def cyclotomic_field(n: int) -> NumberField:
    """Q(zeta_n), defined by the n-th cyclotomic polynomial, which is built
    in integers and which define_field knows to be irreducible."""
    if not 1 <= n <= 60:  # phi(n) > MAX_DESK_DEGREE for every n > 60
        raise ValueError(f"no cyclotomic field of order {n} within desk scale")
    return define_field(Poly(_cyclotomic(n)))


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """The n-th cyclotomic polynomial, lowest coefficient first: x^n - 1
    divided exactly by Phi_e for each proper divisor e of n."""
    p = [-1] + [0] * (n - 1) + [1]
    for e in range(1, n):
        if n % e == 0:
            p = _exact_quotient(p, _cyclotomic(e))
    return tuple(p)

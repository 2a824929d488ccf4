"""Independent reference answers for the benchmark's correctness checks.

Nothing here calls nlfield: every expected value is computed from the
generated inputs with mpmath, sympy's dense polynomial routines or plain
Python integers and Fractions.  Polynomials are coefficient lists, lowest
degree first, as in nlfield's power basis.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from sympy.polys.densearith import dup_mul, dup_rem
from sympy.polys.densetools import dup_compose
from sympy.polys.domains import QQ

DPS = 60

# -- embeddings and signs (mpmath) -----------------------------------


def places(minpoly) -> tuple[list, list]:
    """Roots of a monic squarefree polynomial in nlfield's place order:
    real roots ascending, then one root per complex pair (Im > 0), ordered
    by (re, im)."""
    with mpmath.workdps(DPS):
        roots = mpmath.polyroots(
            [mpmath.mpf(Fraction(c).numerator) / Fraction(c).denominator
             for c in reversed(minpoly)],
            maxsteps=400, extraprec=4 * DPS,
        )
        tol = mpmath.mpf(10) ** (-DPS // 2)
        reals, cplx = [], []
        for r in roots:
            r = mpmath.mpc(r)
            if abs(r.imag) < tol:
                reals.append(r.real)
            elif r.imag > 0:
                cplx.append(r)
        reals.sort()
        cplx.sort(key=lambda z: (z.real, z.imag))
    if len(reals) + 2 * len(cplx) != len(minpoly) - 1:
        raise ValueError("root finder lost a root")
    return reals, cplx


def embed(coords, root):
    """The value of sum c_k root^k at mpmath precision."""
    with mpmath.workdps(DPS):
        acc = mpmath.mpf(0)
        for c in reversed(coords):
            c = Fraction(c)
            acc = acc * root + mpmath.mpf(c.numerator) / c.denominator
        return acc


_QUADRANT = {(1, 1): "+e", (-1, 1): "sqrt-e", (-1, -1): "-e", (1, -1): "-sqrt-e"}


def complex_sign(z) -> str:
    """Name of the complex sign of z; a part below 10^-(DPS/2) relative to
    |z| counts as zero, which is far below any gap that small-height
    inputs can have."""
    with mpmath.workdps(DPS):
        z = mpmath.mpc(z)
        tol = mpmath.mpf(10) ** (-DPS // 2) * (1 + abs(z))
        re0, im0 = abs(z.real) < tol, abs(z.imag) < tol
        if re0 and im0:
            raise ValueError("zero has no sign")
        if im0:
            return "+" if z.real > 0 else "-"
        if re0:
            return "sqrt-" if z.imag > 0 else "-sqrt-"
        return _QUADRANT[(1 if z.real > 0 else -1, 1 if z.imag > 0 else -1)]


def sign_vector(coords, roots) -> list[str]:
    """Serialized sign vector of the element with these power-basis
    coordinates, given places(minpoly)."""
    reals, cplx = roots
    out = []
    for r in reals:
        v = embed(coords, r)
        if v == 0:
            raise ValueError("zero has no sign")
        out.append("+" if v > 0 else "-")
    out.extend(complex_sign(embed(coords, z)) for z in cplx)
    return out


def axis_margin(coords, roots) -> float:
    """Smallest distance of any embedding from the nearest axis, relative
    to its modulus (real places count their distance from zero)."""
    reals, cplx = roots
    worst = float("inf")
    for r in reals:
        worst = min(worst, float(abs(embed(coords, r))))
    for z in cplx:
        v = embed(coords, z)
        worst = min(worst, float(min(abs(v.real), abs(v.imag)) / (1 + abs(v))))
    return worst


def hyper_series_value(terms, roots, x, t) -> complex:
    """Value of nlfield's series_eval_hyper at HyperPoint.uniform(x, t) for
    {coords: (re, im)} terms: each term decays by its own place-wise sign
    (real places: exp(2 pi i a (x + theta i t)) with theta the sign of a;
    complex places: exp(4 pi i Re(w z)) exp(-4 pi Im(w i^-e b)) with
    z = x, b = t + i t and e the quarter-turn exponent of w's sign)."""
    reals, cplx = roots
    with mpmath.workdps(DPS):
        total = mpmath.mpc(0)
        for coords, (cre, cim) in terms.items():
            term = mpmath.mpc(_mpf(cre), _mpf(cim))
            if any(coords):
                for r in reals:
                    a = embed(coords, r)
                    theta = 1 if a > 0 else -1
                    term *= mpmath.exp(2j * mpmath.pi * a * mpmath.mpc(x, theta * t))
                for z in cplx:
                    w = embed(coords, z)
                    e = _QUARTER_TURNS[complex_sign(w)]
                    term *= mpmath.exp(4j * mpmath.pi * (w * x).real)
                    term *= mpmath.exp(-4 * mpmath.pi * (w * (1j ** (-e % 4)) * mpmath.mpc(t, t)).imag)
            total += term
        return complex(total)


def _mpf(q):
    q = Fraction(q)
    return mpmath.mpf(q.numerator) / q.denominator


_QUARTER_TURNS = {"+": 0, "sqrt-": 1, "-": 2, "-sqrt-": 3,
                  "+e": 0, "sqrt-e": 1, "-e": 2, "-sqrt-e": 3}


# -- exact index arithmetic (sympy dense polynomials over QQ) ---------


def _dup(coords):
    """Coefficient list (lowest first) -> sympy dense list over QQ."""
    out = [QQ(Fraction(c).numerator, Fraction(c).denominator) for c in reversed(coords)]
    while out and not out[0]:
        out.pop(0)
    return out


def _coords(dup, degree) -> tuple:
    cs = [Fraction(int(c.numerator), int(c.denominator)) for c in reversed(dup)]
    return tuple(cs + [Fraction(0)] * (degree - len(cs)))


def index_product(c1, c2, minpoly) -> tuple:
    """Power-basis coordinates of the product of two field elements."""
    m = _dup(minpoly)
    return _coords(dup_rem(dup_mul(_dup(c1), _dup(c2), QQ), m, QQ), len(minpoly) - 1)


def generator_power(k, minpoly) -> tuple:
    """Coordinates of a^k, the image of the generator under a -> a^k."""
    return _coords(dup_rem(_dup([0] * k + [1]), _dup(minpoly), QQ), len(minpoly) - 1)


def index_image(coords, image, minpoly) -> tuple:
    """Coordinates of sigma(beta) where sigma maps the generator to image:
    the coordinate polynomial of beta composed with image, reduced."""
    m = _dup(minpoly)
    comp = dup_compose(_dup(coords), _dup(image), QQ)
    return _coords(dup_rem(comp, m, QQ), len(minpoly) - 1)


def power_traces(minpoly, count) -> list[Fraction]:
    """Tr(a^k) for k < count by Newton's identities on a monic minpoly."""
    d = len(minpoly) - 1
    e = [Fraction(minpoly[d - j]) for j in range(d + 1)]  # e[j]: coeff of x^(d-j)
    s = [Fraction(d)]
    for k in range(1, count):
        acc = -k * e[k] if k <= d else Fraction(0)
        for j in range(1, min(k, d + 1)):
            acc -= e[j] * s[k - j]
        s.append(acc)
    return s


def trace(coords, minpoly) -> Fraction:
    s = power_traces(minpoly, len(coords))
    return sum((Fraction(c) * sk for c, sk in zip(coords, s)), Fraction(0))


# -- algebra products on plain dictionaries --------------------------
# An element is {coords tuple: (re Fraction, im Fraction)}.


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _clean(terms):
    return {i: c for i, c in terms.items() if c != (0, 0)}


def coeff_sum(f):
    out = (Fraction(0), Fraction(0))
    for c in f.values():
        out = gadd(out, c)
    return out


def cauchy(f, g):
    out = {}
    for i1, c1 in f.items():
        for i2, c2 in g.items():
            idx = tuple(a + b for a, b in zip(i1, i2))
            out[idx] = gadd(out.get(idx, (0, 0)), gmul(c1, c2))
    return _clean(out)


def dirichlet(f, g, minpoly):
    """Dirichlet product with the constant-term rule
    d0 = a0 * sum(b) + b0 * sum(a) + a0 * b0 over nonzero partner indices."""
    degree = len(minpoly) - 1
    zero = tuple(Fraction(0) for _ in range(degree))
    fn = {i: c for i, c in f.items() if i != zero}
    gn = {i: c for i, c in g.items() if i != zero}
    m = _dup(minpoly)
    gd = [(_dup(i), c) for i, c in gn.items()]
    out = {}
    for i1, c1 in fn.items():
        p1 = _dup(i1)
        for p2, c2 in gd:
            idx = _coords(dup_rem(dup_mul(p1, p2, QQ), m, QQ), degree)
            out[idx] = gadd(out.get(idx, (0, 0)), gmul(c1, c2))
    a0, b0 = f.get(zero, (0, 0)), g.get(zero, (0, 0))
    d0 = gadd(gadd(gmul(a0, coeff_sum(gn)), gmul(b0, coeff_sum(fn))), gmul(a0, b0))
    out[zero] = gadd(out.get(zero, (0, 0)), d0)
    return _clean(out)


# -- integer Dirichlet series ----------------------------------------


def mobius(n: int) -> int:
    """Moebius function by trial division."""
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def dconv(f, g, mul, add, zero):
    """Truncated Dirichlet convolution of two coefficient lists (index n at
    position n - 1) by the plain multiple loop, in caller-given arithmetic."""
    N = len(f)
    out = [zero] * N
    for d in range(1, N + 1):
        fd = f[d - 1]
        if fd == zero:
            continue
        for m in range(d, N + 1, d):
            out[m - 1] = add(out[m - 1], mul(fd, g[m // d - 1]))
    return out


def is_delta_exact(f, g) -> bool:
    """dconv(f, g) == delta for lists of (re, im) pairs of ints or Fractions."""
    zero = (0, 0)
    h = dconv(f, g, gmul, gadd, zero)
    return h[0] == (1, 0) and all(c == zero for c in h[1:])


def is_delta_approx(f, g, tol: float) -> bool:
    h = dconv(f, g, lambda a, b: a * b, lambda a, b: a + b, 0j)
    return abs(h[0] - 1) <= tol and all(abs(c) <= tol for c in h[1:])

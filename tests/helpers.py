"""Code that only the tests use: an mpmath oracle for root enclosures,
the parser's fully parenthesised printer, the algebra products as
`FieldElement` and coefficient loops, and the approx Dirichlet loops as
they were before series carried an integer form."""

from fractions import Fraction

import mpmath

from nlfield import coeffs
from nlfield.intervals import Ball
from nlfield.numberfield import Place, _bits, _newton, _over_common_denominator, refine
from nlfield.parser import BinOp, Gen, Imag, Mono, Neg, Num, Pow


def _dyadic(x, k: int) -> int:
    """x * 2^k truncated to an integer, exactly, from mpmath's binary
    representation (sign, mantissa, exponent)."""
    sign, man, exp, _ = x._mpf_
    shift = exp + k
    v = man << shift if shift >= 0 else man >> -shift
    return -v if sign else v


def mpmath_root_enclosures(p) -> list[Place]:
    """`numberfield.root_enclosures` as it was before Aberth's iteration:
    mpmath's polyroots at the precision of `refine`'s widths, certified by
    the same inclusion disks, and the places in the same order."""
    coeffs = _over_common_denominator(p.coeffs)[0]
    n = p.degree

    def separated(width: Fraction) -> list[Place] | None:
        prec = _bits(width)
        with mpmath.workprec(prec):
            try:
                approx = mpmath.polyroots(coeffs[::-1], maxsteps=50 + 10 * n, extraprec=prec)
            except mpmath.libmp.NoConvergence:
                return None
        disks = []  # (re, im, s) on the 2^-prec grid, Im >= 0 only
        for z in map(mpmath.mpc, approx):
            re, im = (_dyadic(part, prec) for part in (z.real, z.imag))
            s = _newton(coeffs, re, im, prec)[0]
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


def print_ast(node) -> str:
    """A fully parenthesised form of a parser tree that reparses to an
    equal tree."""
    if isinstance(node, Num):
        q = node.value
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    if isinstance(node, Imag):
        return "1i"
    if isinstance(node, Gen):
        return "a"
    if isinstance(node, Neg):
        return f"(-{print_ast(node.arg)})"
    if isinstance(node, BinOp):
        rhs = print_ast(node.right)
        if node.op == "/" and isinstance(node.right, Num):
            # keep "a/p" from re-lexing as part of a rational literal
            rhs = f"({rhs})"
        return f"({print_ast(node.left)}{node.op}{rhs})"
    if isinstance(node, Pow):
        return f"({print_ast(node.base)}^{node.exponent})"
    if isinstance(node, Mono):
        return f"z^{{{print_ast(node.index)}}}"
    raise TypeError(f"not an AST node: {node!r}")


def oracle_cauchy(f, g) -> dict:
    """The terms of `AlgebraElement.cauchy` as the loop over index pairs
    that it was before the integer kernel, zero sums dropped."""
    f._check(g)
    zero = coeffs.zero(f.mode)
    out: dict = {}
    for i1, c1 in f.terms.items():
        for i2, c2 in g.terms.items():
            idx = i1 + i2
            out[idx] = out.get(idx, zero) + c1 * c2
    return {i: c for i, c in out.items() if c}


def oracle_dirichlet(f, g) -> dict:
    """The terms of `AlgebraElement.dirichlet`, likewise."""
    f._check(g)
    zero_idx = f.field.zero
    zero = coeffs.zero(f.mode)
    out: dict = {}
    sum_a = sum_b = zero
    for i1, c1 in f.terms.items():
        if i1.is_zero:
            continue
        sum_a = sum_a + c1
        for i2, c2 in g.terms.items():
            if i2.is_zero:
                continue
            idx = i1 * i2
            out[idx] = out.get(idx, zero) + c1 * c2
    for i2, c2 in g.terms.items():
        if not i2.is_zero:
            sum_b = sum_b + c2
    a0 = f.constant
    b0 = g.constant
    d0 = a0 * sum_b + b0 * sum_a + a0 * b0
    if d0:
        out[zero_idx] = out.get(zero_idx, zero) + d0
    return {i: c for i, c in out.items() if c}


def oracle_dconv_approx(a: list, b: list) -> list:
    """The approx `dirichlet.dconv` loop on coefficient lists a_1..a_N."""
    N = len(a)
    out = [0j] * (N + 1)
    bs = [(k, c) for k, c in enumerate(b, 1) if c]
    for d, ad in enumerate(a, 1):
        if not ad:
            continue
        top = N // d
        for k, bk in bs:
            if k > top:
                break
            out[d * k] = out[d * k] + ad * bk
    return out[1:]


def oracle_dinvert_approx(a: list) -> list:
    """The approx `dirichlet.dinvert` loop, for a_1 != 0."""
    N = len(a)
    inv_a1 = complex(1) / a[0]
    acc = [0j] * (N + 1)
    b = [0j] * (N + 1)
    b[1] = inv_a1
    tail = [(k, c) for k, c in enumerate(a[1:], 2) if c]
    for n in range(1, N + 1):
        if n > 1:
            b[n] = -(acc[n] * inv_a1)
        if not b[n]:
            continue
        top = N // n
        for k, ak in tail:
            if k > top:
                break
            acc[n * k] = acc[n * k] + b[n] * ak
    return b[1:]

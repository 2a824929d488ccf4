"""Expression parser for field elements and algebra elements.

Grammar (whitespace-insensitive):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | atom ('^' ['-'] integer)?
    atom    := rational | '1i' | 'a' | monomial | '(' expr ')'
    monomial:= 'z' '^' '{' expr '}'
    rational:= integer ('/' integer)?

The generator of the active field is always written "a"; the imaginary
unit of coefficients is "1i" so it cannot clash with field elements.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraElement, monomial as make_monomial
from .coeffs import EXACT, GaussRat
from .errors import ParseError
from .numberfield import FieldElement, NumberField
from .polys import _Frozen

# bit height allowed in the two factors of each product of a power x^n:
# past it the power is rejected before the product is formed, so the work
# stays bounded however large n is and however powers nest
MAX_POWER_BITS = 1 << 17

# -- AST -------------------------------------------------------------


class Num(_Frozen):
    def __init__(self, value: Fraction):
        self._set(value)


class Imag(_Frozen):
    def __init__(self):
        self._set()


class Gen(_Frozen):
    def __init__(self):
        self._set()


class Neg(_Frozen):
    def __init__(self, arg):
        self._set(arg)


class BinOp(_Frozen):
    def __init__(self, op: str, left, right):  # op is one of + - * /
        self._set(op, left, right)


class Pow(_Frozen):
    def __init__(self, base, exponent: int):
        self._set(base, exponent)


class Mono(_Frozen):
    def __init__(self, index):
        self._set(index)


def _sum_terms(node):
    """The (sign, term) pairs of a +/- chain from left to right, the first
    term signed '+': a long sum is walked in a loop, not recursed along."""
    pairs = []
    while isinstance(node, BinOp) and node.op in "+-":
        pairs.append((node.op, node.right))
        node = node.left
    return [("+", node)] + pairs[::-1]


# -- tokenizer -------------------------------------------------------

_SYMBOLS = set("+-*/^(){}")


def _tokenize(src: str):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            if j < n and src[j] == "i":
                tokens.append(("imag", int(src[i:j]), i))
                i = j + 1
            else:
                tokens.append(("int", int(src[i:j]), i))
                i = j
        elif ch == "a":
            tokens.append(("gen", None, i))
            i += 1
        elif ch == "z":
            tokens.append(("z", None, i))
            i += 1
        elif ch in _SYMBOLS:
            tokens.append((ch, None, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", position=i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(
                f"unexpected token {tok[0]!r}", position=tok[2], expected=kind
            )
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(
                f"trailing input {tok[0]!r}", position=tok[2], expected="end"
            )
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self):
        if self.peek()[0] == "-":
            self.take()
            return Neg(self.factor())
        node = self.atom()
        if self.peek()[0] == "^" and self.tokens[self.pos + 1][0] != "{":
            self.take()
            sign = 1
            if self.peek()[0] == "-":
                self.take()
                sign = -1
            node = Pow(node, sign * self.take("int")[1])
        return node

    def atom(self):
        tok = self.peek()
        if tok[0] == "int":
            self.take()
            if self.peek()[0] == "/" and self.tokens[self.pos + 1][0] == "int":
                # a rational literal p/q binds tighter than division
                self.take()
                den = self.take("int")[1]
                if den == 0:
                    raise ParseError("zero denominator", position=tok[2])
                return Num(Fraction(tok[1], den))
            return Num(Fraction(tok[1]))
        if tok[0] == "imag":
            self.take()
            if tok[1] != 1:
                return BinOp("*", Num(Fraction(tok[1])), Imag())
            return Imag()
        if tok[0] == "gen":
            self.take()
            return Gen()
        if tok[0] == "z":
            self.take()
            self.take("^")
            self.take("{")
            inner = self.expr()
            self.take("}")
            return Mono(inner)
        if tok[0] == "(":
            self.take()
            inner = self.expr()
            self.take(")")
            return inner
        raise ParseError(
            f"unexpected token {tok[0]!r}", position=tok[2],
            expected="rational, a, 1i, z^{...} or (",
        )


def _shallow(walk, *args):
    """walk(*args), a recursive walk of an expression; a tree deeper than
    the interpreter's recursion limit raises ParseError."""
    try:
        return walk(*args)
    except RecursionError:
        raise ParseError("expression tree too deep") from None


def parse_expression(src: str):
    """Source text to AST; raises ParseError with position info."""
    return _shallow(_Parser(src).parse)


# -- evaluation: field elements --------------------------------------


def eval_element(node, field: NumberField) -> FieldElement:
    if isinstance(node, Num):
        return field.from_rational(node.value)
    if isinstance(node, Gen):
        return field.gen
    if isinstance(node, Imag):
        raise ParseError("1i is a coefficient, not a field element")
    if isinstance(node, Mono):
        raise ParseError("z^{...} is an algebra monomial, not a field element")
    if isinstance(node, Neg):
        return -eval_element(node.arg, field)
    if isinstance(node, Pow):
        base = eval_element(node.base, field)
        base = base.inverse() if node.exponent < 0 else base
        return _bounded_pow(base, abs(node.exponent), field.one, _element_bits)
    if isinstance(node, BinOp) and node.op in "+-":
        acc = field.zero
        for op, term in _sum_terms(node):
            v = eval_element(term, field)
            acc = acc + v if op == "+" else acc - v
        return acc
    if isinstance(node, BinOp):
        a = eval_element(node.left, field)
        b = eval_element(node.right, field)
        if node.op == "*":
            return a * b
        if b.is_zero:
            raise ParseError("division by the zero element")
        return a / b
    raise TypeError(f"not an AST node: {node!r}")


def parse_element(src: str, field: NumberField) -> FieldElement:
    return _shallow(eval_element, parse_expression(src), field)


# -- evaluation: algebra elements ------------------------------------
#
# Values during evaluation are either scalars (Gaussian rationals) or
# algebra elements.  A scalar mixed additively with an algebra element
# is promoted to its multiple of z^{0}; the product of two algebra
# elements is rejected as ambiguous (Cauchy or Dirichlet must be named
# through the API, not guessed from "*").


def _promote(value, field, mode):
    if isinstance(value, AlgebraElement):
        return value
    return AlgebraElement(field, mode, {field.zero: value})


def eval_algebra(node, field: NumberField, mode: str = EXACT):
    if isinstance(node, Num):
        return GaussRat(node.value)
    if isinstance(node, Imag):
        return GaussRat(0, 1)
    if isinstance(node, Gen):
        raise ParseError("the generator is only meaningful inside z^{...}")
    if isinstance(node, Mono):
        idx = eval_element(node.index, field)
        return make_monomial(idx, 1, mode)
    if isinstance(node, Neg):
        v = eval_algebra(node.arg, field, mode)
        return v.scale(-1) if isinstance(v, AlgebraElement) else -v
    if isinstance(node, Pow):
        v = eval_algebra(node.base, field, mode)
        if isinstance(v, AlgebraElement):
            raise ParseError("powers of algebra elements are ambiguous")
        one = GaussRat(1)
        v = one / v if node.exponent < 0 else v
        return _bounded_pow(v, abs(node.exponent), one, _scalar_bits)
    if isinstance(node, BinOp) and node.op in "+-":
        # scalars add as scalars until an algebra term, then all into one element
        acc = GaussRat(0)
        for op, term in _sum_terms(node):
            v = eval_algebra(term, field, mode)
            if isinstance(acc, AlgebraElement) or isinstance(v, AlgebraElement):
                v = _promote(v, field, mode)
                acc = _promote(acc, field, mode)._iadd(v if op == "+" else -v)
            else:
                acc = acc + v if op == "+" else acc - v
        return acc
    if isinstance(node, BinOp):
        a = eval_algebra(node.left, field, mode)
        b = eval_algebra(node.right, field, mode)
        a_alg, b_alg = isinstance(a, AlgebraElement), isinstance(b, AlgebraElement)
        if node.op == "*":
            if a_alg and b_alg:
                raise ParseError(
                    "product of algebra elements is ambiguous; "
                    "use the cauchy/dirichlet operations"
                )
            if a_alg:
                return a.scale(b)
            if b_alg:
                return b.scale(a)
            return a * b
        # division
        if b_alg:
            raise ParseError("division by an algebra element")
        if b.is_zero:
            raise ParseError("division by zero")
        if a_alg:
            return a.scale(GaussRat(1) / b)
        return a / b
    raise TypeError(f"not an AST node: {node!r}")


def _bounded_pow(v, n: int, one, bits):
    """v^n for n >= 0 by repeated squaring; raises ParseError before any
    product whose factors hold more than MAX_POWER_BITS bits together."""
    out = one
    while n:
        if bits(out) + 2 * bits(v) > MAX_POWER_BITS:
            raise ParseError(f"power above {MAX_POWER_BITS} bits")
        if n & 1:
            out = out * v
        v, n = v * v, n >> 1
    return out


def _element_bits(a: FieldElement) -> int:
    return max(abs(c).bit_length() for c in a.num) + a.den.bit_length()


def _scalar_bits(v: GaussRat) -> int:
    return max(abs(v.x).bit_length(), abs(v.y).bit_length()) + v.den.bit_length()


def parse_algebra(src: str, field: NumberField, mode: str = EXACT) -> AlgebraElement:
    value = _shallow(eval_algebra, parse_expression(src), field, mode)
    return _promote(value, field, mode)

"""Named workspaces with a stable JSON representation.

A session holds named fields, field elements, algebra elements, and
Galois groups.  Elements refer to their field by name, so a field must
be registered before anything built on it, and removing a field with
dependents is refused.  Serialization is canonical: rationals print as
"p/q" strings, terms sort lexicographically by index coordinates, and
keys are emitted sorted on one compact line, so save -> load -> save is
byte-identical.
"""

from __future__ import annotations

import json
import re
from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, log2

from .algebra import AlgebraElement, _element
from .coeffs import APPROX, EXACT, _gauss
from .errors import SessionError
from .galois import Automorphism, GaloisGroup
from .numberfield import FieldElement, NumberField, define_field
from .parser import MAX_POWER_BITS
from .polys import Poly

_KINDS = ("fields", "elements", "algebra", "groups")


# Past the interpreter's limit on int <-> str digits (4300 by default),
# integers convert by halves, as CPython 3.12's Lib/_pylong.py does
# (gh-90716), in time subquadratic in the digit count.


def _int(s: str, pow10=None) -> int:
    """int(s) for a string of decimal digits, signed or not, of any length."""
    try:
        return int(s)
    except ValueError:  # past the digit limit
        pow10, k = pow10 or lru_cache(None)(lambda k: 10 ** k), len(s) // 2
    # the sign of s is the sign of its high half, which may read as zero
    hi, lo = _int(s[:-k], pow10), _int(s[-k:], pow10)
    return hi * pow10(k) + (-lo if s[0] == "-" else lo)


def _str(n: int) -> str:
    """str(n) for an int of any size."""
    try:
        return str(n)
    except ValueError:  # past the digit limit
        pow2 = lru_cache(None)(lambda k: Decimal(2) ** k)

    def dec(m: int, w: int) -> Decimal:  # 0 <= m < 2^w, exactly
        if w <= 1024:
            return Decimal(m)
        k, hi = w // 2, m >> w // 2
        return dec(hi, w - k) * pow2(k) + dec(m - (hi << k), k)

    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.traps[Inexact] = MAX_PREC, MAX_EMAX, True
        return "-" * (n < 0) + str(dec(abs(n), abs(n).bit_length()))


# "p" and "p/q", the forms the encoders write, skip Fraction's parser
_PLAIN_RAT = re.compile(r"\s*([+-]?\d+)(?:/(\d+))?\s*\Z")
# unpadded "p", which _PLAIN_RAT reads as (s, None)
_PLAIN_INT = re.compile(r"[+-]?\d+\Z")
# Fraction builds 10^|e| in full: past MAX_POWER_BITS bits it is refused
_EXPONENT = re.compile(r"[eE][-+]?(\d[\d_]*)\s*\Z")
_MAX_EXPONENT = int(MAX_POWER_BITS / log2(10))


def nums_over_lcm(strs) -> tuple[list[int], int]:
    """Rational strings, each read as Fraction(str) reads it, as integer
    numerators over the lcm of their denominators."""
    if all(map(_PLAIN_INT.match, strs)):  # the common case, 3x cheaper
        return list(map(_int, strs)), 1
    pairs = []
    for s in strs:
        m = _PLAIN_RAT.match(s)
        den = m and _int(m[2] or "1")
        # Fraction reads what is not "p" or "p/q", and refuses a zero denominator
        if not den and (e := _EXPONENT.search(s)) and int(e[1].replace("_", "")) > _MAX_EXPONENT:
            raise ValueError(f"exponent above {MAX_POWER_BITS} bits: {s!r}")
        pairs.append((_int(m[1]), den) if den else Fraction(s).as_integer_ratio())
    den = lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


def rat_from_str(s: str) -> int | Fraction:
    """A rational from any string that Fraction(str) reads, as an int when
    its denominator is 1."""
    (num,), den = nums_over_lcm([s])
    return num // den if num % den == 0 else Fraction(num, den)


def ratios_to_strs(nums, den: int) -> list[str]:
    """Each num / den, for den > 0, as "p" or "p/q" in lowest terms."""
    return [_str(n // g) if g == den else f"{_str(n // g)}/{_str(den // g)}"
            for n in nums for g in (gcd(n, den),)]


def rat_to_str(q) -> str:
    """q as "p" or "p/q" in lowest terms."""
    if type(q) is not int and type(q) is not Fraction:
        q = Fraction(q)
    return ratios_to_strs([q.numerator], q.denominator)[0]


def field_to_json(field: NumberField) -> dict:
    r, s = field.signature
    return {
        "minpoly": [rat_to_str(c) for c in field.minpoly.coeffs],
        "signature": [r, s],
    }


def field_from_json(doc: dict) -> NumberField:
    field = define_field(Poly([rat_from_str(c) for c in doc["minpoly"]]))
    if "signature" in doc:
        r, s = doc["signature"]
        if field.signature != (r, s):
            raise SessionError(
                f"stored signature ({r},{s}) disagrees with the minimal "
                f"polynomial (expected {field.signature})"
            )
    return field


def element_to_json(elem: FieldElement, field_name: str) -> dict:
    return {"field": field_name, "coords": ratios_to_strs(elem.num, elem.den)}


def element_from_json(doc: dict, field: NumberField) -> FieldElement:
    return field.from_integers(*nums_over_lcm(doc["coords"]))


def algebra_to_json(f: AlgebraElement, field_name: str) -> dict:
    # the index order of the rational coordinates, in integers over one lcm
    den = lcm(*(e.den for e in f.terms))
    key = (lambda e: e.num) if den == 1 else lambda e: [c * (den // e.den) for c in e.num]
    terms = []
    for idx in sorted(f.terms, key=key):
        c = f.terms[idx]
        if f.mode == EXACT:
            re, im = ratios_to_strs((c.x, c.y), c.den)
        else:
            re, im = repr(c.real), repr(c.imag)
        terms.append({"index": ratios_to_strs(idx.num, idx.den), "re": re, "im": im})
    return {"field": field_name, "mode": f.mode, "terms": terms}


def algebra_from_json(doc: dict, field: NumberField) -> AlgebraElement:
    mode = doc["mode"]
    terms = {}
    for t in doc["terms"]:
        idx = field.from_integers(*nums_over_lcm(t["index"]))
        if mode == EXACT:
            (x, y), den = nums_over_lcm((t["re"], t["im"]))
            terms[idx] = _gauss(x, y, den)
        elif mode == APPROX:
            terms[idx] = complex(float(t["re"]), float(t["im"]))
        else:
            raise SessionError(f"unknown mode {mode!r}")
    # terms valid by construction; with none, AlgebraElement checks the mode
    return _element(field, mode, terms) if terms else AlgebraElement(field, mode)


def group_to_json(group: GaloisGroup, field_name: str) -> dict:
    return {
        "field": field_name,
        "images": [ratios_to_strs(g.image.num, g.image.den) for g in group.elements],
    }


def group_from_json(doc: dict, field: NumberField) -> GaloisGroup:
    return GaloisGroup(field, [Automorphism(field, field.from_integers(*nums_over_lcm(c)))
                               for c in doc["images"]])


class Session:
    """A named collection of objects with referential integrity."""

    def __init__(self):
        self.fields: dict[str, NumberField] = {}
        self.elements: dict[str, tuple[str, FieldElement]] = {}
        self.algebra: dict[str, tuple[str, AlgebraElement]] = {}
        self.groups: dict[str, tuple[str, GaloisGroup]] = {}

    # -- registration ------------------------------------------------

    def _fresh(self, kind: str, name: str):
        if name in getattr(self, kind):
            raise SessionError(f"{kind[:-1]} name {name!r} already in use")

    def field_name_of(self, field: NumberField) -> str:
        # the very object first, as a loaded entry's field is, then an equal one
        for name, f in self.fields.items():
            if f is field:
                return name
        for name, f in self.fields.items():
            if f == field:
                return name
        raise SessionError("field is not registered in this session")

    def add_field(self, name: str, field: NumberField):
        self._fresh("fields", name)
        self.fields[name] = field
        return field

    def add_element(self, name: str, elem: FieldElement):
        self._fresh("elements", name)
        self.elements[name] = (self.field_name_of(elem.field), elem)
        return elem

    def add_algebra(self, name: str, f: AlgebraElement):
        self._fresh("algebra", name)
        self.algebra[name] = (self.field_name_of(f.field), f)
        return f

    def add_group(self, name: str, g: GaloisGroup):
        self._fresh("groups", name)
        self.groups[name] = (self.field_name_of(g.field), g)
        return g

    def remove_field(self, name: str):
        if name not in self.fields:
            raise SessionError(f"no field named {name!r}")
        for kind in ("elements", "algebra", "groups"):
            users = [k for k, (fn, _) in getattr(self, kind).items() if fn == name]
            if users:
                raise SessionError(
                    f"field {name!r} is still referenced by {kind} {users}"
                )
        del self.fields[name]

    def get_field(self, name: str) -> NumberField:
        try:
            return self.fields[name]
        except KeyError:
            raise SessionError(f"no field named {name!r}") from None

    # -- serialization -----------------------------------------------

    def to_json(self) -> dict:
        return {
            "fields": {n: field_to_json(f) for n, f in self.fields.items()},
            "elements": {
                n: element_to_json(e, fn) for n, (fn, e) in self.elements.items()
            },
            "algebra": {
                n: algebra_to_json(f, fn) for n, (fn, f) in self.algebra.items()
            },
            "groups": {
                n: group_to_json(g, fn) for n, (fn, g) in self.groups.items()
            },
        }

    def dumps(self) -> str:
        # compact separators keep json on its C encoder; json.loads reads
        # the older indented files as well
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")) + "\n"

    def save(self, path: str):
        with open(path, "w") as fh:
            fh.write(self.dumps())

    @classmethod
    def from_json(cls, doc: dict) -> "Session":
        sess = cls()
        for kind in doc:
            if kind not in _KINDS:
                raise SessionError(f"unknown section {kind!r}")
        for name in sorted(doc.get("fields", {})):
            sess.add_field(name, field_from_json(doc["fields"][name]))
        for kind, from_doc, add in (("elements", element_from_json, sess.add_element),
                                    ("algebra", algebra_from_json, sess.add_algebra),
                                    ("groups", group_from_json, sess.add_group)):
            for name in sorted(doc.get(kind, {})):
                d = doc[kind][name]
                add(name, from_doc(d, sess.get_field(d["field"])))
        return sess

    @classmethod
    def loads(cls, text: str) -> "Session":
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise SessionError(f"malformed session file: {exc}") from None
        if not isinstance(doc, dict):
            raise SessionError("session file must hold a JSON object")
        try:
            return cls.from_json(doc)
        except KeyError as exc:
            raise SessionError(f"malformed session file: missing entry {exc}") from None
        except TypeError as exc:
            raise SessionError(f"malformed session file: {exc}") from None

    @classmethod
    def load(cls, path: str) -> "Session":
        with open(path) as fh:
            return cls.loads(fh.read())

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
from decimal import Decimal
from fractions import Fraction

from .algebra import AlgebraElement
from .coeffs import APPROX, EXACT, GaussRat
from .errors import SessionError
from .galois import Automorphism, GaloisGroup
from .numberfield import FieldElement, NumberField, define_field
from .polys import Poly

_KINDS = ("fields", "elements", "algebra", "groups")


# Past the interpreter's limit on int <-> str digits (4300 by default),
# rationals go through Decimal, which converts integers exactly at any length.


def rat_to_str(q) -> str:
    """q as "p" or "p/q" in lowest terms."""
    if type(q) is not int and type(q) is not Fraction:
        q = Fraction(q)
    try:
        return str(q)
    except ValueError:
        num, den = str(Decimal(q.numerator)), str(Decimal(q.denominator))
        return num if den == "1" else f"{num}/{den}"


# "p" and "p/q", the forms rat_to_str writes, skip Fraction's parser
_PLAIN_RAT = re.compile(r"\s*([+-]?\d+)(?:/(\d+))?\s*\Z")


def rat_from_str(s: str) -> int | Fraction:
    """A rational from any string that Fraction(str) reads, as an int when
    its denominator is 1."""
    m = _PLAIN_RAT.match(s)
    if m is None:
        q = Fraction(s)
    else:
        try:
            num, den = int(m[1]), int(m[2] or 1)
        except ValueError:  # past the digit limit
            num, den = int(Decimal(m[1])), int(Decimal(m[2] or 1))
        q = num if den == 1 else Fraction(num, den)
    return q.numerator if q.denominator == 1 else q


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
    return {
        "field": field_name,
        "coords": [rat_to_str(c) for c in elem.coords],
    }


def element_from_json(doc: dict, field: NumberField) -> FieldElement:
    return field.element([rat_from_str(c) for c in doc["coords"]])


def algebra_to_json(f: AlgebraElement, field_name: str) -> dict:
    terms = []
    for idx in sorted(f.terms, key=lambda e: e.coords):
        c = f.terms[idx]
        if f.mode == EXACT:
            re, im = rat_to_str(c.re), rat_to_str(c.im)
        else:
            re, im = repr(c.real), repr(c.imag)
        terms.append(
            {"index": [rat_to_str(q) for q in idx.coords], "re": re, "im": im}
        )
    return {"field": field_name, "mode": f.mode, "terms": terms}


def algebra_from_json(doc: dict, field: NumberField) -> AlgebraElement:
    mode = doc["mode"]
    terms = {}
    for t in doc["terms"]:
        idx = field.element([rat_from_str(q) for q in t["index"]])
        if mode == EXACT:
            terms[idx] = GaussRat(rat_from_str(t["re"]), rat_from_str(t["im"]))
        elif mode == APPROX:
            terms[idx] = complex(float(t["re"]), float(t["im"]))
        else:
            raise SessionError(f"unknown mode {mode!r}")
    return AlgebraElement(field, mode, terms)


def group_to_json(group: GaloisGroup, field_name: str) -> dict:
    return {
        "field": field_name,
        "images": [
            [rat_to_str(c) for c in sig.image.coords] for sig in group.elements
        ],
    }


def group_from_json(doc: dict, field: NumberField) -> GaloisGroup:
    return GaloisGroup(field, [
        Automorphism(field, field.element([rat_from_str(c) for c in coords]))
        for coords in doc["images"]
    ])


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

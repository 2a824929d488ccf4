"""The four benchmark workloads.

Each workload class records why it was chosen (its docstring) and which
layers it should and should not touch (``touches``; ``bypasses`` lists the
per-layer counts that must read 0 on a traced run).  Its ``setup`` is
timed as ``setup_s`` (it builds the workload's fields right after
``import nlfield``), and ``ops`` makes the pass's fixed, seeded op list.
An op is issued only after the previous one returns.  Every op carries a
``check`` that compares its output with an independent reference from
``references``; checks run after the timed loop.  Op counts per kind are fixed, so the seed changes the operands and
their order but not the mix.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import references as ref


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


# Minimal polynomials, lowest coefficient first.  The references use these
# literals; nlfield builds its fields from its own constructors.
MINPOLYS = {
    "Q": [0, 1],
    "Q(i)": [1, 0, 1],
    "Q(zeta5)": [1, 1, 1, 1, 1],
    "Q(zeta8)": [1, 0, 0, 0, 1],
    "Q(zeta12)": [1, 0, -1, 0, 1],
    "Q(sqrt2)": [-2, 0, 1],
    # splitting field of x^3 - 2 (acceptance criterion 6)
    "deg6": [100, 120, 84, 52, 24, 6, 1],
}
CYCLOTOMIC_ORDER = {"Q(i)": 4, "Q(zeta5)": 5, "Q(zeta8)": 8, "Q(zeta12)": 12}
CBRT2 = [Fraction(-20, 9), Fraction(-88, 45), Fraction(-64, 45),
         Fraction(-38, 45), Fraction(-19, 90), Fraction(-2, 45)]


def _build_fields(nlf, names):
    out = {}
    for name in names:
        if name == "Q":
            out[name] = nlf.rationals()
        elif name == "Q(sqrt2)":
            out[name] = nlf.quadratic_field(2)
        elif name in CYCLOTOMIC_ORDER:
            out[name] = nlf.cyclotomic_field(CYCLOTOMIC_ORDER[name])
        else:
            out[name] = nlf.define_field(nlf.Poly(MINPOLYS[name]))
    return out


def _rand_coords(rng, degree, height):
    while True:
        cs = tuple(Fraction(rng.randint(-height, height)) for _ in range(degree))
        if any(cs):
            return cs


def _conjugate_coords(coords, name):
    """Complex conjugation of a cyclotomic element: the automorphism
    a -> a^(n-1), applied with sympy."""
    mp = MINPOLYS[name]
    image = ref.generator_power(CYCLOTOMIC_ORDER[name] - 1, mp)
    return ref.index_image(coords, image, mp)


# -- sign-certify ------------------------------------------------------

SIGN_FIELDS = ["Q(i)", "Q(zeta5)", "Q(zeta8)", "Q(zeta12)", "Q(sqrt2)", "deg6"]
# generic (off-axis) sign_of ops per field.  Warm generic signs are cheap
# next to the cold and axis ops, so many of them cost little.  The counts
# put the median in the middle of the Q(zeta8) block, a field no axis index
# refines, and the 90th percentile inside the deg6 block, away from the
# jumps between field costs.
SIGN_GENERIC = {"Q(i)": 120, "Q(zeta5)": 60, "Q(zeta8)": 240, "Q(zeta12)": 60,
                "Q(sqrt2)": 120, "deg6": 120}
# (real-axis, imaginary-axis) ops per field, built as a + abar and a - abar.
# With criterion 6's cube root of 2 that is 15 axis indices of 759 ops (2%).
# Q(zeta8) has none: its first axis index alone refines both places to
# 2^-106 (about 10 s), which the two fields here already exercise.
SIGN_AXIS = {"Q(i)": (4, 4), "Q(zeta5)": (1, 2), "Q(zeta12)": (1, 2)}
HARDY_FIELDS = ["Q(i)", "Q(sqrt2)"]
HARDY_EVALS = 6       # series_eval_hyper ops per Hardy field
HARDY_MEMBERSHIP = 6  # hardy_membership ops per Hardy field


def _sign_op(nlf, K, coords, expected, kind):
    alpha = K.element(coords)
    return Op(kind, lambda: nlf.sign_of(alpha),
              lambda v: v.serialize() == expected)


class SignCertify:
    """Where certification cost lives: the first sign in a fresh field pays
    root refinement, warm generic signs are interval arithmetic, and axis
    indices take the exact minimal-polynomial fallback.  Almost no algebra
    products and no Dirichlet series."""

    name = "sign-certify"
    touches = ["numberfield", "intervals", "signs", "hardy", "sympy"]
    bypasses = ["algebra.AlgebraElement.dirichlet.calls",
                "dirichlet.dinvert.calls", "dirichlet.dconv.calls"]

    def setup(self, nlf):
        return _build_fields(nlf, SIGN_FIELDS)

    def ops(self, nlf, fields, rng, workdir):
        roots = {n: ref.places(MINPOLYS[n]) for n in SIGN_FIELDS}
        ops, used = [], {n: [] for n in SIGN_FIELDS}
        for name, count in SIGN_GENERIC.items():
            K = fields[name]
            # quadratic fields need the wider box to hold that many
            # distinct off-axis indices
            height = 3 if name == "deg6" else 8 if K.degree == 2 else 4
            while len(used[name]) < count:
                cs = _rand_coords(rng, K.degree, height)
                # generic: every embedding well off both axes
                if cs in used[name] or ref.axis_margin(cs, roots[name]) < 1e-3:
                    continue
                used[name].append(cs)
                ops.append(_sign_op(nlf, K, cs, ref.sign_vector(cs, roots[name]),
                                    f"sign.generic.{name}"))
        # criterion 6's cube root of 2: real at one of deg6's complex places
        cbrt2 = tuple(CBRT2)
        cbrt2_op = _sign_op(nlf, fields["deg6"], cbrt2,
                            ref.sign_vector(cbrt2, roots["deg6"]), "sign.cbrt2")
        for name, (n_real, n_imag) in SIGN_AXIS.items():
            K, r = fields[name], roots[name]
            made = {"real": 0, "imag": 0}
            while made["real"] < n_real or made["imag"] < n_imag:
                a = _rand_coords(rng, K.degree, 3)
                abar = _conjugate_coords(a, name)
                for axis, sgn in (("real", 1), ("imag", -1)):
                    cs = tuple(x + sgn * y for x, y in zip(a, abar))
                    if made[axis] >= (n_real if axis == "real" else n_imag):
                        continue
                    # real-axis indices outside Q(i) must be irrational, so
                    # each one goes through root matching, not a degree-1 minpoly
                    irrational = any(cs[1:]) or name == "Q(i)"
                    if not any(cs) or cs in used[name] or not irrational:
                        continue
                    # the axis is known by construction, the direction
                    # along it from the high-precision embedding
                    want = [ref.complex_sign(ref.embed(cs, z)) for z in r[1]]
                    allowed = ("+", "-") if axis == "real" else ("sqrt-", "-sqrt-")
                    if not all(w in allowed for w in want):
                        raise AssertionError("axis construction failed")
                    used[name].append(cs)
                    made[axis] += 1
                    ops.append(_sign_op(nlf, K, cs, want, f"sign.{axis}_axis.{name}"))
        for name in HARDY_FIELDS:
            K, r = fields[name], roots[name]
            generic = used[name][:SIGN_GENERIC[name]]
            for j in range(HARDY_EVALS + HARDY_MEMBERSHIP):
                # two indices already signed (sign-cache hits), one new
                idx = rng.sample(generic, 2)
                while len(idx) < 3:
                    cs = _rand_coords(rng, K.degree, 2)
                    if cs not in generic and ref.axis_margin(cs, r) >= 1e-3:
                        idx.append(cs)
                terms = {i: (Fraction(rng.randint(1, 5)), Fraction(rng.randint(-2, 2)))
                         for i in idx}
                f = nlf.AlgebraElement(K, "exact", {
                    K.element(i): nlf.GaussRat(*c) for i, c in terms.items()})
                if j < HARDY_EVALS:
                    x, t = rng.choice([0.0, 0.25, 0.5]), rng.choice([0.5, 1.0])
                    want = ref.hyper_series_value(terms, r, x, t)
                    ops.append(Op(f"hardy.series_eval_hyper.{name}",
                                  lambda f=f, K=K, x=x, t=t: nlf.series_eval_hyper(
                                      f, nlf.HyperPoint.uniform(K, x=x, t=t)),
                                  lambda res, w=want: abs(res.value - w) <= 1e-9 * (1 + abs(w))))
                else:
                    want = all(s in ("+", "+e") for i in terms
                               for s in ref.sign_vector(i, r))
                    ops.append(Op(f"hardy.membership.{name}",
                                  lambda f=f: nlf.hardy_membership(f),
                                  lambda res, w=want: res is w))
        # criterion 6's cube root of 2 goes last, so the refinement it forces
        # on deg6's places never reaches a generic deg6 sign, whatever the
        # seed; the generic signs thus meet the same enclosures in every run
        rng.shuffle(ops)
        ops.append(cbrt2_op)
        return ops


# -- exact-products ----------------------------------------------------

PRODUCT_FIELDS = ["Q", "Q(sqrt2)", "Q(zeta5)", "Q(zeta8)"]
PRODUCTS_PER_FIELD = 60      # each of Cauchy and Dirichlet
AUTOMORPHISMS_PER_FIELD = 60  # for every field but Q
TORUS_OPS = 60                # in Q(sqrt2)
AUTOMORPHISM_POWERS = {"Q(zeta5)": (2, 3, 4), "Q(zeta8)": (3, 5, 7)}


def _rand_algebra(rng, degree, j):
    """Plain-dict element number j: 4 + j % 5 terms (so up to 8), index
    height <= 20, Gaussian rational coefficients; every fourth one carries
    a zero index.  Sizes follow j, not the seed, so the work per pass is
    the same for every seed."""
    terms = {}
    n = 4 + j % 5
    if j % 4 == 0:
        terms[tuple(Fraction(0) for _ in range(degree))] = None
    while len(terms) < n:
        terms[_rand_coords(rng, degree, 20)] = None
    for idx in terms:
        while True:
            c = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                 Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            if c != (0, 0):
                terms[idx] = c
                break
    return terms


def _to_nlfield(nlf, K, terms):
    return nlf.AlgebraElement(K, "exact", {
        K.element(i): nlf.GaussRat(*c) for i, c in terms.items()})


def _from_nlfield(f):
    return {tuple(i.coords): (c.re, c.im) for i, c in f.terms.items()}


def _check_product(out, want, fterms, gterms):
    got = _from_nlfield(out)
    t = ref.gmul(ref.coeff_sum(fterms), ref.coeff_sum(gterms))
    return got == want and ref.coeff_sum(got) == t


class ExactProducts:
    """FieldElement multiply, Poly reduction and GaussRat arithmetic:
    exact Cauchy and Dirichlet products, reindexing by an automorphism and
    torus inner products.  The sign path is bypassed, so a change to root
    enclosures should show no change here."""

    name = "exact-products"
    touches = ["numberfield", "polys", "coeffs", "algebra", "galois", "hardy"]
    bypasses = ["signs.sign_of.calls"]

    def setup(self, nlf):
        return _build_fields(nlf, PRODUCT_FIELDS)

    def ops(self, nlf, fields, rng, workdir):
        from nlfield.galois import apply_to_algebra, make_automorphism

        ops = []
        for name in PRODUCT_FIELDS:
            K, mp = fields[name], MINPOLYS[name]
            for kind in ("cauchy", "dirichlet"):
                for j in range(PRODUCTS_PER_FIELD):
                    ft, gt = _rand_algebra(rng, K.degree, j), _rand_algebra(rng, K.degree, j + 2)
                    f, g = _to_nlfield(nlf, K, ft), _to_nlfield(nlf, K, gt)
                    want = ref.cauchy(ft, gt) if kind == "cauchy" else ref.dirichlet(ft, gt, mp)
                    run = (lambda f=f, g=g: f.cauchy(g)) if kind == "cauchy" else (
                        lambda f=f, g=g: f.dirichlet(g))
                    ops.append(Op(f"product.{kind}", run,
                                  lambda out, w=want, ft=ft, gt=gt: _check_product(out, w, ft, gt)))
            if name == "Q":
                continue
            for j in range(AUTOMORPHISMS_PER_FIELD):
                if name == "Q(sqrt2)":
                    image = (Fraction(0), Fraction(-1))
                else:
                    powers = AUTOMORPHISM_POWERS[name]
                    image = ref.generator_power(powers[j % len(powers)], mp)
                sigma = make_automorphism(K, K.element(image))
                ft = _rand_algebra(rng, K.degree, j)
                f = _to_nlfield(nlf, K, ft)
                want = {ref.index_image(i, image, mp): c for i, c in ft.items()}
                traces = sorted(ref.trace(i, mp) for i in ft)

                def check(out, w=want, tr=traces, mp=mp):
                    got = _from_nlfield(out)
                    return got == w and sorted(ref.trace(i, mp) for i in got) == tr
                ops.append(Op("galois.apply_to_algebra",
                              lambda s=sigma, f=f: apply_to_algebra(s, f), check))
        K = fields["Q(sqrt2)"]

        def torus(a1, b1, a2, b2):
            # characters (a + b sqrt2) / (2 sqrt2) of the inverse different,
            # built as in acceptance criterion 9
            scale = (K.gen + K.gen).inverse()
            f = nlf.monomial(K.element([a1, b1]) * scale)
            g = nlf.monomial(K.element([a2, b2]) * scale)
            return nlf.torus_inner_product(f, g, 16)

        for j in range(TORUS_OPS):
            # half the pairs are equal; the reference is the Kronecker delta
            a1, b1 = rng.randint(-5, 5), rng.randint(-5, 5)
            a2, b2 = (a1, b1) if j % 2 else (rng.randint(-5, 5), rng.randint(-5, 5))
            want = 1.0 if (a1, b1) == (a2, b2) else 0.0
            ops.append(Op("hardy.torus_inner_product",
                          lambda c=(a1, b1, a2, b2): torus(*c),
                          lambda res, w=want: abs(res.value - w) < 1e-9))
        rng.shuffle(ops)
        return ops


# -- dirichlet-series --------------------------------------------------

# (kind, mode, N, items per pass); each item is dinvert(f) then dconv(f, inverse).
# The sizes give every op about the same cost (~0.1 s on a 2.1 GHz Xeon),
# so the median and the 90th percentile fall inside one block of
# latencies instead of on the step between two kinds of op.
SERIES_ITEMS = [
    ("unit", "exact", 750, 6),
    ("ones", "exact", 800, 2),
    ("nonunit", "exact", 750, 4),
    ("gaussian", "exact", 700, 4),
    ("approx", "approx", 10000, 6),
]


def _series_values(rng, kind, N):
    """Coefficient pairs (re, im) as ints, a_1 first."""
    def small():
        return rng.randint(-3, 3) if rng.random() < 0.5 else 0
    if kind == "ones":
        return [(1, 0)] * N
    if kind == "gaussian":
        a1 = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)])
        return [a1] + [(small(), small()) for _ in range(N - 1)]
    a1 = rng.choice([2, 3, -2, -3]) if kind == "nonunit" else rng.choice([1, -1])
    return [(a1, 0)] + [(small(), 0) for _ in range(N - 1)]


def _series_inverse_ok(inv, vals, kind, mode):
    if mode == "approx":
        return ref.is_delta_approx([complex(*v) for v in vals], list(inv.a), 1e-9)
    if kind == "ones":
        return all(c.im == 0 and c.re == ref.mobius(n)
                   for n, c in enumerate(inv.a, start=1))
    return ref.is_delta_exact(vals, [(_int_if_whole(c.re), _int_if_whole(c.im))
                                     for c in inv.a])


def _int_if_whole(q):
    """Plain ints keep the reference loop fast where no fraction is needed."""
    return q.numerator if q.denominator == 1 else q


def _series_delta_ok(h, mode):
    if mode == "approx":
        return abs(h.a[0] - 1) <= 1e-9 and all(abs(c) <= 1e-9 for c in h.a[1:])
    return (h.a[0].re, h.a[0].im) == (1, 0) and all(c.is_zero for c in h.a[1:])


class DirichletSeries:
    """All of dirichlet + coeffs with no field arithmetic: the unit case is
    where an integer fast path would show; the non-unit, Gaussian and
    approx items use the same layer differently, so a regression of the
    general path shows there."""

    name = "dirichlet-series"
    touches = ["dirichlet", "coeffs"]
    bypasses = ["signs.sign_of.calls", "numberfield.FieldElement.mul.calls"]

    def setup(self, nlf):
        return {}

    def ops(self, nlf, fields, rng, workdir):
        items = []
        for kind, mode, N, count in SERIES_ITEMS:
            for _ in range(count):
                vals = _series_values(rng, kind, N)
                if mode == "exact":
                    coeffs = [nlf.GaussRat(Fraction(a), Fraction(b)) for a, b in vals]
                else:
                    coeffs = [complex(a, b) for a, b in vals]
                items.append((kind, mode, vals, nlf.IntegerSeries(N, coeffs, mode)))
        rng.shuffle(items)
        ops, box = [], {}
        for n, (kind, mode, vals, f) in enumerate(items):
            def invert(f=f, n=n):
                box[n] = nlf.dinvert(f)
                return box[n]

            ops.append(Op(f"dinvert.{kind}", invert,
                          lambda inv, v=vals, k=kind, m=mode: _series_inverse_ok(inv, v, k, m)))
            ops.append(Op(f"dconv.{kind}", lambda f=f, n=n: nlf.dconv(f, box[n]),
                          lambda h, m=mode: _series_delta_ok(h, m)))
        return ops


# -- cli-session -------------------------------------------------------

CLI_ROUNDS = 12
CLI_VERIFY_EVERY = 4    # one `verify algebra --samples 2` per this many rounds
# argv whose contract is exit 2 (configuration error), one kind per round
CLI_INVALID = {
    "missing-expr2": ["--json", "alg", "cauchy", "z^{1}", "--minpoly=0,1"],
    "hardy-no-expr": ["--json", "hardy", "eval", "--minpoly=0,1"],
    "no-field": ["--json", "elem", "eval", "1+a"],
}


def _cli_call(main, argv):
    """Run the CLI in-process; returns (exit code, stdout, stderr).  An
    exception escaping main (a traceback for a user) propagates and fails
    the op."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def _poly_arg(mp):
    """'--minpoly=c0,c1,...': the '=' form, so a leading minus sign is not
    taken for an option."""
    return "--minpoly=" + ",".join(str(c) for c in mp)


def _alg_expr(terms):
    parts = []
    for (i0, i1), (c, _) in terms.items():
        parts.append(f"{c}*z^{{{i0}{i1:+d}*a}}")
    return "+".join(parts)


def _cli_terms(rng, n):
    """n distinct terms c*z^{i0+i1*a} with i1 > 0 and positive integer c."""
    idx = rng.sample([(i0, i1) for i0 in range(-5, 6) for i1 in range(1, 6)], n)
    return {i: (rng.randint(1, 9), 0) for i in idx}


def _cli_check(want_code, doc_check=None):
    def check(res):
        code, out, err = res
        if code != want_code or "Traceback" in err:
            return False
        if want_code != 0:
            return out == ""
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            return False
        return doc_check is None or bool(doc_check(doc))
    return check


def _terms_doc(doc_terms):
    return {tuple(Fraction(q) for q in t["index"]): (Fraction(t["re"]), Fraction(t["im"]))
            for t in doc_terms}


class CliSession:
    """The only workload through parser, session and cli: in-process
    cli.main on a seeded command mix.  Fields come from --minpoly, so each
    command builds its own, as a new process would; the session file grows
    during the pass, so save and load cost grows with the state.  Axis
    cases are avoided so that signs do not dominate."""

    name = "cli-session"
    touches = ["cli", "parser", "session", "suites", "algebra", "numberfield"]
    bypasses = ["dirichlet.dconv.calls", "galois.Automorphism.apply.calls"]

    def setup(self, nlf):
        import nlfield.cli  # noqa: F401 - the CLI import is part of set-up
        return {}

    def ops(self, nlf, fields, rng, workdir):
        from nlfield import cli

        def call(argv):
            return lambda: _cli_call(cli.main, argv)

        sess = os.path.join(workdir, "session.json")
        S = ["--json", "--session", sess]
        ops = [Op("cli.known_answer", call(
            ["--json", "alg", "dirichlet", "2*z^{0}+z^{3}", "z^{0}+5*z^{2}",
             "--minpoly=0,1"]), _cli_check(0, lambda d: _terms_doc(
                 d["result"]["terms"]) == {(0,): (13, 0), (6,): (5, 0)}))]
        names = {"fields": [], "elements": [], "algebra": []}
        s2_roots = ref.places(MINPOLYS["Q(sqrt2)"])
        for rnd in range(CLI_ROUNDS):
            # real and imaginary quadratic fields alternate, so every seed
            # grows the session with the same mix of signatures
            n = rng.choice([2, 3, 5, 6, 7, 10, 11] if rnd % 2 else [-1, -2, -3, -5, -6, -7])
            mp = [-n, 0, 1]
            K = f"K{rnd}"
            c = [rng.randint(-4, 4) for _ in range(4)]
            expr = f"({c[0]}{c[1]:+d}*a)*({c[2]}{c[3]:+d}*a)"
            e_want = ref.index_product((c[0], c[1]), (c[2], c[3]), mp)
            ft, gt = _cli_terms(rng, 3), _cli_terms(rng, 3)
            h_want = ref.dirichlet(
                {tuple(map(Fraction, i)): tuple(map(Fraction, v)) for i, v in ft.items()},
                {tuple(map(Fraction, i)): tuple(map(Fraction, v)) for i, v in gt.items()}, mp)
            sig = [2, 0] if n > 0 else [0, 1]
            writes = [
                Op("cli.field_new", call(S + ["field", "new", "--name", K,
                                              _poly_arg(mp)]),
                   _cli_check(0, lambda d, mp=mp, sig=sig: d["field"] == {
                       "minpoly": [str(x) for x in mp], "signature": sig})),
                Op("cli.elem_eval", call(S + ["elem", "eval", expr, "--field", K,
                                              "--name", f"e{rnd}"]),
                   _cli_check(0, lambda d, w=e_want: [Fraction(q) for q in
                                                      d["element"]["coords"]] == list(w))),
                Op("cli.alg_dirichlet", call(S + ["alg", "dirichlet", _alg_expr(ft),
                                                  _alg_expr(gt), "--field", K,
                                                  "--name", f"h{rnd}"]),
                   _cli_check(0, lambda d, w=h_want: _terms_doc(d["result"]["terms"]) == w)),
                Op("cli.session_save", call(S + ["session", "save"]), _cli_check(0)),
            ]
            names["fields"].append(K)
            names["elements"].append(f"e{rnd}")
            names["algebra"].append(f"h{rnd}")
            counts = {k: len(v) for k, v in names.items()} | {"groups": 0}
            tc = [rng.randint(-6, 6) for _ in range(2)]
            t_mp = [[-3, 0, 1], [1, 0, 1], [1, 1, 1, 1, 1]][rnd % 3]
            grade_terms = _cli_terms(rng, 4)
            csv_n = rng.randint(180, 220)
            csv_path = os.path.join(workdir, f"ones{rnd}.csv")
            with open(csv_path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["n", "re", "im"])
                w.writerows([k, 1, 0] for k in range(1, csv_n + 1))

            def grade_ok(d, gt=grade_terms):
                seen = {}
                for key, comp in d["components"].items():
                    for idx, coef in _terms_doc(comp["terms"]).items():
                        if "|".join(ref.sign_vector(idx, s2_roots)) != key:
                            return False
                        seen[idx] = coef
                return seen == {tuple(map(Fraction, i)): tuple(map(Fraction, v))
                                for i, v in gt.items()}

            reads = [
                Op("cli.field_list", call(S + ["field", "list"]),
                   _cli_check(0, lambda d, want=list(names["fields"]):
                              sorted(d["fields"]) == sorted(want))),
                Op("cli.session_load", call(S + ["session", "load"]),
                   _cli_check(0, lambda d, want=counts: d["counts"] == want)),
                Op("cli.elem_trace", call(["--json", "elem", "trace",
                                           f"({tc[0]}{tc[1]:+d}*a)", _poly_arg(t_mp)]),
                   _cli_check(0, lambda d, tc=tc, mp=t_mp:
                              Fraction(d["trace"]) == ref.trace(tc, mp))),
                Op("cli.alg_grade", call(["--json", "alg", "grade", _alg_expr(grade_terms),
                                          _poly_arg(MINPOLYS["Q(sqrt2)"])]),
                   _cli_check(0, grade_ok)),
                Op("cli.dirichlet_invert", call(["--json", "dirichlet", "invert", "--in",
                                                 csv_path, "--N", str(csv_n)]),
                   _cli_check(0, lambda d, N=csv_n: d["support"] == sum(
                       1 for k in range(1, N + 1) if ref.mobius(k)))),
            ]
            if rnd % CLI_VERIFY_EVERY == 0:
                reads.append(Op("cli.verify", call(["--json", "verify", "algebra",
                                                    "--samples", "2"]),
                                _cli_check(0, lambda d: d["passed"] is True)))
            bad = list(CLI_INVALID)[rnd % len(CLI_INVALID)]
            reads.append(Op(f"cli.invalid.{bad}", call(CLI_INVALID[bad]), _cli_check(2)))
            rng.shuffle(reads)
            ops += writes + reads
        return ops


WORKLOADS = {w.name: w() for w in (SignCertify, ExactProducts, DirichletSeries, CliSession)}

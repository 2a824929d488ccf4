"""Command-line surface.

Every command prints a machine-readable JSON report to standard output
and a short human summary to standard error (suppressed under --json).
Exit codes: 0 success / all checks passed, 1 failing checks, 2 bad
configuration or input.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from functools import cache

from . import dirichlet as dmod
from . import hardy, session as smod, signs
from .algebra import AlgebraElement, monomial
from .coeffs import APPROX, EXACT, _gauss
from .errors import NlfieldError
from .galois import (
    FlowParameter,
    cyclotomic_trace_collapse,
    flow_phi,
    flow_psi,
    group_from_family,
    make_automorphism,
    verify_nonlinear_automorphism,
)
from .numberfield import (
    absolute_trace,
    cyclotomic_field,
    define_field,
    is_in_inverse_different,
    minimal_polynomial_of,
    poly_at,
    quadratic_field,
)
from .parser import parse_algebra, parse_element
from .polys import Poly
from .session import Session, rat_from_str, rat_to_str
from .suites import run_suite


class _Ctx:
    def __init__(self, args):
        self.args = args
        self.session, self.loaded = Session(), False
        if args.session:
            try:
                self.session, self.loaded = Session.load(args.session), True
            except FileNotFoundError:
                pass

    def persist(self):
        if self.args.session:
            self.session.save(self.args.session)

    def emit(self, report: dict, summary: str) -> None:
        print(json.dumps(report, sort_keys=True, default=str))
        if not self.args.json:
            print(summary, file=sys.stderr)


# -- shared argument helpers -----------------------------------------


def _add_field_opts(p):
    p.add_argument("--field", help="name of a session field")
    p.add_argument("--minpoly", help="comma-separated coefficients, lowest first")
    p.add_argument("--quadratic", type=int, help="Q(sqrt n)")
    p.add_argument("--cyclotomic", type=int, help="Q(zeta_n)")


def _resolve_field(ctx: _Ctx, args):
    if args.field is not None:
        return ctx.session.get_field(args.field), args.field
    if args.minpoly is not None:
        return define_field(Poly(map(rat_from_str, args.minpoly.split(",")))), None
    if args.quadratic is not None:
        return quadratic_field(args.quadratic), None
    if args.cyclotomic is not None:
        return cyclotomic_field(args.cyclotomic), None
    raise NlfieldError("no field given: use --field/--minpoly/--quadratic/--cyclotomic")


def _field_label(field, name):
    return name if name else "/".join(rat_to_str(c) for c in field.minpoly.coeffs)


# -- csv io ----------------------------------------------------------


def _read_series(path: str, N: int) -> dmod.IntegerSeries:
    vals = [0] * N
    # rationals of any length: lift csv's process-wide field limit for this read
    limit = csv.field_size_limit(sys.maxsize)
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    finally:
        csv.field_size_limit(limit)
    for row in rows:
        if not row or row[0].strip() == "n":
            continue
        if len(row) < 2:
            raise NlfieldError(f"CSV row {row[0]!r} has no real part")
        n = int(row[0])
        (re, im), den = smod.nums_over_lcm([row[1], row[2] if len(row) > 2 and row[2] else "0"])
        if not 1 <= n <= N:
            raise NlfieldError(f"coefficient index {n} outside 1..{N}")
        vals[n - 1] = _gauss(re, im, den)
    return dmod.IntegerSeries(N, vals)


def _write_series(path: str, s: dmod.IntegerSeries):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "re", "im"])
        for n in s.support():
            c = s[n]
            w.writerow([n, *smod.ratios_to_strs((c.x, c.y), c.den)])


# -- command implementations -----------------------------------------


def cmd_field_new(ctx, args):
    field, _ = _resolve_field(ctx, args)
    if args.name:
        ctx.session.add_field(args.name, field)
        ctx.persist()
    doc = smod.field_to_json(field)
    ctx.emit(
        {"command": "field new", "name": args.name, "field": doc},
        f"field {args.name or ''} degree {field.degree} signature {doc['signature']}",
    )
    return 0


def cmd_field_list(ctx, args):
    doc = {n: smod.field_to_json(f) for n, f in ctx.session.fields.items()}
    ctx.emit(
        {"command": "field list", "fields": doc},
        "\n".join(f"{n}: minpoly {d['minpoly']} signature {d['signature']}"
                  for n, d in doc.items()) or "(no fields)",
    )
    return 0


def cmd_elem(ctx, args):
    field, fname = _resolve_field(ctx, args)
    e = parse_element(args.expr, field)
    label = _field_label(field, fname)
    if args.action == "eval":
        doc = smod.element_to_json(e, label)
        if args.name:
            ctx.session.add_element(args.name, e)
            ctx.persist()
        ctx.emit({"command": "elem eval", "element": doc},
                 f"coords {doc['coords']}")
    elif args.action == "trace":
        t = absolute_trace(e)
        ctx.emit({"command": "elem trace", "trace": rat_to_str(t)},
                 f"Tr = {rat_to_str(t)}")
    elif args.action == "minpoly":
        m = minimal_polynomial_of(e)
        cs = [rat_to_str(c) for c in m.coeffs]
        ctx.emit({"command": "elem minpoly", "minpoly": cs}, f"minpoly {cs}")
    elif args.action == "sign":
        v = signs.sign_of(e)
        ser = v.serialize()
        ctx.emit({"command": "elem sign", "sign": ser}, f"sign {ser}")
    elif args.action == "cone":
        inside = hardy.in_positive_cone(e)
        ctx.emit({"command": "elem cone", "in_positive_cone": inside},
                 "in positive cone" if inside else "outside positive cone")
    return 0


def cmd_alg(ctx, args):
    field, fname = _resolve_field(ctx, args)
    mode = APPROX if args.approx else EXACT
    label = _field_label(field, fname)
    f = parse_algebra(args.expr, field, mode)
    if args.action in ("cauchy", "dirichlet"):
        g = parse_algebra(args.expr2, field, mode)
        out = f.cauchy(g) if args.action == "cauchy" else f.dirichlet(g)
        if args.name:
            ctx.session.add_algebra(args.name, out)
            ctx.persist()
        doc = smod.algebra_to_json(out, label)
        ctx.emit({"command": f"alg {args.action}", "result": doc},
                 f"{len(out.terms)} terms")
    elif args.action == "trace":
        t = complex(f.trace())
        ctx.emit({"command": "alg trace", "re": t.real, "im": t.imag},
                 f"T = {t}")
    elif args.action == "grade":
        g = signs.grade(f)
        comps = {
            "|".join(v.serialize()): smod.algebra_to_json(part, label)
            for v, part in g.components.items()
        }
        c0 = complex(g.constant)
        ctx.emit(
            {"command": "alg grade", "constant": {"re": c0.real, "im": c0.imag},
             "components": comps},
            f"{len(comps)} graded components",
        )
    elif args.action == "proj":
        p = f.projectivize()
        doc = smod.algebra_to_json(p.representative, label)
        ctx.emit({"command": "alg proj", "representative": doc},
                 "trace-one representative computed")
    return 0


def cmd_galois(ctx, args):
    if args.action == "trace-collapse":
        rep = cyclotomic_trace_collapse(args.kmax)
        ctx.emit({"command": "galois trace-collapse", **rep},
                 f"levels 2..{args.kmax}: " + ("pass" if rep["passed"] else "FAIL"))
        return 0 if rep["passed"] else 1
    field, fname = _resolve_field(ctx, args)
    label = _field_label(field, fname)
    if args.action == "group":
        G = group_from_family(field, args.family)
        if args.name:
            ctx.session.add_group(args.name, G)
            ctx.persist()
        doc = smod.group_to_json(G, label)
        doc["order"] = G.order
        ctx.emit({"command": "galois group", "group": doc},
                 f"group of order {G.order}")
        return 0
    if args.action == "verify":
        if not args.image and args.family is None:
            raise NlfieldError("galois verify needs --family or --image")
        if args.image:
            sigmas = [make_automorphism(field, parse_element(args.image, field))]
        else:
            G = group_from_family(field, args.family)
            sigmas = [s for s in G.elements if not s.is_identity]
        reports = [
            verify_nonlinear_automorphism(s, samples=args.samples, seed=ctx.args.seed)
            for s in sigmas
        ]
        passed = all(r["passed"] for r in reports)
        ctx.emit({"command": "galois verify", "reports": reports, "passed": passed},
                 f"{len(reports)} automorphisms checked: "
                 + ("pass" if passed else "FAIL"))
        return 0 if passed else 1
    r = FlowParameter.of(field, [complex(v) for v in args.r.split(",")])
    f = parse_algebra(args.expr, field, APPROX)
    out = flow_phi(r, f) if args.kind == "phi" else flow_psi(r, f)
    doc = smod.algebra_to_json(out, label)
    ctx.emit({"command": "galois flow", "kind": args.kind, "result": doc},
             f"{len(out.terms)} terms after {args.kind} flow")
    return 0


def cmd_dirichlet(ctx, args):
    f = _read_series(args.infile, args.N)
    if args.action == "mellin":
        vals = []
        for y in (float(v) for v in args.y.split(",")):
            z = dmod.mellin_eval(f, y)
            vals.append({"y": y, "re": z.real, "im": z.imag})
        ctx.emit({"command": "dirichlet mellin", "values": vals},
                 "\n".join(f"D({v['y']}) = {complex(v['re'], v['im'])}" for v in vals))
        return 0
    if args.action == "conv":
        out, what = dmod.dconv(f, _read_series(args.in2, args.N)), "convolution"
    else:
        out, what = dmod.dinvert(f), "inverse"
    if args.out:
        _write_series(args.out, out)
    ctx.emit(
        {"command": f"dirichlet {args.action}", "N": args.N,
         "support": len(out.support()), "out": args.out},
        f"{what} support {len(out.support())}",
    )
    return 0


def cmd_hardy(ctx, args):
    field, fname = _resolve_field(ctx, args)
    if args.action == "eval":
        f = parse_algebra(args.expr, field)
        if args.ladder is not None:
            if args.ladder < 0:
                raise NlfieldError(f"--ladder needs K >= 0, got {args.ladder}")
            rows = []
            for k in range(args.ladder + 1):
                t = 2.0 ** -k
                p = hardy.HyperPoint.uniform(field, x=args.x, t=t)
                res = hardy.series_eval_hyper(f, p)
                rows.append((t, abs(res.value), res.bound))
            if args.out:
                with open(args.out, "w", newline="") as fh:
                    w = csv.writer(fh)
                    w.writerow(["t", "abs_value", "bound"])
                    w.writerows(rows)
            ctx.emit(
                {"command": "hardy eval", "ladder":
                 [{"t": t, "abs_value": a, "bound": b} for t, a, b in rows],
                 "out": args.out},
                f"{len(rows)} ladder points down to t={rows[-1][0]:.2e}",
            )
            return 0
        p = hardy.HyperPoint.uniform(field, x=args.x, t=args.t)
        res = hardy.series_eval_hyper(f, p)
        ctx.emit(
            {"command": "hardy eval", "re": res.value.real, "im": res.value.imag,
             "bound": res.bound},
            f"value {res.value} (bound {res.bound:.2e})",
        )
        return 0
    if args.action == "norm":
        f = parse_algebra(args.expr, field)
        ctx.emit(
            {"command": "hardy norm", "l2": hardy.l2_norm(f),
             "hardy_member": hardy.hardy_membership(f)},
            f"l2 norm {hardy.l2_norm(f)}",
        )
        return 0
    dp = field.minpoly.derivative()
    scale = poly_at(dp, field.gen).inverse()
    d = field.degree
    chars = []
    for coords in itertools.product(range(-args.height, args.height + 1), repeat=d):
        alpha = field.element(list(coords)) * scale
        if is_in_inverse_different(alpha):
            chars.append(alpha)
    worst = 0.0
    for a in chars:
        for b in chars:
            ip = hardy.torus_inner_product(monomial(a), monomial(b), args.grid)
            want = 1.0 if a == b else 0.0
            worst = max(worst, abs(ip.value - want))
    passed = worst == 0
    ctx.emit(
        {"command": "hardy ortho", "characters": len(chars),
         "grid": args.grid, "max_deviation": worst, "passed": passed},
        f"{len(chars)} characters, max deviation {worst:.2e}: "
        + ("pass" if passed else "FAIL"),
    )
    return 0 if passed else 1


def cmd_verify(ctx, args):
    rep = run_suite(args.suite, seed=ctx.args.seed, samples=args.samples)
    lines = [
        ("PASS " if c["passed"] else "FAIL ") + f"{c['suite']}: {c['name']}"
        for c in rep["checks"]
    ]
    ctx.emit(rep, "\n".join(lines))
    return 0 if rep["passed"] else 1


def cmd_session(ctx, args):
    path = args.path or args.session
    if not path:
        raise NlfieldError("no path: give one or use --session")
    if args.action == "save":
        ctx.session.save(path)
        ctx.emit({"command": "session save", "path": path},
                 f"session written to {path}")
        return 0
    # the --session file is decoded already; a missing one raises here
    sess = ctx.session if path == args.session and ctx.loaded else Session.load(path)
    counts = {k: len(getattr(sess, k)) for k in smod._KINDS}
    ctx.emit({"command": "session load", "path": path, "counts": counts},
             ", ".join(f"{n} {k}" for k, n in counts.items()))
    return 0


# -- argument parsing ------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parse_args never changes it."""
    ap = argparse.ArgumentParser(
        prog="nlfield",
        description="exact number-field algebra with two products, sign "
        "gradings, Galois actions, flows, and Dirichlet series",
    )
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", action="store_true",
                    help="machine output only (suppress the stderr summary)")
    ap.add_argument("--session", metavar="PATH", help="session file to use")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field")
    fsub = p.add_subparsers(dest="action", required=True)
    pn = fsub.add_parser("new")
    _add_field_opts(pn)
    pn.add_argument("--name", help="register under this name in the session")
    pn.set_defaults(func=cmd_field_new)
    pl = fsub.add_parser("list")
    pl.set_defaults(func=cmd_field_list)

    p = sub.add_parser("elem")
    p.add_argument("action", choices=["eval", "trace", "minpoly", "sign", "cone"])
    p.add_argument("expr")
    _add_field_opts(p)
    p.add_argument("--name", help="store the result in the session")
    p.set_defaults(func=cmd_elem)

    p = sub.add_parser("alg")
    p.add_argument("action", choices=["cauchy", "dirichlet", "trace", "grade", "proj"])
    p.add_argument("expr")
    p.add_argument("expr2", nargs="?")
    _add_field_opts(p)
    p.add_argument("--approx", action="store_true")
    p.add_argument("--name", help="store the result in the session")
    p.set_defaults(func=cmd_alg)

    p = sub.add_parser("galois")
    p.add_argument("action", choices=["group", "verify", "trace-collapse", "flow"])
    _add_field_opts(p)
    p.add_argument("--family", help='"quadratic" or "cyclotomic(n)"')
    p.add_argument("--image", help="generator image for an explicit automorphism")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--kmax", type=int, default=5)
    p.add_argument("--kind", choices=["phi", "psi"], default="phi")
    p.add_argument("--r", help="comma-separated flow parameter entries")
    p.add_argument("--expr", help="algebra expression the flow acts on")
    p.add_argument("--name", help="store the group in the session")
    p.set_defaults(func=cmd_galois)

    p = sub.add_parser("dirichlet")
    p.add_argument("action", choices=["conv", "invert", "mellin"])
    p.add_argument("--in", dest="infile", required=True, metavar="CSV")
    p.add_argument("--in2", metavar="CSV")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--out", metavar="CSV")
    p.add_argument("--y", help="comma-separated Mellin arguments")
    p.set_defaults(func=cmd_dirichlet)

    p = sub.add_parser("hardy")
    p.add_argument("action", choices=["eval", "norm", "ortho"])
    p.add_argument("expr", nargs="?")
    _add_field_opts(p)
    p.add_argument("--x", type=float, default=0.0)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--ladder", type=int, metavar="K",
                   help="sweep t = 1, 1/2, ..., 2^-K")
    p.add_argument("--out", metavar="CSV")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--height", type=int, default=3)
    p.set_defaults(func=cmd_hardy)

    p = sub.add_parser("verify")
    p.add_argument("suite")
    p.add_argument("--samples", type=int, default=5)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("session")
    p.add_argument("action", choices=["save", "load"])
    p.add_argument("path", nargs="?")
    p.set_defaults(func=cmd_session)

    return ap


# operands that an action cannot run without, as the user writes them
_REQUIRED = {
    ("alg", "cauchy"): ("expr2",),
    ("alg", "dirichlet"): ("expr2",),
    ("hardy", "eval"): ("expr",),
    ("hardy", "norm"): ("expr",),
    ("dirichlet", "conv"): ("--in2",),
    ("dirichlet", "mellin"): ("--y",),
    ("galois", "flow"): ("--r", "--expr"),
    ("galois", "group"): ("--family",),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        action = (args.command, getattr(args, "action", None))
        missing = [o for o in _REQUIRED.get(action, ()) if getattr(args, o.lstrip("-")) is None]
        if missing:
            raise NlfieldError(f"{' '.join(action)} needs {' and '.join(missing)}")
        ctx = _Ctx(args)
        return args.func(ctx, args)
    except (NlfieldError, ValueError, ArithmeticError, OSError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

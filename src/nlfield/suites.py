"""Self-verification suites runnable from the command line.

Each suite replays the load-bearing invariants of one module on seeded
random inputs plus a few pinned fixtures, and reports one record per
check.  Reports are deterministic for a fixed (seed, samples) pair.
"""

from __future__ import annotations

import cmath
import math
import random

from . import coeffs, dirichlet, hardy, signs
from .algebra import AlgebraElement, monomial
from .coeffs import EXACT, GaussRat
from .errors import BandwidthError
from .galois import (
    _random_exact_element,
    cyclotomic_trace_collapse,
    FlowParameter,
    flow_phi,
    flow_psi,
    group_from_family,
    relative_trace,
    verify_nonlinear_automorphism,
)
from .numberfield import cyclotomic_field, quadratic_field, rationals

SUITES = ("algebra", "signs", "hardy", "galois", "dirichlet")


def _check(name: str, passed: bool, detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _rand_alg(field, rng, nterms=3):
    f = _random_exact_element(field, rng, nterms=nterms)
    if f.is_zero:
        f = monomial(field.one)
    return f


# -- algebra ---------------------------------------------------------


def _suite_algebra(rng, samples):
    out = []
    K = quadratic_field(2)
    ok = True
    for _ in range(samples):
        f, g = _rand_alg(K, rng), _rand_alg(K, rng)
        ok &= f.cauchy(g) == g.cauchy(f)
        h = _rand_alg(K, rng)
        lhs = f.cauchy(g.cauchy(h))
        ok &= lhs == f.cauchy(g).cauchy(h)
    out.append(_check("cauchy commutative+associative", ok))

    ok = True
    for _ in range(samples):
        f, g = _rand_alg(K, rng), _rand_alg(K, rng)
        prod = f.dirichlet(g)
        ok &= prod == g.dirichlet(f)
        ok &= prod.trace() == f.trace() * g.trace()
    out.append(_check("dirichlet commutative, trace multiplicative", ok))

    Q = rationals()
    z = lambda n: monomial(Q.from_rational(n))
    f, g, h = z(1) + z(2), z(1), z(1)
    lhs = f.dirichlet(g.cauchy(h))
    rhs = f.dirichlet(g).cauchy(f.dirichlet(h))
    out.append(_check("dirichlet not distributive over cauchy", lhs != rhs,
                      "f x (g (+) h) differs from (f x g) (+) (f x h)"))

    ok = True
    for _ in range(samples):
        f = _rand_alg(K, rng)
        try:
            p = f.projectivize()
            ok &= p == f.scale(GaussRat(3)).projectivize()
        except Exception:
            continue
    out.append(_check("projectivization scale-invariant", ok))
    return out


# -- signs -----------------------------------------------------------


def _suite_signs(rng, samples):
    out = []
    Ki = cyclotomic_field(4)
    fixtures = {
        (1, 0): "+", (0, 1): "sqrt-", (-1, 0): "-", (0, -1): "-sqrt-",
        (1, 1): "+e", (-1, 1): "sqrt-e", (-1, -1): "-e", (1, -1): "-sqrt-e",
    }
    ok = all(
        signs.sign_of(Ki.element(list(c))).serialize() == [name]
        for c, name in fixtures.items()
    )
    out.append(_check("all eight complex signs realized in Q(i)", ok))

    ok = True
    for s1 in signs.ALL_COMPLEX_SIGNS:
        for s2 in signs.ALL_COMPLEX_SIGNS:
            prod = signs.sign_product(s1, s2)
            # a singular factor forces a singleton; two quadrants spread
            ok &= len(prod) == (3 if (s1.eps and s2.eps) else 1)
    out.append(_check("sign product multiplicities (1 or 3)", ok))

    ok = True
    for field in (Ki, quadratic_field(2)):
        for _ in range(samples):
            f, g = _rand_alg(field, rng), _rand_alg(field, rng)
            rep = signs.check_graded_dirichlet_law(f, g)
            ok &= rep["matches"]
    out.append(_check("graded dirichlet law on random pairs", ok))

    ok = True
    for _ in range(samples):
        f = _rand_alg(Ki, rng)
        ok &= signs.grade(f).reassemble() == f
    out.append(_check("grade/reassemble round trip", ok))
    return out


# -- hardy -----------------------------------------------------------


def _suite_hardy(rng, samples):
    out = []
    Q = rationals()
    f = monomial(Q.one)
    p = hardy.HyperPoint.uniform(Q, x=0.0, t=1.0)
    res = hardy.series_eval_hyper(f, p)
    out.append(_check(
        "monomial value e^(-2 pi) at tau=i",
        abs(res.value - math.exp(-2 * math.pi)) < 1e-12,
        f"|delta|={abs(res.value - math.exp(-2 * math.pi)):.2e}",
    ))

    Ki = cyclotomic_field(4)
    ok = True
    pt = hardy.HyperPoint.uniform(Ki, x=0.1, t=0.7)
    for _ in range(samples):
        idx = Ki.element([rng.randint(1, 5), rng.randint(1, 5)])
        g = monomial(idx)
        if not hardy.in_positive_cone(idx):
            continue
        val = hardy.series_eval_hyper(g, pt).value
        ok &= abs(val) <= 1.0 + 1e-9
    out.append(_check("positive-cone monomials decay at interior points", ok))

    grid = 16
    ok = True
    basis = [Q.from_rational(n) for n in range(-3, 4)]
    for a in basis:
        for b in basis:
            ip = hardy.torus_inner_product(monomial(a), monomial(b), grid).value
            want = 1.0 if a == b else 0.0
            ok &= ip == want
    out.append(_check("torus characters orthonormal (Q, grid 16)", ok))

    try:
        hardy.torus_inner_product(
            monomial(Q.from_rational(9)), monomial(Q.from_rational(9)), 8
        )
        ok = False
    except BandwidthError:
        ok = True
    out.append(_check("undersized grid raises BandwidthError", ok))
    return out


# -- galois ----------------------------------------------------------


def _suite_galois(rng, samples):
    out = []
    for field, family, order in (
        (quadratic_field(2), "quadratic", 2),
        (cyclotomic_field(5), "cyclotomic(5)", 4),
    ):
        G = group_from_family(field, family)
        out.append(_check(f"group order {order} over {family}", G.order == order))
        sigma = next(s for s in G.elements if not s.is_identity)
        rep = verify_nonlinear_automorphism(sigma, samples=samples,
                                            seed=rng.randint(0, 10 ** 6))
        out.append(_check(
            f"nonlinear automorphism checks over {family}", rep["passed"],
            f"{len(rep['failures'])} failures / {rep['samples']} samples",
        ))

    K8 = cyclotomic_field(8)
    G8 = group_from_family(K8, "cyclotomic(8)")
    tr = relative_trace(K8.gen, G8.elements)
    out.append(_check("relative trace of zeta_8 vanishes", tr.is_zero))

    rep = cyclotomic_trace_collapse(3)
    out.append(_check("trace collapse at 2-power levels", rep["passed"]))

    Ki = cyclotomic_field(4)
    r = FlowParameter.of(Ki, [0.3 + 0.4j])
    ok = True
    for _ in range(samples):
        f, g = _rand_alg(Ki, rng), _rand_alg(Ki, rng)
        fa = AlgebraElement(Ki, "approx", f.terms)
        ga = AlgebraElement(Ki, "approx", g.terms)
        lhs = flow_phi(r, fa.cauchy(ga))
        rhs = flow_phi(r, fa).cauchy(flow_phi(r, ga))
        delta = max(
            (abs(lhs.coeff(i) - rhs.coeff(i))
             for i in lhs.support | rhs.support), default=0.0,
        )
        ok &= delta < 1e-9
    out.append(_check("flow Phi is a Cauchy homomorphism", ok))
    return out


# -- dirichlet -------------------------------------------------------


def _suite_dirichlet(rng, samples):
    out = []
    N = 60
    mu = dirichlet.dinvert(dirichlet.IntegerSeries.ones(N))
    head = [mu[n].re for n in range(1, 7)]
    out.append(_check(
        "Moebius head values",
        head == [1, -1, -1, 0, -1, 1]
        and all(mu[n].re in (-1, 0, 1) and mu[n].im == 0 for n in range(1, N + 1)),
    ))

    ok = True
    for _ in range(samples):
        vals = [rng.randint(1, 5)] + [rng.randint(-4, 4) for _ in range(N - 1)]
        f = dirichlet.IntegerSeries(N, vals)
        ok &= dirichlet.dconv(f, dirichlet.dinvert(f)) == dirichlet.IntegerSeries.delta(N)
    out.append(_check("dconv(f, dinvert(f)) = delta", ok))

    ok = True
    for _ in range(samples):
        supp = max(2, int(math.isqrt(N)))
        a = [rng.randint(-3, 3) if n <= supp else 0 for n in range(1, N + 1)]
        b = [rng.randint(-3, 3) if n <= supp else 0 for n in range(1, N + 1)]
        f = dirichlet.IntegerSeries(N, a)
        g = dirichlet.IntegerSeries(N, b)
        y = rng.uniform(-2, 2)
        lhs = dirichlet.mellin_eval(dirichlet.dconv(f, g), y)
        rhs = dirichlet.mellin_eval(f, y) * dirichlet.mellin_eval(g, y)
        ok &= abs(lhs - rhs) < 1e-9
    out.append(_check("Mellin turns convolution into products", ok))

    tau = dirichlet.dconv(
        dirichlet.IntegerSeries.ones(N), dirichlet.IntegerSeries.ones(N)
    )
    ok = all(
        int(tau[n].re) == sum(1 for d in range(1, n + 1) if n % d == 0)
        for n in range(1, N + 1)
    )
    out.append(_check("ones*ones counts divisors", ok))
    return out


_RUNNERS = {
    "algebra": _suite_algebra,
    "signs": _suite_signs,
    "hardy": _suite_hardy,
    "galois": _suite_galois,
    "dirichlet": _suite_dirichlet,
}


def run_suite(name: str, seed: int = 0, samples: int = 5) -> dict:
    """Run one suite (or "all"); returns a JSON-ready report."""
    if name == "all":
        names = list(SUITES)
    elif name in _RUNNERS:
        names = [name]
    else:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(SUITES)} or all"
        )
    checks = []
    for n in names:
        rng = random.Random(f"{seed}:{n}")
        for rec in _RUNNERS[n](rng, samples):
            rec["suite"] = n
            checks.append(rec)
    return {
        "suite": name,
        "seed": seed,
        "samples": samples,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }

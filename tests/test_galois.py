"""Galois groups, algebra actions, towers, traces, and flows."""

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlfield.algebra import AlgebraElement, monomial
from nlfield.coeffs import APPROX, EXACT, GaussRat
from nlfield.cli import main
from nlfield.errors import NotAnAutomorphismError
from nlfield.galois import (
    Automorphism,
    FlowParameter,
    GaloisGroup,
    TowerEmbedding,
    _random_exact_element,
    cyclotomic_trace_collapse,
    fixed_field_check,
    flow_phi,
    flow_psi,
    group_from_family,
    identity_automorphism,
    make_automorphism,
    relative_trace,
    verify_nonlinear_automorphism,
)
from nlfield.hardy import l2_norm
from nlfield.numberfield import absolute_trace, cyclotomic_field, quadratic_field
from nlfield.polys import Poly
from nlfield.session import Session


def test_not_an_automorphism_rejected():
    K = quadratic_field(2)
    with pytest.raises(NotAnAutomorphismError):
        make_automorphism(K, K.one + K.gen)  # wrong minimal polynomial


def test_image_with_the_right_trace_but_the_wrong_minpoly_rejected():
    # 2 sqrt2 has trace 0 like sqrt2, but norm -8, not -2
    K = quadratic_field(2)
    assert absolute_trace(2 * K.gen) == absolute_trace(K.gen)
    with pytest.raises(NotAnAutomorphismError):
        make_automorphism(K, 2 * K.gen)
    # z^2 + z^3 - z^4 has trace -1 like zeta5, but is no root of Phi_5
    L = cyclotomic_field(5)
    z = L.gen
    image = z ** 2 + z ** 3 - z ** 4
    assert absolute_trace(image) == absolute_trace(z)
    with pytest.raises(NotAnAutomorphismError):
        make_automorphism(L, image)
    assert make_automorphism(L, z ** 2).image == z ** 2


def test_quadratic_group():
    K = quadratic_field(2)
    G = group_from_family(K, "quadratic")
    assert G.order == 2
    sigma = next(s for s in G.elements if not s.is_identity)
    assert sigma.apply(K.gen) == -K.gen
    assert sigma.order() == 2
    assert (sigma.compose(sigma)).is_identity


def test_cyclotomic_five_is_cyclic_of_order_four():
    K = cyclotomic_field(5)
    G = group_from_family(K, "cyclotomic(5)")
    assert G.order == 4
    assert G.exponent() == 4


def test_cyclotomic_eight_is_klein_like():
    K = cyclotomic_field(8)
    G = group_from_family(K, "cyclotomic(8)")
    assert G.order == 4
    assert G.exponent() == 2


def test_verify_nonlinear_automorphism_gaussian_conjugation():
    K = cyclotomic_field(4)
    sigma = make_automorphism(K, -K.gen)
    rep = verify_nonlinear_automorphism(sigma, samples=20, seed=5)
    assert rep["passed"]
    assert rep["failures"] == []
    iota = rep["iota"]
    # conjugation swaps the imaginary half-axes and reflects quadrants
    assert iota["sqrt-"] == "-sqrt-"
    assert iota["+"] == "+" and iota["-"] == "-"
    assert iota["+e"] == "-sqrt-e"


def test_iota_for_real_quadratic_conjugation():
    K = quadratic_field(2)
    sigma = make_automorphism(K, -K.gen)
    rep = verify_nonlinear_automorphism(sigma, samples=20, seed=5)
    assert rep["passed"]
    assert rep["iota"] == {"+ -": "- +", "- +": "+ -",
                           "+ +": "+ +", "- -": "- -"}


def test_relative_trace_cyclotomic():
    K = cyclotomic_field(8)
    G = group_from_family(K, "cyclotomic(8)")
    assert relative_trace(K.gen, G.elements).is_zero
    assert relative_trace(K.one, G.elements) == K.from_rational(4)


def test_trace_collapse_report():
    rep = cyclotomic_trace_collapse(4)
    assert rep["passed"]
    ds = [lvl["d"] for lvl in rep["levels"]]
    assert ds == [2, 4, 8]
    assert all(lvl["trace_image"] == f"({lvl['d']})Z" for lvl in rep["levels"])


def test_tower_fixed_field():
    # Q(sqrt2) sits in Q(zeta8) via zeta8 + zeta8^7
    K = quadratic_field(2)
    L = cyclotomic_field(8)
    w = L.gen + L.gen ** 7
    tower = TowerEmbedding(K, L, w)
    fixing = make_automorphism(L, L.gen ** 7)
    moving = make_automorphism(L, L.gen ** 3)
    rep_fix = fixed_field_check(fixing, tower, samples=10, seed=1)
    rep_move = fixed_field_check(moving, tower, samples=10, seed=1)
    assert rep_fix["fixes_base"]
    assert not rep_move["fixes_base"]


def test_flow_phi_is_cauchy_homomorphism():
    K = cyclotomic_field(4)
    r = FlowParameter.of(K, [0.7 - 0.2j])
    rng = random.Random(2)
    for _ in range(5):
        f = AlgebraElement(K, APPROX, _random_exact_element(K, rng, 3).terms)
        g = AlgebraElement(K, APPROX, _random_exact_element(K, rng, 3).terms)
        lhs = flow_phi(r, f.cauchy(g))
        rhs = flow_phi(r, f).cauchy(flow_phi(r, g))
        for idx in lhs.support | rhs.support:
            assert abs(lhs.coeff(idx) - rhs.coeff(idx)) < 1e-10


def test_flow_psi_is_dirichlet_homomorphism_without_constant():
    K = quadratic_field(2)
    r = FlowParameter.of(K, [0.3, -0.6])
    rng = random.Random(4)
    for _ in range(5):
        f = AlgebraElement(K, APPROX, {
            i: c for i, c in _random_exact_element(K, rng, 3).terms.items()
            if not i.is_zero
        })
        g = AlgebraElement(K, APPROX, {
            i: c for i, c in _random_exact_element(K, rng, 3).terms.items()
            if not i.is_zero
        })
        lhs = flow_psi(r, f.dirichlet(g))
        rhs = flow_psi(r, f).dirichlet(flow_psi(r, g))
        for idx in lhs.support | rhs.support:
            assert abs(lhs.coeff(idx) - rhs.coeff(idx)) < 1e-10


def test_flow_one_parameter_group_law():
    K = cyclotomic_field(4)
    r1 = FlowParameter.of(K, [0.25 + 0.1j])
    r2 = FlowParameter.of(K, [0.5 - 0.3j])
    r12 = FlowParameter.of(K, [0.75 - 0.2j])
    f = AlgebraElement(K, APPROX, {K.element([1, 2]): 1.0, K.element([3, -1]): 2j})
    lhs = flow_phi(r12, f)
    rhs = flow_phi(r1, flow_phi(r2, f))
    for idx in lhs.support:
        assert abs(lhs.coeff(idx) - rhs.coeff(idx)) < 1e-12


def test_flows_preserve_l2_norm():
    K = quadratic_field(2)
    r = FlowParameter.of(K, [1.3, 0.4])
    f = AlgebraElement(K, APPROX, {K.element([1, 1]): 3.0, K.element([2, 0]): 4j})
    assert abs(l2_norm(flow_phi(r, f)) - l2_norm(f)) < 1e-12
    assert abs(l2_norm(flow_psi(r, f)) - l2_norm(f)) < 1e-12


def test_flow_fixes_projective_monomials():
    # a single monomial only changes by a unimodular scalar, so its
    # projective class is fixed once the trace is renormalized
    K = quadratic_field(2)
    r = FlowParameter.of(K, [0.9, 0.1])
    f = AlgebraElement(K, APPROX, {K.element([1, 1]): 2.0})
    moved = flow_phi(r, f)
    p1 = f.projectivize().representative
    p2 = moved.projectivize().representative
    for idx in p1.support:
        assert abs(p1.coeff(idx) - p2.coeff(idx)) < 1e-12


def test_identity_automorphism_action_is_trivial():
    K = cyclotomic_field(4)
    e = identity_automorphism(K)
    x = K.element([2, 3])
    assert e.apply(x) == x


def _horner_mod(coords, image, minpoly):
    """sum_j c_j image^j by Horner over Poly, reduced mod minpoly: the
    reference for the matrix form of apply and embed_element."""
    acc = Poly()
    for c in reversed(coords):
        acc = (acc * Poly(image.coords) + Poly([c])) % minpoly
    return acc.coeffs + (Fraction(0),) * (minpoly.degree - len(acc.coeffs))


_GROUPS = [(quadratic_field(2), "quadratic"), (quadratic_field(-7), "quadratic"),
           (cyclotomic_field(5), "cyclotomic(5)"), (cyclotomic_field(8), "cyclotomic(8)"),
           (cyclotomic_field(12), "cyclotomic(12)")]
_rats = st.fractions(min_value=-10, max_value=10, max_denominator=8)


@given(st.sampled_from(_GROUPS), st.data())
@settings(max_examples=80, deadline=None)
def test_apply_matrix_matches_horner(group, data):
    K, family = group
    sigma = data.draw(st.sampled_from(group_from_family(K, family).elements))
    a = K.element(data.draw(st.lists(_rats, min_size=K.degree, max_size=K.degree)))
    assert sigma.apply(a).coords == _horner_mod(a.coords, sigma.image, K.minpoly)


@given(st.lists(_rats, min_size=2, max_size=2))
@settings(max_examples=40, deadline=None)
def test_embed_element_matrix_matches_horner(coords):
    K, L = quadratic_field(2), cyclotomic_field(8)
    tower = TowerEmbedding(K, L, L.gen + L.gen ** 7)
    got = tower.embed_element(K.element(coords)).coords
    assert got == _horner_mod(coords, tower.generator_image, L.minpoly)


# -- group validation against a brute-force closure oracle -----------


def _closed(images):
    """Whether the maps a -> image are closed under composition, by
    substituting one image into the coordinate polynomial of another."""
    present = set(images)
    for u in images:
        for v in images:
            composite = u.field.zero
            for k, c in enumerate(v.coords):
                composite = composite + u.field.from_rational(c) * u ** k
            if composite not in present:
                return False
    return True


@pytest.mark.parametrize("n", [5, 8, 12])
def test_group_accepts_exactly_the_closed_subsets(n):
    K = cyclotomic_field(n)
    elements = group_from_family(K, f"cyclotomic({n})").elements
    assert len(elements) == 4
    for size in range(1, 5):
        for subset in combinations(elements, size):
            images = [s.image for s in subset]
            if _closed(images):
                assert GaloisGroup(K, list(subset)).order == size
            else:
                with pytest.raises(NotAnAutomorphismError):
                    GaloisGroup(K, list(subset))


def test_group_rejects_empty_and_repeated_elements():
    K = cyclotomic_field(8)
    e, s3 = identity_automorphism(K), Automorphism(K, K.gen ** 3)
    assert GaloisGroup(K, [e, s3]).order == 2  # the subgroup {1, sigma_3}
    for elements in ([], [e, e], [e, s3, s3], [e, s3, Automorphism(K, K.gen ** 3)]):
        with pytest.raises(NotAnAutomorphismError):
            GaloisGroup(K, elements)


def test_session_with_an_unclosed_group_exits_2(tmp_path):
    sess = Session()
    sess.add_field("K", cyclotomic_field(5))
    sess.add_group("G", group_from_family(sess.get_field("K"), "cyclotomic(5)"))
    doc = json.loads(sess.dumps())
    doc["groups"]["G"]["images"] = doc["groups"]["G"]["images"][:3]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["--session", str(path), "field", "list"])
    assert code == 2
    assert err.getvalue().startswith("error:") and "Traceback" not in err.getvalue()

"""Certified root enclosures.

The sign vectors and place orders below were recorded from the sympy
CRootOf path that `isolate_roots` replaced; the Aberth path must
reproduce them exactly.  The property tests check the enclosures against
50-digit roots, sympy's real-root count and the mpmath path that Aberth's
iteration replaced.
"""

import math
import random
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nlfield import numberfield
from nlfield.galois import group_from_family
from nlfield.numberfield import (
    cyclotomic_field,
    define_field,
    isolate_roots,
    quadratic_field,
)
from nlfield.polys import Poly
from nlfield.signs import sign_of

from helpers import mpmath_root_enclosures

# one character per component of a serialized sign vector
SIGN_CODES = {"+": "+", "-": "-", "sqrt-": "i", "-sqrt-": "j",
              "+e": "1", "sqrt-e": "2", "-e": "3", "-sqrt-e": "4"}

FIELDS = {
    "Q(sqrt2)": lambda: quadratic_field(2),
    "Q(i)": lambda: cyclotomic_field(4),
    "Q(zeta5)": lambda: cyclotomic_field(5),
    "Q(zeta8)": lambda: cyclotomic_field(8),
    # criterion 6: two places share the real part -1.6299...
    "deg6": lambda: define_field(Poly([100, 120, 84, 52, 24, 6, 1])),
    # roots +-i/phi and +-i phi: both places have real part 0
    "x^4+3x^2+1": lambda: define_field(Poly([1, 0, 3, 0, 1])),
}


def _draw_index(field, rng, height):
    return field.element([Fraction(rng.randint(-height, height))
                          for _ in range(field.degree)])


def _criterion_4_indices(out):
    """Indices of criterion 4's pairs (random.Random(42), at most four terms
    of height 5) and their products, which the graded law signs."""
    rng = random.Random(42)
    for name in ("Q(sqrt2)", "Q(i)"):
        field, found = FIELDS[name](), out.setdefault(name, set())
        for _ in range(200):
            pair = []
            for _ in range(2):
                terms = set()
                for _ in range(rng.randint(1, 4)):
                    terms.add(_draw_index(field, rng, 5))
                    rng.randint(-5, 5), rng.randint(-5, 5)  # the coefficient
                pair.append([i for i in terms if not i.is_zero])
            found.update(pair[0] + pair[1] + [a * b for a in pair[0] for b in pair[1]])


def _criterion_12_indices(out):
    """Indices of criterion 12's samples (random.Random(12), four terms of
    height 5) and their images under every automorphism of the family."""
    for name, family in (("Q(sqrt2)", "quadratic"), ("Q(i)", "cyclotomic(4)"),
                         ("Q(zeta5)", "cyclotomic(5)"), ("Q(zeta8)", "cyclotomic(8)")):
        field, rng, drawn = FIELDS[name](), random.Random(12), []
        for _ in range(100):
            for member in ("f", "g"):
                for _ in range(4):
                    idx = _draw_index(field, rng, 5)
                    rng.randint(-5, 5), rng.randint(-5, 5)
                    if member == "f" and not idx.is_zero:
                        drawn.append(idx)
        found = out.setdefault(name, set())
        for sigma in group_from_family(field, family).elements:
            found.update(sigma.apply(i) for i in drawn)


CRITERIA_SIGNS = {
    'Q(sqrt2)': (
        "--------------+-----------------+---------+-------------+-+---------"
        "+------------------------++------------+----+-------+-+------------+"
        "-++--------------------++------------++----++---------------------+-"
        "---------++----------------------+----+-----------+--------+-++-+-+-"
        "--------------------------------+------++-+--------------++---------"
        "--+-+-+--------------------------+-+-+-+-+---------++---------------"
        "------+----++-+------------------+-+-------------------+-+-+-++-+-+-"
        "+----------------+-+---------+-++-+-+-+--------------------+-+-+-+-+"
        "-++-+-+-+---------+-+-+-+-+----------------------+-+-++-+-+---------"
        "---+-++-+-+-+-+--------------+-+-+-+-+-+-+-++-+------++-+-+-+-------"
        "---------+-+-+-+-+-++-+-+-+----------------+-+-+-++-+-+-+-+-+-------"
        "-----+-+-+-+-+-+-++-+-+-+-+-+------------+-+-+-+-+-+-++-+-+-+-+-----"
        "---+-+-+-+-+-+-+-++-+-+-+-+-+-+----+-+-+-+-+-++-+-+-+-+-+-+-+-+-+-+-"
        "+-+--+-+-+-+-+-+-+-+-+-+-++-+-+-+-+-+-++-+-+-+-+-+-+-+-++-+-+-+-+-+-"
        "+-+-+-++++++-+-+-+-+-+-+-+-++-+-+-+-+-++++++++++-+-+-+-+-+-++-+-+-+-"
        "+-+-+-+-+-++++++++++-+-+-+-+-++-+-+-+-++++++++++++++-+-+-+-++-+-+-+-"
        "++++++++++++++++-+-+-+-+-+-++-+-+-++++++++-+-++-+-+-+-+-++++++++++++"
        "++++++-+-+-+-+-++-+-+-+-++++++++++-++-+-+-+-+-+-++++++++++++++++++++"
        "-+-+-++++++++-+-+-++++++++++++++++++++-+-+-+-++-+-++++++-+-++-+-+-++"
        "++++++-++-+-+-+-+-++++++++++-+-++-+-++++++++++++++++++++++-++-+-++++"
        "++-+-+-++-+-++++++++++++++++-+-+-++-+-+-+-+-++++++++++++++++++-+-+++"
        "++++++-++-+-+++++++++++++-+-+++-+-++++++++++++++++++++++++++++++-+-+"
        "++++++++++-+-+-++-++++++++++-+++++++++++-++-+-++++++++++++++++++++-+"
        "+-+++-++++++++++++++++++++++++-+++++++++++++++++++++-+-++-++++++++++"
        "-++++++++++++++-++++-++-++++++++++++++++++++++++++++++++++++++++++++"
        "+++++++++++++++++++++++++-++-++++++++++++++++++-++++++++++++++++++++"
        "++++++++++++++++"
    ),
    'Q(i)': (
        "-2--3223322-322322-2332232-2333333223332233222323332333333-222222233"
        "3323-222333332233333333-22222333333332222222233322222333222333333333"
        "2222222222233332222233333333-222222222223333333222222333333-22222222"
        "22223333332222223333333333-222222333333333333-22222222222333333333-2"
        "2222222222233333333-22222222222223333333333333-222222222222333333333"
        "33-22222222222jjjjjjjjjjjjjjjjiiiiiiiiiiiiiiiii44444444444+111111111"
        "144444444444+1111111114444444444+11111111111444444444444+11111111114"
        "4444444+11111111444444444+1111111111444444111114444444444+1111111111"
        "1114444444111114444444+111111111444441111144444444411111114441111144"
        "4444411111444444444+111144444441111144441111444444114411444444+11111"
        "144411144441144411111444111444+1111411144114144+141111441111444+1"
    ),
    'Q(zeta5)': (
        "33333324333333232431333333333333333333233423332333333333333333233233"
        "34333333343324343433333323333323332323333233323324232323242332233232"
        "34333333332333333323332434333333243423332334343332332423343233332431"
        "322323--312222334333332424233333333333332434332323333324243433332323"
        "3333233132333232232332322431233232313232323434jj34333323243434233323"
        "33333343342434232334233333324334233324243423233433232333333332233323"
        "23322323333232323333323224233123322332322423232223322321312222322322"
        "222332323222222222223122434334jj343424343323344343242434242333333333"
        "33313434232333313423333333324332242424232323323233323424313124233331"
        "232332243123--322323232322232332323222223222212123223222222232212222"
        "22222232322244434344431343344323343333434343434224343424343434233443"
        "24342333134332433224343424342323323313333232243333322424242431313123"
        "23312332323224242124313122233232323121212222233132223222322232322131"
        "22223122323221312232212122222231324444434444433424342434434343421313"
        "43jj3143434324243424232431341334314313313243433434313434313133311313"
        "434343343434233232431342242331--232332232332323232312322222331233131"
        "23322232322132222131222222323221312222222122222222222244444444444334"
        "3434344443432424341444444343441343434343431431444313342434ij131334jj"
        "13433113ji43431324243134243131313124312431-+2332--212121232312133242"
        "21232121232331312232223242242421212123232222223222123232212121312332"
        "22223232122222313122322222222222222232322222224443444444432444141444"
        "44434343424224141444441413444443434343243434441344434142242414143441"
        "134313424331143414314343131342424342422424ij24243124ij31311331ji+-42"
        "31ji2424243121242431312421242121242421221242124212232321312212123242"
        "31212222312222223132212221312222123222322222222222222244441444444444"
        "44444343144444444444444343434344144444134144434113144144444443434313"
        "41424224441342431342241414141313314141411342424224242113131241121312"
        "4113424224ij2121213112iiji421212424242422421243131242321213112313212"
        "42124221212121213121311232212131223212123222222221444444144443444444"
        "44444444444444141444134144434334143414444414414413414342241444144114"
        "44141342-+1414144113131341424241423111131342124221143131411341421212"
        "42241141124224ii1242121242122222132112321212122122122221222244144444"
        "14444443434341141414144444144441414441134343144114414144414141134213"
        "13421414141441141441414141134241141141314111414113421411141141111212"
        "13121342212114133111114212211131111131121212411212121242212121131212"
        "31123121122122224443441444444344134414444141444444134144431414414414"
        "41444141144114144114131341414213424214141414141411134141134242422121"
        "14141111114141411312421411141111111241424231111141411111121241124212"
        "21212121111212111112124221ii2144444444444341441444444141141414134143"
        "44141414441344411444414114134142141414141111414141141114411111144141"
        "11414112124214411141111242121111111141111112121212111331111311124112"
        "41121111121111121212122121ii1443141444131414444114411441+-1414114114"
        "11111111124214111111111111121212111244131441414214411441114111141141"
        "11414142141114411111121212411111111111114111111111111111111112441414"
        "41134141114214414141124211114211114111124112111114411342114212111414"
        "1141111111124111111111111141141111111111111212111111"
    ),
    'Q(zeta8)': (
        "13233313331333333332422313332333232333333233423323333323333323333333"
        "32324233334233323223233333333333333232223223332323333333333332323232"
        "23232323332232323232232322232222222222323232322323222222223222223332"
        "32232223222222232222223132322231222232223224232322232322223222223124"
        "23242224222222223132133333133333333333434333424233333342324223131313"
        "33332313333313333333424233333232424223231312123333323232232323232333"
        "32333232232323233232323223232323232232223232232423343422323222322423"
        "24242423222224222222223131222222323131322222223131322422222422222222"
        "21222122313133133313331333334343424242333313334333334242421313233312"
        "33333333323332423342132313131333--3312333332423242232323332232323242"
        "32232323232423231323233322332234123232232323223332323132322424242324"
        "22--3422222231323132242423342222222222323132223122242222212222313131"
        "24222422242222212221313131221333131333434342424333332313433313334333"
        "43424213331333334233324242233433334242423242242313341323133332232334"
        "12341234123322343232123232242313241224232232232222123131313132242422"
        "22223122313132242322212422212222213131242422243131212122212233434343"
        "42424342231313134343434243423342421313131333134334321334231334331233"
        "33434242324223131334131334233432123442313234232312323231314242242423"
        "24241223123432123112324224231224342212312122223131322424242424222112"
        "32232424242121213131213131222221212131312131jj43431343jj434343jj4343"
        "424242jj434234131313131334424242424213131212344342344242131313133443"
        "34424342423142131313133413124242344242242424241313131324ij13ij341231"
        "ji42ji24242424123424313131123124242424122131122131313142243424343121"
        "1231311212242424242431313112313121ii2421212121ii21312121ii31313121ii"
        "43134443131342434243424343431313431313434342424444434234141344134444"
        "1344424234341334134443+-44343444423434414224141442424114341234123434"
        "12124141413142141314313141241212122411-+2111123111123141121212241424"
        "11112411311131242124212424213131211111213124212111242431312131212121"
        "44134443434343444444434444424214131314141313434443444244441444444412"
        "44414234413141241414143444121241414224133414141234124141414131414142"
        "14131414123411344141311114111111343141111241414224241414241424212111"
        "31111111112111311131241121112121211113134443434444444242421413444444"
        "4443+-44434442424242134414444444441244444441421413444414131413441314"
        "12444444121241414114144141414141412414241424113414111134341141414124"
        "1411112414111111341111111141113124141111112111-+21113131113131242411"
        "21211111113131311313134444444443444242424214441313124444444214441313"
        "44444444424141414141141314134444444241141414144444144444414142421414"
        "44441111444141114141141414141411111141113141312414241411113111411424"
        "24111111113111414141414114242411341131111124242411111121111131313131"
        "44134444444444134444424142444444411344441444134444444442444444421444"
        "13144444444144414214144444141414441444114441444441411414141444444444"
        "44414141411414414141414141141414141111114111114141411414141411111411"
        "14441141111111414114112414114111111131412414111124111111113111111131"
        "112411111111241111113111314111111141"
    ),
}


@pytest.fixture(scope="module")
def criteria_indices():
    # criterion 6's Q(i) indices are among criterion 4's; its cube root of
    # 2 is in AXIS_AND_TIE_CASES
    out = {}
    _criterion_4_indices(out)
    _criterion_12_indices(out)
    return {name: sorted(idx, key=lambda e: e.coords) for name, idx in out.items()}


@pytest.mark.parametrize("name", sorted(CRITERIA_SIGNS))
def test_criteria_indices_keep_their_signs(criteria_indices, name):
    got = "".join(SIGN_CODES[s] for idx in criteria_indices[name]
                  for s in sign_of(idx).serialize())
    assert got == CRITERIA_SIGNS[name]


PLACES = {
    "Q(sqrt2)": [-1.4142135623730951, 1.4142135623730951],
    "Q(i)": [1j],
    "Q(zeta5)": [-0.8090169943749475 + 0.5877852522924731j,
                 0.30901699437494745 + 0.9510565162951535j],
    "Q(zeta8)": [-0.7071067811865476 + 0.7071067811865476j,
                 0.7071067811865476 + 0.7071067811865476j],
    "deg6": [-1.6299605249474365 + 0.6409271715971558j,
             -1.6299605249474365 + 2.8231744435405988j,
             0.2599210498948732 + 1.7320508075688772j],
    "x^4+3x^2+1": [0.6180339887498949j, 1.618033988749895j],
}


@pytest.mark.parametrize("name", sorted(PLACES))
def test_place_order(name):
    places = FIELDS[name]().places
    assert len(places) == len(PLACES[name])
    for place, want in zip(places, PLACES[name]):
        assert abs(place.box(Fraction(1, 2**60)).mid - want) < 1e-12


CBRT2 = (Fraction(-20, 9), Fraction(-88, 45), Fraction(-64, 45),
         Fraction(-38, 45), Fraction(-19, 90), Fraction(-2, 45))
AXIS_AND_TIE_CASES = [
    ('Q(i)', (3, 0), ['+']),
    ('Q(i)', (-2, 0), ['-']),
    ('Q(i)', (0, 2), ['sqrt-']),
    ('Q(i)', (0, Fraction(-1, 3)), ['-sqrt-']),
    ('Q(i)', (1, 1), ['+e']),
    ('Q(i)', (-1, 1), ['sqrt-e']),
    ('Q(i)', (-1, -1), ['-e']),
    ('Q(i)', (1, -1), ['-sqrt-e']),
    ('Q(zeta8)', (0, 1, 0, -1), ['-', '+']),
    ('Q(zeta8)', (0, 1, 0, 1), ['sqrt-', 'sqrt-']),
    ('Q(zeta8)', (0, 0, 1, 0), ['-sqrt-', 'sqrt-']),
    ('Q(zeta8)', (0, 0, -3, 0), ['sqrt-', '-sqrt-']),
    ('Q(zeta8)', (1, 1, 0, -1), ['-', '+']),
    ('Q(zeta8)', (2, -1, 0, 1), ['+', '+']),
    ('Q(zeta8)', (0, 2, 0, 2), ['sqrt-', 'sqrt-']),
    ('Q(zeta8)', (0, 1, 1, 1), ['sqrt-', 'sqrt-']),
    ('Q(zeta5)', (-1, 0, -1, -1), ['-', '+']),
    ('Q(zeta5)', (1, 2, 1, 1), ['sqrt-', 'sqrt-']),
    ('Q(zeta5)', (-1, -1, 0, 0), ['-e', '-e']),
    ('Q(zeta5)', (0, 0, 1, -1), ['-sqrt-', 'sqrt-']),
    ('Q(zeta5)', (2, 1, 0, 0), ['+e', '+e']),
    ('Q(zeta5)', (1, 3, 2, 2), ['sqrt-e', 'sqrt-e']),
    ('Q(zeta5)', (0, 1, 0, 0), ['sqrt-e', '+e']),
    ('Q(zeta5)', (-1, -1, -2, -1), ['sqrt-e', '-sqrt-e']),
    ('deg6', (0, 1, 0, 0, 0, 0), ['sqrt-e', 'sqrt-e', '+e']),
    ('deg6', CBRT2, ['-e', 'sqrt-e', '+']),
    ('deg6', (1, 1, 0, 0, 0, 0), ['sqrt-e', 'sqrt-e', '+e']),
    ('deg6', (2, 0, 1, 0, 0, 0), ['-sqrt-e', '-e', 'sqrt-e']),
    ('deg6', (0, 0, 0, 1, 0, 0), ['sqrt-e', '+', '-e']),
    ('deg6', (-3, 1, -1, 2, 0, 1), ['sqrt-e', '-e', '+e']),
    ('x^4+3x^2+1', (0, 1, 0, 0), ['sqrt-', 'sqrt-']),
    ('x^4+3x^2+1', (0, 0, 1, 0), ['-', '-']),
    ('x^4+3x^2+1', (1, 1, 0, 0), ['+e', '+e']),
    ('x^4+3x^2+1', (0, 1, 0, 1), ['sqrt-', '-sqrt-']),
    ('x^4+3x^2+1', (2, 0, 1, 0), ['+', '-']),
    ('x^4+3x^2+1', (0, -1, 1, 1), ['-e', '-e']),
    ('x^4+3x^2+1', (3, 0, 1, 0), ['+', '+']),
    ('x^4+3x^2+1', (1, 0, 0, 1), ['-sqrt-e', '-sqrt-e']),
]


@pytest.mark.parametrize("name, coords, want", AXIS_AND_TIE_CASES)
def test_axis_and_tie_signs(name, coords, want):
    assert sign_of(FIELDS[name]().element(coords)).serialize() == want


def test_sign_path_computes_no_resultant(monkeypatch):
    """Root matching reads the unordered enclosures, so the exact sign path
    never orders tied real parts and never forms the resultant that proves
    a tie.  Fresh fields, so that no sign or root is cached."""
    fields = {name: define_field(make().minpoly) for name, make in FIELDS.items()}
    fields["Q(zeta12)"] = define_field(cyclotomic_field(12).minpoly)
    for K in fields.values():
        K.places  # the tied places of deg6 and x^4+3x^2+1 need the resultant

    def no_resultant(p):
        raise AssertionError("the sign path formed a resultant")
    monkeypatch.setattr(numberfield, "_real_part_resultant", no_resultant)
    # minimal polynomials x^4 + 5x^2 + 5 and x^4 + 8x^2 + 4: two roots with
    # real part 0 and Im > 0 each
    cases = AXIS_AND_TIE_CASES + [("Q(zeta12)", (-1, 0, 2, 1), ["-sqrt-", "sqrt-"]),
                                  ("Q(zeta12)", (1, 0, -2, -1), ["sqrt-", "-sqrt-"])]
    for name, coords, want in cases:
        assert sign_of(fields[name].element(coords)).serialize() == want


def _mpf_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


@st.composite
def irreducible_polys(draw):
    n = draw(st.integers(2, 6))
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)) + [1]
    assume(coeffs[0] != 0)
    assume(sympy.Poly(coeffs[::-1], sympy.Symbol("x")).is_irreducible)
    return coeffs


@settings(max_examples=40, deadline=None)
@given(irreducible_polys())
@example([1, 0, 3, 0, 1])  # two places with real part 0
@example([100, 120, 84, 52, 24, 6, 1])  # two places with real part -1.6299...
# prod_{j=1..6} (x^2 + 3j) + 1: six places with real part 0
@example([524881, 0, 428652, 0, 131544, 0, 19845, 0, 1575, 0, 63, 0, 1])
def test_isolate_roots_encloses_every_root(coeffs):
    p, n = Poly(coeffs), len(coeffs) - 1
    places = isolate_roots(p)
    boxes = [q.isolating for q in places]
    assert len(places) == n
    assert not any(a.overlaps(b) for i, a in enumerate(boxes) for b in boxes[i + 1:])
    assert sum(q.is_real for q in places) == sympy.Poly(
        coeffs[::-1], sympy.Symbol("x")).count_roots()
    with mpmath.workdps(50):
        roots = [mpmath.mpc(z) for z in mpmath.polyroots(coeffs[::-1], maxsteps=200,
                                                          extraprec=200)]
    slack = Fraction(1, 10**40)
    held = []
    for box in boxes:
        inside = [z for z in roots
                  if box.re.lo - slack <= _mpf_fraction(z.real) <= box.re.hi + slack
                  and box.im.lo - slack <= _mpf_fraction(z.imag) <= box.im.hi + slack]
        assert len(inside) == 1
        held.append((_mpf_fraction(inside[0].real), _mpf_fraction(inside[0].imag)))
    # place order: real roots ascending, then Im > 0 by (re, im)
    r = sum(q.is_real for q in places)
    upper = held[r:(n + r) // 2]
    assert all(im > 0 for _, im in upper)
    for a, b in zip(held[:r], held[1:r]):
        assert a[0] < b[0]
    for a, b in zip(upper, upper[1:]):
        assert a[0] < b[0] - slack or (abs(a[0] - b[0]) <= slack and a[1] < b[1])
    for q in places:
        for width in (Fraction(1, 2**53), Fraction(1, 2**200)):
            box = q.box(width)
            assert box.width <= width
            assert q.isolating.re.lo <= box.re.lo and box.re.hi <= q.isolating.re.hi
            assert q.isolating.im.lo <= box.im.lo and box.im.hi <= q.isolating.im.hi


@st.composite
def squarefree_polys(draw):
    """Monic squarefree integer polynomials of degree 1 to 16, lowest
    coefficient first; a zero constant term gives the root 0."""
    n = draw(st.integers(1, 16))
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)) + [1]
    p = sympy.Poly(coeffs[::-1], sympy.Symbol("x"))
    assume(sympy.gcd(p, p.diff()).degree() == 0)
    return coeffs


@settings(max_examples=60, deadline=None)
@given(squarefree_polys())
@example([0, 1])  # Q's minimal polynomial
@example([0, -2, 0, 1])  # x^3 - 2x: the roots 0 and +-sqrt 2
@example([0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1])  # x^16 + x
@example([1, 0, 3] + [0] * 13 + [1])  # x^16 + 3x^2 + 1: two places with real part 0
@example([100, 120, 84, 52, 24, 6, 1])  # two places with real part -1.6299...
@example([1] * 17)  # Phi_17
def test_enclosures_match_the_mpmath_oracle(coeffs):
    """The same places as mpmath's polyroots gave, in the same order, and
    each isolating ball holds exactly one 50-digit root."""
    p, n = Poly(coeffs), len(coeffs) - 1
    places = isolate_roots(p)
    with mock.patch.object(numberfield, "root_enclosures", mpmath_root_enclosures):
        oracle = isolate_roots(p)
    assert len(places) == len(oracle) == n
    assert [q.is_real for q in places] == [q.is_real for q in oracle]
    fine = Fraction(1, 2**200)
    for i, q in enumerate(places):
        assert [o.box(fine).overlaps(q.box(fine)) for o in oracle] == [j == i for j in range(n)]
    with mpmath.workdps(50):
        roots = [mpmath.mpc(z) for z in mpmath.polyroots(coeffs[::-1], maxsteps=400,
                                                          extraprec=400)]
    slack = Fraction(1, 10**40)
    for box in (q.isolating for q in places):
        assert sum(box.re.lo - slack <= _mpf_fraction(z.real) <= box.re.hi + slack
                   and box.im.lo - slack <= _mpf_fraction(z.imag) <= box.im.hi + slack
                   for z in roots) == 1


@pytest.mark.parametrize("k", [10, 20, 50, 100])
def test_close_real_roots_are_isolated(k):
    """x^3 - 2(10^k x - 1)^2, irreducible by Eisenstein at 2, has two real
    roots about 10^(-5k/2) apart near 10^-k and a third near 2 10^(2k); all
    three are positive, as x^3 = 2(10^k x - 1)^2 > 0 at each."""
    places = isolate_roots(Poly([-2, 4 * 10**k, -2 * 10**(2 * k), 1]))
    assert [q.is_real for q in places] == [True] * 3
    assert all(q.isolating.re_sign() == 1 for q in places)


@pytest.mark.parametrize("coeffs", [
    [Fraction(1, 10**72), 0, 0, 0, 1],  # 10^-18 zeta_8 and its conjugates
    [Fraction(7, 10**150), 0, Fraction(-5, 10**150), 0, 1],
])
def test_roots_far_below_the_first_grid(coeffs):
    """Four non-real roots 2^-60 or less from 0, where p' vanishes: on the
    first grids the iterates land on 0 and must step off it."""
    places = isolate_roots(Poly(coeffs))
    assert len(places) == 4 and not any(q.is_real for q in places)


# -- the tie proof's pair-sum polynomial ------------------------------------

_X, _Y = sympy.symbols("x y")


@pytest.mark.parametrize("coeffs", [
    [100, 120, 84, 52, 24, 6, 1],  # deg6: a tie at real part -1.6299...
    [1, 0, 3, 0, 1],  # x^4 + 3x^2 + 1: ties at real part 0
    [1, 0, -1, 0, 1],  # Phi_12
    # prod_{j=1..4} (x^2 + 3j) + 1: four places with real part 0
    [int(c) for c in sympy.Poly(sympy.prod([_X**2 + 3 * j for j in range(1, 5)]) + 1,
                                _X).all_coeffs()[::-1]],
])
def test_real_part_resultant_holds_the_pair_sums(coeffs):
    """The squarefree prod_(i<j) (y - a_i - a_j) divides sympy's squarefree
    Res_x(p(x), p(y - x)), which adds the roots 2 a_i, and vanishes at every
    sum of two distinct roots, so at 2 Re z for every non-real root z."""
    q = numberfield._real_part_resultant(Poly(coeffs))
    assert all(isinstance(c, int) for c in q) and q[-1] > 0 and math.gcd(*q) == 1
    qy = sympy.Poly(q[::-1], _Y)
    assert sympy.gcd(qy, qy.diff(_Y)).degree() == 0  # squarefree
    e = sympy.Poly(coeffs[::-1], _X).as_expr()
    res = sympy.Poly(sympy.resultant(e, e.subs(_X, _Y - _X), _X), _Y).sqf_part()
    assert res.rem(qy).is_zero
    with mpmath.workdps(60):
        roots = mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=300)
        for i, a in enumerate(roots):
            for b in roots[i + 1:]:
                s = a + b
                scale = sum(abs(c) * abs(s) ** k for k, c in enumerate(q))
                assert abs(mpmath.polyval(q[::-1], s)) <= mpmath.mpf(10) ** -40 * scale

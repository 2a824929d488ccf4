"""nlfield: exact number-field arithmetic, the two-product field
algebra, sign gradings, analytic evaluation, Galois actions, and
Dirichlet series, with a small CLI on top."""

from .algebra import AlgebraElement, ProjectiveClass, monomial
from .coeffs import APPROX, EXACT, GaussRat
from .dirichlet import IntegerSeries, dconv, dinvert, mellin_eval
from .errors import NlfieldError
from .galois import (
    Automorphism,
    FlowParameter,
    GaloisGroup,
    TowerEmbedding,
    cyclotomic_trace_collapse,
    fixed_field_check,
    flow_phi,
    flow_psi,
    group_from_family,
    make_automorphism,
    relative_trace,
    verify_nonlinear_automorphism,
)
from .hardy import (
    EvalResult,
    HyperPoint,
    TorusPoint,
    character_eval,
    hardy_membership,
    in_positive_cone,
    l2_norm,
    series_eval_boundary,
    series_eval_hyper,
    torus_inner_product,
)
from .numberfield import (
    FieldElement,
    NumberField,
    Place,
    absolute_trace,
    cyclotomic_field,
    define_field,
    embed,
    embed_vector,
    is_in_inverse_different,
    minimal_polynomial_of,
    quadratic_field,
    rationals,
)
from .parser import parse_algebra, parse_element, parse_expression, print_ast
from .polys import Poly
from .session import Session
from .signs import (
    ComplexSign,
    GradedDecomposition,
    SignVector,
    check_graded_dirichlet_law,
    grade,
    restrict,
    sign_of,
    sign_product,
)
from .suites import run_suite

__version__ = "0.1.0"

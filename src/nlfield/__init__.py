"""nlfield: exact number-field arithmetic, the two-product field
algebra, sign gradings, analytic evaluation, Galois actions, and
Dirichlet series, with a small CLI on top, whose layers (parser, session,
suites) and their names load on first use."""

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
from .polys import Poly
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

__version__ = "0.1.0"

# no library module imports the CLI layers, so each layer and each name
# it gives loads on first use
_LAZY = {"parser": "parser", "parse_algebra": "parser", "parse_element": "parser",
         "parse_expression": "parser", "session": "session", "Session": "session",
         "suites": "suites", "run_suite": "suites"}
__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = __import__(f"{__name__}.{_LAZY[name]}", fromlist=[name])
    value = globals()[name] = module if name == _LAZY[name] else getattr(module, name)
    return value

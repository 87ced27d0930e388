"""Exact tropical differential algebra over the nonnegative integer lattice.

Support sets, Newton-polygon vertex sets, exact power series over the
rationals and quadratic extensions, differential polynomials and their
tropicalizations, and the tropical vanishing test for candidate supports.
"""

from .errors import (
    ArityError,
    CandidateCapError,
    FieldError,
    ParseError,
    PrecisionError,
    TropdiffError,
)
from .field import RATIONALS, FieldElement, FieldSpec
from .lattice import (
    Point,
    as_point,
    member_newton,
    minimal_elements,
    vertices_of_finite,
)
from .supports import SupportSet
from .tropical import VertexSet
from .series import PowerSeries
from .diffpoly import DerivativeKey, DiffMonomial, DiffPolynomial, derivative_sample
from .troppoly import (
    SolutionReport,
    TropMonomial,
    TropPolynomial,
    enumerate_solutions,
    eval_monomial,
    is_solution,
    is_solution_system,
    tropicalize,
    tropicalize_sample,
)
from .textio import (
    ParseContext,
    parse_diff_poly,
    parse_series,
    parse_support,
    parse_system,
    parse_trop_poly,
    parse_vertex_set,
    print_diff_poly,
    print_series,
    print_support,
    print_trop_poly,
    print_vertex_set,
)

__version__ = "0.1.0"

__all__ = [
    "ArityError",
    "CandidateCapError",
    "FieldError",
    "ParseError",
    "PrecisionError",
    "TropdiffError",
    "RATIONALS",
    "FieldElement",
    "FieldSpec",
    "Point",
    "as_point",
    "member_newton",
    "minimal_elements",
    "vertices_of_finite",
    "SupportSet",
    "VertexSet",
    "PowerSeries",
    "DerivativeKey",
    "DiffMonomial",
    "DiffPolynomial",
    "derivative_sample",
    "SolutionReport",
    "TropMonomial",
    "TropPolynomial",
    "enumerate_solutions",
    "eval_monomial",
    "is_solution",
    "is_solution_system",
    "tropicalize",
    "tropicalize_sample",
    "ParseContext",
    "parse_diff_poly",
    "parse_series",
    "parse_support",
    "parse_system",
    "parse_trop_poly",
    "parse_vertex_set",
    "print_diff_poly",
    "print_series",
    "print_support",
    "print_trop_poly",
    "print_vertex_set",
    "__version__",
]

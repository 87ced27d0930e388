"""Exact tropical differential algebra over the nonnegative integer lattice.

Support sets, Newton-polygon vertex sets, exact power series over the
rationals and quadratic extensions, differential polynomials and their
tropicalizations, and the tropical vanishing test for candidate supports.

Each public name is loaded from its module on first access (PEP 562), so
`import tropdiff` loads no submodule and a CLI command compiles only the
layer it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_SOURCES = {
    **dict.fromkeys(("ArityError", "CandidateCapError", "FieldError", "ParseError",
                     "PrecisionError", "TropdiffError"), "errors"),
    **dict.fromkeys(("RATIONALS", "FieldElement", "FieldSpec"), "field"),
    **dict.fromkeys(("Point", "as_point", "member_newton", "minimal_elements",
                     "vertices_of_finite"), "lattice"),
    "SupportSet": "supports",
    "VertexSet": "tropical",
    "PowerSeries": "series",
    **dict.fromkeys(("DerivativeKey", "DiffMonomial", "DiffPolynomial",
                     "derivative_sample"), "diffpoly"),
    **dict.fromkeys(("SolutionReport", "TropMonomial", "TropPolynomial",
                     "enumerate_solutions", "eval_monomial", "is_solution",
                     "is_solution_system", "tropicalize", "tropicalize_sample"), "troppoly"),
    **dict.fromkeys(("ParseContext", "parse_diff_poly", "parse_series", "parse_system",
                     "parse_trop_poly", "print_diff_poly", "print_series",
                     "print_trop_poly"), "textio"),
    **dict.fromkeys(("parse_support", "parse_vertex_set", "print_support",
                     "print_vertex_set"), "pointio"),
}

__all__ = [*_SOURCES, "__version__"]


def __getattr__(name: str):
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

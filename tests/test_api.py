"""The public surface of the package, pinned name by name."""

import importlib
import inspect
import pkgutil

import tropdiff

import oracles

PUBLIC = [
    "ArityError",
    "CandidateCapError",
    "DerivativeKey",
    "DiffMonomial",
    "DiffPolynomial",
    "FieldElement",
    "FieldError",
    "FieldSpec",
    "ParseContext",
    "ParseError",
    "Point",
    "PowerSeries",
    "PrecisionError",
    "RATIONALS",
    "SolutionReport",
    "SupportSet",
    "TropMonomial",
    "TropPolynomial",
    "TropdiffError",
    "VertexSet",
    "__version__",
    "as_point",
    "derivative_sample",
    "enumerate_solutions",
    "eval_monomial",
    "is_solution",
    "is_solution_system",
    "member_newton",
    "minimal_elements",
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
    "tropicalize",
    "tropicalize_sample",
    "vertices_of_finite",
]

ORACLES = sorted(
    name for name, obj in vars(oracles).items()
    if inspect.isfunction(obj) and obj.__module__ == oracles.__name__
)


def test_all_is_pinned():
    assert len(PUBLIC) == 43
    assert sorted(tropdiff.__all__) == PUBLIC


def test_every_name_resolves():
    for name in tropdiff.__all__:
        assert hasattr(tropdiff, name), name


def test_no_oracle_in_the_package():
    assert {"staircase_hull_2d", "eval_monomial_minkowski"} <= set(ORACLES)
    modules = [tropdiff] + [
        importlib.import_module(f"tropdiff.{info.name}")
        for info in pkgutil.iter_modules(tropdiff.__path__)
        if info.name != "__main__"
    ]
    for module in modules:
        for name in ORACLES:
            assert not hasattr(module, name), (module.__name__, name)

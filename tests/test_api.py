"""The public surface of the package, pinned name by name."""

import ast
import importlib
import inspect
import pathlib
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


# Modules that read digits from text; everywhere else `int()` would
# truncate a float coordinate, index or exponent instead of refusing it.
INT_READERS = {"textio.py", "cli.py"}


def test_int_only_reads_text():
    calls = []
    for path in sorted(pathlib.Path(tropdiff.__file__).parent.glob("*.py")):
        if path.name in INT_READERS:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "int"):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


# `FieldElement`'s (a, b) layout is read where it is defined and where its
# parts are printed; everywhere else its arithmetic builds the sums.
PART_READERS = {"field.py", "textio.py"}


def test_field_parts_read_only_by_their_owners():
    reads = []
    for path in sorted(pathlib.Path(tropdiff.__file__).parent.glob("*.py")):
        if path.name in PART_READERS:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("a", "b"):
                reads.append(f"{path.name}:{node.lineno}")
    assert reads == []


# Loops that run once per unit of an integer's value, so their cost follows
# that value instead of the input's size; a new one is listed on purpose.
VALUE_LOOPS = ["diffpoly.py:DiffPolynomial.theta"]


def _range_loops(node, owner=()):
    """The enclosing def names of each `for _ in range(...)` loop under `node`."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.For) and isinstance(child.target, ast.Name)
                and child.target.id == "_" and isinstance(child.iter, ast.Call)
                and isinstance(child.iter.func, ast.Name) and child.iter.func.id == "range"):
            yield ".".join(owner)
        named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
        yield from _range_loops(child, owner + (child.name,) if named else owner)


def test_value_driven_loops_are_listed():
    loops = []
    for path in sorted(pathlib.Path(tropdiff.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        loops += [f"{path.name}:{name}" for name in _range_loops(tree)]
    assert loops == VALUE_LOOPS


# Outside input enters through textio.py and cli.py, so it must go through
# the validating constructors there; the `_trusted` ones and the series
# normalizer `PowerSeries._normal` skip every check.
INPUT_READERS = ("textio.py", "cli.py")
TRUSTED_OWNERS = ("FieldElement", "DerivativeKey", "DiffMonomial", "PowerSeries",
                  "DiffPolynomial", "VertexSet", "TropPolynomial")


def test_no_trusted_construction_of_input():
    for name in TRUSTED_OWNERS:
        assert hasattr(getattr(tropdiff, name), "_trusted"), name
    calls = []
    for name in INPUT_READERS:
        path = pathlib.Path(tropdiff.__file__).parent / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and (node.attr.startswith("_trusted")
                                                    or node.attr == "_normal"):
                calls.append(f"{name}:{node.lineno}")
    assert calls == []

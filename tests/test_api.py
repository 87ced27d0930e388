"""The public surface of the package, pinned name by name."""

import ast
import importlib
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

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


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from tropdiff import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
    assert set(PUBLIC) <= set(dir(tropdiff))


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
INT_READERS = {"pointio.py", "textio.py", "cli.py"}


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


def _is_value_loop(node):
    """Whether `node` is a `for _ in range(...)` loop."""
    return (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
            and node.target.id == "_" and isinstance(node.iter, ast.Call)
            and isinstance(node.iter.func, ast.Name) and node.iter.func.id == "range")


def _owners(node, match, owner=()):
    """The enclosing def names of each node under `node` that `match` accepts."""
    for child in ast.iter_child_nodes(node):
        if match(child):
            yield ".".join(owner)
        named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
        yield from _owners(child, match, owner + (child.name,) if named else owner)


def _package_owners(match):
    """`file:owner` for each node of the package's modules that `match` accepts."""
    found = []
    for path in sorted(pathlib.Path(tropdiff.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{name}" for name in _owners(tree, match)]
    return found


def test_value_driven_loops_are_listed():
    assert _package_owners(_is_value_loop) == VALUE_LOOPS


# Val_J(S_i) has one route into the vanishing test, the helper that fills
# its valuations, which `eval_monomial` goes through too; `vertices` is the
# other public reader.
VAL_CALLERS = ["supports.py:SupportSet.vertices", "troppoly.py:_valuations"]


def test_val_is_called_only_by_the_valuation_routes():
    def is_val_call(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "val")

    assert _package_owners(is_val_call) == VAL_CALLERS


def _calls(name):
    """A matcher for calls of `name`, bare or as an attribute."""
    def is_call(node):
        func = node.func if isinstance(node, ast.Call) else None
        return (isinstance(func, ast.Name) and func.id == name
                or isinstance(func, ast.Attribute) and func.attr == name)

    return is_call


# The vertex routine has one entry per use: the public function and the
# vertex-set normal form; values that are vertex sets already skip it.
VERTEX_ROUTINE_CALLERS = ["lattice.py:vertices_of_finite", "tropical.py:VertexSet._normal"]


def test_vertex_routine_is_called_only_by_the_normal_forms():
    assert _package_owners(_calls("_vertices_cached")) == VERTEX_ROUTINE_CALLERS


# Newton-polygon membership has one exact core: the public test and the
# vertex routine call it directly, and no module of the package goes back
# through the validating `member_newton`.
MEMBERSHIP_CORE_CALLERS = ["lattice.py:member_newton", "lattice.py:_vertices_cached"]


def test_membership_core_is_called_only_by_its_two_users():
    assert _package_owners(_calls("_phase1_feasible")) == MEMBERSHIP_CORE_CALLERS
    assert _package_owners(_calls("member_newton")) == []


# Outside input enters through pointio.py, textio.py and cli.py, so it must
# go through the validating constructors there; the `_trusted` ones and the
# normal forms `PowerSeries._normal`, `DiffPolynomial._normal` and
# `VertexSet._normal` skip every check.  Each owner is a `module:Class.attr`
# that the class defines itself, not one it inherits.
INPUT_READERS = ("pointio.py", "textio.py", "cli.py")
TRUSTED_OWNERS = ("_value:Value._trusted", "diffpoly:DerivativeKey._trusted",
                  "series:PowerSeries._normal", "diffpoly:DiffPolynomial._normal",
                  "tropical:VertexSet._normal")


def test_one_trusted_constructor():
    # every value type inherits `Value._trusted`; the plain tuple
    # `DerivativeKey` keeps its own
    def defines_trusted(node):
        return isinstance(node, ast.FunctionDef) and node.name == "_trusted"

    assert _package_owners(defines_trusted) == ["_value.py:Value", "diffpoly.py:DerivativeKey"]


def test_cli_cuts_no_argument_apart():
    # every argument is read by the DSL parser, so cli.py makes no string surgery
    surgery = [_calls(name) for name in ("split", "replace", "count", "find")]
    path = pathlib.Path(tropdiff.__file__).parent / "cli.py"
    calls = [node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if any(match(node) for match in surgery)]
    assert calls == []


def test_no_trusted_construction_of_input():
    for name in TRUSTED_OWNERS:
        module, path = name.split(":")
        owner, attr = path.split(".")
        assert attr in vars(getattr(importlib.import_module(f"tropdiff.{module}"), owner)), name
    calls = []
    for name in INPUT_READERS:
        path = pathlib.Path(tropdiff.__file__).parent / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and (node.attr.startswith("_trusted")
                                                    or node.attr == "_normal"):
                calls.append(f"{name}:{node.lineno}")
    assert calls == []


# Each CLI call is a fresh interpreter that pays for every module the
# package loads at start-up: values are tuples, since `dataclasses` pulls in
# `inspect` and generates code per class, and `json` waits for --format json.
def test_no_module_imports_dataclasses():
    imports = []
    for path in sorted(pathlib.Path(tropdiff.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                imports.append(f"{path.name}:{node.lineno}")
    assert imports == []


SRC = pathlib.Path(tropdiff.__file__).parent.parent

# What the geometry layer never needs: the coefficient fields, the algebra
# modules and the whole-DSL parser.
ALGEBRA = {"tropdiff.field", "tropdiff.series", "tropdiff.diffpoly", "tropdiff.troppoly",
           "tropdiff.textio", "fractions", "decimal"}


def _loaded(*argv):
    """Modules a fresh `python *argv` imports, compiling from source as a CLI call does."""
    out = subprocess.run([sys.executable, "-X", "importtime", *argv], capture_output=True,
                         text=True, timeout=30,
                         env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1"))
    assert out.returncode == 0, out.stderr
    return {line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines()
            if line.startswith("import time:")} - {"imported package"}


def test_import_loads_no_submodule():
    assert {m for m in _loaded("-c", "import tropdiff") if m.startswith("tropdiff.")} == set()


def test_cli_start_up_loads_no_heavy_module():
    loaded = _loaded("-c", "import tropdiff.cli as c; c.build_parser()")
    assert loaded & ({"dataclasses", "inspect", "json"} | ALGEBRA) == set()


@pytest.mark.parametrize("options", [[], ["-m", "2"], ["--format", "json"]])
def test_vertices_loads_only_the_geometry(options):
    loaded = _loaded("-m", "tropdiff", "vertices", "--set", "{(1,2),(2,1)} + cone{(1,1)}",
                     *options)
    assert "tropdiff.pointio" in loaded
    assert loaded & (ALGEBRA | {"tropdiff.examples"}) == set()

import contextlib
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import pytest

from tropdiff import (ParseContext, SupportSet, cli, enumerate_solutions, parse_diff_poly,
                      print_support, tropicalize_sample)
from tropdiff import diffpoly
from tropdiff.cli import main

from gen import convex_position_set


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def run_process(*argv, timeout=10):
    """`python -m tropdiff *argv` in a fresh interpreter, within `timeout` seconds."""
    return subprocess.run([sys.executable, "-m", "tropdiff", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=SRC))


SYS_71 = """\
# order-two system over Q(sqrt 2)
x1[1,0]^2 - 4*x1[0,0]
x1[1,1]*x2[0,1] - x1[0,0] + 1
x2[2,0] - x1[1,0]
"""

PHI1 = "t1^2 + sqrtd*t1*t2 + 1/2*t2^2"
PHI2 = ("1 - 1/2*sqrtd*t2 + 1/3*t1^3 + 1/2*sqrtd*t1^2*t2 + 1/2*t1*t2^2"
        " + 1/12*sqrtd*t2^3")
S1 = "{(2,0),(1,1),(0,2)}"
S2 = "{(0,0),(0,1),(3,0),(2,1),(1,2),(0,3)}"


class TestVertices:
    def test_staircase(self, capsys):
        code, out, _ = run(capsys, "vertices", "--set", "{(1,4),(2,3),(3,3),(4,1)}")
        assert code == 0 and out.strip() == "{(1,4),(4,1)}"

    def test_empty(self, capsys):
        code, out, _ = run(capsys, "vertices", "--set", "{}")
        assert code == 0 and out.strip() == "{}"

    def test_cone_generators(self, capsys):
        code, out, _ = run(capsys, "vertices", "--set", "cone{(1,1),(2,0)}")
        assert code == 0 and out.strip() == "{(1,1),(2,0)}"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "vertices", "--set", "{(1,4),(2,3)}",
                           "--format", "json")
        assert code == 0
        assert json.loads(out) == {"vertices": [[1, 4], [2, 3]]}

    def test_run_exits_with_the_code_of_main(self, monkeypatch, capsys):
        # the console script and `python -m tropdiff` both enter through `run`
        monkeypatch.setattr(sys, "argv", ["tropdiff", "vertices", "--set", "{(1,4),(2,3)}"])
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert (exc.value.code, capsys.readouterr().out) == (0, "{(1,4),(2,3)}\n")

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "vertices", "--set", "{(1,")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("argv, code, out, err", [
        # without -m the first point fixes the arity, a set with no point has arity 1
        (("--set", "{(1,2),(3)}"), 2, "",
         "error: point of arity 1, expected 2 (at position 7)\n"),
        (("--set", "{} + cone{(1,2,3)}"), 0, "{(1,2,3)}\n", ""),
        (("--set", "cone{}"), 0, "{}\n", ""),
        (("-m", "3", "--set", "{(1,2)}"), 2, "",
         "error: point of arity 2, expected 3 (at position 1)\n"),
        (("-m", "0", "--set", "{}"), 2, "", "error: arity must be >= 1, got 0\n"),
    ])
    def test_arity_from_the_grammar(self, capsys, argv, code, out, err):
        assert run(capsys, "vertices", *argv) == (code, out, err)

    def test_large_set_within_budget(self):
        # 190 points in convex position on sum(x) = c in arity 4, translated
        # to coordinates near 10^12, plus 10 integral midpoints of pairs of
        # them: the vertex set is the 190 points.  On a 2-CPU machine this takes
        # 0.9-1.5 s; with Bland's rule alone and each point tested against
        # all the others it takes 7.1-11.0 s
        budget = 2.2
        surface, pts = convex_position_set(random.Random(7), 4, 190, 16, 10**9, midpoints=10)

        def text(points):
            return "{" + ",".join("(" + ",".join(str(10**12 + x) for x in p) + ")"
                                  for p in points) + "}"

        t0 = time.perf_counter()
        proc = run_process("vertices", "--set", text(pts), timeout=60)
        elapsed = time.perf_counter() - t0
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, text(sorted(surface)) + "\n", "")
        assert elapsed < budget, f"{elapsed:.2f}s exceeds the budget of {budget}s"

    def test_long_row_under_a_cone_within_budget(self):
        # 4000 explicit points on the first axis under the cone (0,1); with
        # (4000,0) as a second cone every point's orthant lies in the set.
        # A fresh upward walk from each point took 32-42 s on a 2-CPU machine
        budget = 2.2
        row = [(i, 0) for i in range(4000)]
        kept = SupportSet(2, row, [(0, 1)])
        assert kept.explicit == tuple(row) and kept.cones == ((0, 1),)
        assert SupportSet(2, row, [(0, 1), (4000, 0)]) == SupportSet(2, (), [(0, 0)])
        points = "{" + ",".join(f"({i},0)" for i in range(4000)) + "}"
        for cones in ("cone{(0,1)}", "cone{(0,1),(4000,0)}"):
            t0 = time.perf_counter()
            proc = run_process("vertices", "--set", f"{points} + {cones}", timeout=60)
            elapsed = time.perf_counter() - t0
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, "{(0,0)}\n", "")
            assert elapsed < budget, f"{cones}: {elapsed:.2f}s exceeds the budget of {budget}s"


class TestTrop:
    def test_constant_coefficients(self, capsys):
        code, out, _ = run(
            capsys, "trop", "-m", "2", "-n", "2", "--sqrt", "2",
            "--poly", "x1[1,0]^2 - 4*x1[0,0]",
        )
        assert code == 0
        assert out.strip() == "{(0,0)}*x1[0,0] + {(0,0)}*x1[1,0]^2"

    def test_zero(self, capsys):
        code, out, _ = run(capsys, "trop", "-m", "2", "-n", "1", "--poly", "0")
        assert code == 0 and out.strip() == "0"

    def test_series_coefficient(self, capsys):
        code, out, _ = run(
            capsys, "trop", "-m", "4", "-n", "1",
            "--poly", "x1[0,0,1,0]*x1[0,0,0,1] + (-t1^2 + t2^2)*x1[1,0,1,0]",
        )
        assert code == 0
        assert "{(0,2,0,0),(2,0,0,0)}*x1[1,0,1,0]" in out

    def test_json_validates(self, capsys):
        code, out, _ = run(
            capsys, "trop", "-m", "2", "-n", "2", "--sqrt", "2",
            "--poly", "x1[1,0]^2 - 4*x1[0,0]", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["terms"]) == 2


class TestCheck:
    def test_quadratic_system_solution(self, tmp_path, capsys):
        path = tmp_path / "system.txt"
        path.write_text(SYS_71, encoding="utf-8")
        code, out, _ = run(
            capsys, "check", "-m", "2", "-n", "2", "--sqrt", "2",
            "--system", str(path),
            "--supports", f"{S1};{S2}",
            "--derive-bound", "1",
        )
        assert code == 0
        assert "overall solution: true" in out

    def test_origin_support_rejected(self, capsys):
        code, out, _ = run(
            capsys, "check", "-m", "1", "-n", "1",
            "--poly", "2*t1*x1[1] - x1[0]",
            "--supports", "{(0)}",
        )
        assert code == 1
        assert "monomials [0]" in out
        assert "overall solution: false" in out

    def test_empty_supports_trivial(self, capsys):
        code, out, _ = run(
            capsys, "check", "-m", "2", "-n", "2", "--sqrt", "2",
            "--poly", "x1[1,0]^2 - 4*x1[0,0]",
            "--poly", "x2[2,0] - x1[1,0]",
            "--supports", "{};{}",
        )
        assert code == 0
        assert "overall solution: true" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "check", "-m", "1", "-n", "1",
            "--poly", "2*t1*x1[1] - x1[0]",
            "--supports", "{(0)}",
            "--format", "json",
        )
        assert code == 1
        data = json.loads(out)
        assert data["solution"] is False
        report = data["polynomials"][0]["report"]
        assert set(report) == {"evaluation", "witnesses", "solution"}


class TestExactStdout:
    CHECK = ("check", "-m", "2", "--poly", "x[0,0] - t1^2 - t2^3",
             "--poly", "x[1,0] - x[0,1]", "--supports", "{(2,0),(0,2)}")
    ENUMERATE = ("enumerate", "-m", "1", "--poly", "x[1] - x[0]",
                 "--box", "2", "--max-points", "2")

    def test_false_check_text(self, capsys):
        code, out, _ = run(capsys, *self.CHECK)
        assert code == 1
        assert out == (
            "{(0,3),(2,0)} + {(0,0)}*x1[0,0]\n"
            "  evaluation: {(0,2),(2,0)}\n"
            "  (0,2): monomials [1]\n"
            "  (2,0): monomials [0, 1]\n"
            "  solution: false\n"
            "{(0,0)}*x1[0,1] + {(0,0)}*x1[1,0]\n"
            "  evaluation: {(0,1),(1,0)}\n"
            "  (0,1): monomials [0]\n"
            "  (1,0): monomials [1]\n"
            "  solution: false\n"
            "overall solution: false\n"
        )

    def test_false_check_json(self, capsys):
        code, out, _ = run(capsys, *self.CHECK, "--format", "json")
        assert code == 1
        payload = {
            "polynomials": [
                {
                    "polynomial": "{(0,3),(2,0)} + {(0,0)}*x1[0,0]",
                    "report": {
                        "evaluation": [[0, 2], [2, 0]],
                        "solution": False,
                        "witnesses": {"(0,2)": [1], "(2,0)": [0, 1]},
                    },
                },
                {
                    "polynomial": "{(0,0)}*x1[0,1] + {(0,0)}*x1[1,0]",
                    "report": {
                        "evaluation": [[0, 1], [1, 0]],
                        "solution": False,
                        "witnesses": {"(0,1)": [0], "(1,0)": [1]},
                    },
                },
            ],
            "solution": False,
        }
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_enumerate_text(self, capsys):
        code, out, _ = run(capsys, *self.ENUMERATE)
        assert code == 0
        assert out == "{}\n{(0),(1)}\n2 solution(s)\n"

    def test_enumerate_json(self, capsys):
        code, out, _ = run(capsys, *self.ENUMERATE, "--format", "json")
        assert code == 0
        payload = {"solutions": [
            [{"arity": 1, "cones": [], "explicit": []}],
            [{"arity": 1, "cones": [], "explicit": [[0], [1]]}],
        ]}
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestEvalDeriveEnumerate:
    def test_eval_known_root(self, capsys):
        code, out, _ = run(
            capsys, "eval", "-m", "2", "-n", "2", "--sqrt", "2",
            "--poly", "x1[1,0]^2 - 4*x1[0,0]",
            "--at", f"{PHI1};{PHI2}",
        )
        assert code == 0 and out.strip() == "0"

    def test_derive_identity(self, capsys):
        code, out, _ = run(
            capsys, "derive", "-m", "2", "-n", "2",
            "--index", "(0,0)", "--poly", "x1[1,0]^2 - 4*x1[0,0]",
        )
        assert code == 0 and out.strip() == "-4*x1[0,0] + x1[1,0]^2"

    def test_derive_series(self, capsys):
        code, out, _ = run(
            capsys, "derive", "-m", "2", "-n", "1", "--sqrt", "2",
            "--index", "1,0", "--series", PHI1,
        )
        assert code == 0 and out.strip() == "sqrtd*t2 + 2*t1"

    def test_enumerate_only_empty(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "-m", "1", "-n", "1",
            "--poly", "2*t1*x1[1] - x1[0]",
            "--derive-bound", "5", "--box", "(5)",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == ["{}", "1 solution(s)"]

    def test_eval_json(self, capsys):
        code, out, _ = run(
            capsys, "eval", "-m", "2", "-n", "1",
            "--poly", "x1[0,0]", "--at", "t1 + 2*t2",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["terms"] == [
            {"exponent": [0, 1], "a": "2", "b": "0"},
            {"exponent": [1, 0], "a": "1", "b": "0"},
        ]

    def test_derive_json(self, capsys):
        code, out, _ = run(
            capsys, "derive", "-m", "2", "-n", "1",
            "--index", "(1,0)", "--poly", "x1[0,0]^2",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["terms"]) == 1

    def test_enumerate_cap_exit_2(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "-m", "1", "-n", "1",
            "--poly", "2*t1*x1[1] - x1[0]",
            "--derive-bound", "0", "--box", "(5)", "--max-candidates", "10",
        )
        assert code == 2 and "cap" in err

    @pytest.mark.parametrize("option, message", [
        (("--max-candidates", "-5"), "max_candidates must be >= 0"),
    ], ids=["option-negative"])
    def test_enumerate_cap_errors_exit_2(self, capsys, option, message):
        code, out, err = run(capsys, "enumerate", "-m", "1", "--poly", "x[0]",
                             "--box", "2", *option)
        assert code == 2 and out == ""
        assert err.strip() == f"error: {message}"

    def test_enumerate_json(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "-m", "1", "-n", "1",
            "--poly", "2*t1*x1[1] - x1[0]",
            "--derive-bound", "5", "--box", "(5)", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["solutions"] == [[{"arity": 1, "explicit": [], "cones": []}]]

    @pytest.mark.parametrize("text", ["(1,0)", "1,0", " ( 1 , 0 ) "])
    def test_derive_index_forms(self, capsys, text):
        code, out, _ = run(capsys, "derive", "-m", "2", "--index", text,
                           "--poly", "x[0,0]")
        assert code == 0 and out.strip() == "x1[1,0]"

    @pytest.mark.parametrize("text", ["(1)", "1"])
    def test_enumerate_box_forms(self, capsys, text):
        code, out, _ = run(capsys, "enumerate", "-m", "1", "--poly", "x[0]",
                           "--box", text)
        assert code == 0 and out.strip().splitlines()[-1] == "1 solution(s)"

    @pytest.mark.parametrize("option, text", [
        (option, text)
        for option in ("--index", "--box")
        for text in ("1_0", "((1))", "+1", "1,0", "(1", "")
    ])
    def test_point_syntax_errors(self, capsys, option, text):
        command = "derive" if option == "--index" else "enumerate"
        code, out, err = run(capsys, command, "-m", "1", option, text,
                             "--poly", "x[0]")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("derive", "-m", "1", "--index", "1", "--poly", ""),
        ("check", "-m", "1", "--system", "", "--supports", "{(0)}"),
        ("enumerate", "-m", "1", "--system", "", "--box", "2"),
    ])
    def test_empty_poly_or_system_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "internal error" not in err

    def test_comment_only_system_is_empty(self, tmp_path, capsys):
        path = tmp_path / "system.txt"
        path.write_text("# no polynomial\n\n   # nor here\n", encoding="utf-8")
        assert run(capsys, "check", "-m", "1", "--system", str(path), "--supports", "{(0)}") == (
            2, "", "error: the system is empty\n")

    def test_negative_max_points_exit_2(self, capsys):
        code, out, err = run(capsys, "enumerate", "-m", "1", "--poly", "x[0]",
                             "--box", "2", "--max-points", "-1")
        assert code == 2 and out == ""
        assert err.strip() == "error: max_points must be >= 0"

    def test_point_error_position_without_parentheses(self, capsys):
        code, _, err = run(capsys, "derive", "-m", "1", "--index", "1_0",
                           "--poly", "x[0]")
        assert code == 2 and err.strip() == "error: trailing input (at position 1)"

    @pytest.mark.parametrize("argv, message", [
        (("check", "-m", "1", "-n", "2", "--poly", "x1[0]-x2[0]",
          "--supports", "{(0)};{(1,)}"), "expected an integer (at position 10)"),
        (("check", "-m", "1", "-n", "2", "--poly", "x1[0]-x2[0]",
          "--supports", "{(0)};"), "expected '{' (at position 6)"),
        (("eval", "-m", "1", "-n", "2", "--poly", "x1[0]", "--at", "t;t+"),
         "expected a term (at position 4)"),
        (("check", "-m", "1", "-n", "2", "--poly", "x1[0]-x2[0]", "--supports", "{(0)}"),
         "expected 2 support sets, got 1"),
        (("eval", "-m", "1", "-n", "2", "--poly", "x1[0]", "--at", "t"),
         "expected 2 series, got 1"),
    ], ids=["supports-second-point", "supports-missing-set", "at-second-series",
            "supports-count", "at-count"])
    def test_tuple_errors_count_from_the_argument_start(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ("derive", "-m", "2", "--poly", "x[0,0]^2 + t1*x[1,1]", "--index", "(1,0)"),
        ("enumerate", "-m", "2", "--poly", "x[1,0]*x[0,1]-x[0,0]", "--derive-bound", "1",
         "--box", "(3,2)"),
    ], ids=["index", "box"])
    def test_bare_index_prints_as_the_parenthesized_one(self, capsys, argv):
        bare = argv[:-1] + (argv[-1].strip("()"),)
        with_parens = run(capsys, *argv)
        assert with_parens[0] == 0 and with_parens[1]
        assert run(capsys, *bare) == with_parens


def timed_process(*argv, budget):
    """`run_process(*argv)` and its wall time, which must stay below `budget` seconds."""
    t0 = time.perf_counter()
    proc = run_process(*argv, timeout=60)
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"{elapsed:.2f}s exceeds the budget of {budget}s"
    return proc


@contextlib.contextmanager
def long_int_strings():
    """Lift Python's limit on int-to-string digits (3.11+) inside the block."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


class TestLargeExactValues:
    # (1+t1)^2000 has 2001 terms of up to 601 digits; with products on
    # integer forms each request takes about 2 s on a 2-CPU machine, and
    # 14.7 s with products on validated Fraction pairs
    def test_trop_of_a_dense_power(self):
        proc = timed_process("trop", "-m", "1", "--poly", "(1+t1)^2000*x[0]", budget=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "{(0)}*x1[0]\n", "")

    def test_eval_at_a_dense_power(self):
        proc = timed_process("eval", "-m", "1", "--poly", "x[0]^2000", "--at", "1+t1", budget=10)
        assert (proc.returncode, proc.stderr) == (0, "")
        digest = hashlib.md5(proc.stdout.encode()).hexdigest()
        assert (len(proc.stdout), digest) == (887261, "633b16cdfda098248334d69e9cb54d7b")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_coefficients_past_the_int_digit_limit(self, fmt):
        # 2000! has 5736 digits; Python 3.11+ refuses str() of an int of
        # more than 4300 unless the process lifts the limit
        proc = run_process("derive", "-m", "1", "--index", "2000", "--series", "t^2000",
                           "--format", fmt)
        assert (proc.returncode, proc.stderr) == (0, "")
        if fmt == "json":
            [term] = json.loads(proc.stdout)["terms"]
            assert (term["exponent"], term["b"]) == ([0], "0")
            digits = term["a"]
        else:
            digits = proc.stdout.removesuffix("\n")
        with long_int_strings():
            assert digits == str(math.factorial(2000))


class TestExamples:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "examples")
        assert code == 0
        assert out.count("PASS") == 4 and "FAIL" not in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "examples", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert all(e["pass"] for e in data["examples"])


class TestStreaming:
    SCAN = ["enumerate", "-m", "1", "--poly", "x[1]*x[0] - t*x[0]^2", "--derive-bound", "1"]

    @pytest.mark.parametrize("m, n, polys, box, bound", [
        (1, 1, ["x[1]*x[0] - t*x[0]^2"], (6,), 2),
        (2, 1, ["x1[1,0]*x1[0,1] - x1[0,0]"], (2, 1), 1),
        (1, 2, ["x1[1] - x2[0]", "x1[0]*x2[1] - t*x2[0]"], (3,), 1),
        (2, 2, ["x1[1,0] - x2[0,0]"], (1, 1), 1),
    ])
    def test_enumerate_lines_follow_the_library_order(self, capsys, m, n, polys, box, bound):
        argv = ["enumerate", "-m", str(m), "-n", str(n), "--box", ",".join(map(str, box)),
                "--derive-bound", str(bound)]
        code, out, _ = run(capsys, *argv, *[a for p in polys for a in ("--poly", p)])
        ctx = ParseContext(arity=m, nvars=n)
        sample = tropicalize_sample([parse_diff_poly(p, ctx) for p in polys], bound)
        sols = enumerate_solutions(sample, box, nvars=n)
        assert code == 0 and len(sols) > 1
        assert out.splitlines() == [" ; ".join(map(print_support, t)) for t in sols] + [
            f"{len(sols)} solution(s)"]

    def test_enumerate_derives_on_numerators_only(self, capsys):
        # supports are read off the engine: no entry is converted back to Fraction
        with mock.patch.object(diffpoly, "_numerators", wraps=diffpoly._numerators) as num, \
                mock.patch.object(diffpoly, "_from_numerators",
                                  wraps=diffpoly._from_numerators) as back:
            code, out, _ = run(capsys, *self.SCAN[:-1], "3", "--box", "(8)",
                               "--poly", "1/2*x[1] - 3*x[0]")
        assert code == 0 and out.endswith(" solution(s)\n")
        assert num.call_count == 2 and not back.called

    def test_check_writes_each_entry_as_it_is_tested(self, capsys, monkeypatch):
        lines = []
        derive = diffpoly._derive_form

        def counting(*args):
            lines.append(sys.stdout.getvalue().count("\n"))
            return derive(*args)

        monkeypatch.setattr(diffpoly, "_derive_form", counting)
        code, out, _ = run(capsys, "check", "-m", "1", "--poly", "x[1] - x[0]",
                           "--supports", "{}", "--derive-bound", "3")
        assert code == 0 and out.count("  solution: true") == 4
        # theta(0)P is tested and written before theta(1)P is derived, and so on
        assert lines == [3, 6, 9]

    def test_scan_memory_follows_one_level(self, monkeypatch):
        # [0,15] has 2^16 components, at most C(16,8) of one size: at most two
        # sizes of them are kept, and each solution is written as it is found
        argv = [*self.SCAN, "--box", "15"]
        with open(os.devnull, "w", encoding="utf-8") as null:
            monkeypatch.setattr(sys, "stdout", null)
            assert main([*self.SCAN, "--box", "1"]) == 0  # loads the command's modules
            tracemalloc.start()
            try:
                code = main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0 and peak < 10 * 2**20, peak

    def test_check_memory_follows_the_row(self, monkeypatch):
        # the bundled request at bound 12 derives 3*13^2 entries; only the row
        # of prefix derivatives and the valuations are kept, about 0.5 MiB
        argv = ["check", "-m", "2", "-n", "2", "--sqrt", "2",
                *[a for p in SYS_71.splitlines()[1:] for a in ("--poly", p)],
                "--supports", f"{S1};{S2}", "--derive-bound"]
        with open(os.devnull, "w", encoding="utf-8") as null:
            monkeypatch.setattr(sys, "stdout", null)
            assert main([*argv, "1"]) == 0  # loads the command's modules
            tracemalloc.start()
            try:
                code = main([*argv, "12"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0 and peak < 2 * 2**20, peak

    def test_closed_stdout_ends_quietly(self):
        # the scan writes about 300 kB, more than a pipe holds: the writes
        # after the reader is gone fail, and the run ends with 2 and no message
        proc = subprocess.Popen([sys.executable, "-m", "tropdiff", *self.SCAN, "--box", "15"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=dict(os.environ, PYTHONPATH=SRC))
        assert proc.stdout.readline() == b"{}\n"
        proc.stdout.close()
        try:
            err = proc.stderr.read()
            assert (proc.wait(timeout=10), err) == (2, b"")
        finally:
            proc.kill()
            proc.stderr.close()


HELP = os.path.join(os.path.dirname(__file__), "help")
COMMANDS = ["vertices", "trop", "eval", "derive", "check", "enumerate", "examples"]


def help_text(capsys, monkeypatch, *argv):
    """Stdout of `tropdiff *argv --help` at a width of 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    out = capsys.readouterr()
    assert (exc.value.code, out.err) == (0, "")
    return out.out


class TestHelp:
    # tests/help/ holds the help of each command as argparse of Python
    # 3.10-3.12 prints it; from 3.13 on argparse prints an option's
    # aliases with a single metavar, so the pinned bytes differ
    @pytest.mark.skipif(sys.version_info >= (3, 13),
                        reason="the pinned help is argparse's format before Python 3.13")
    @pytest.mark.parametrize("command", [None, *COMMANDS])
    def test_help_is_pinned(self, capsys, monkeypatch, command):
        with open(os.path.join(HELP, f"{command or 'tropdiff'}.txt"), encoding="utf-8") as fh:
            expected = fh.read()
        argv = [] if command is None else [command]
        assert help_text(capsys, monkeypatch, *argv) == expected

    def test_enumerate_help_names_the_default_cap(self, capsys, monkeypatch):
        assert "refusal cap (default: 100000)" in help_text(capsys, monkeypatch, "enumerate")


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trop", "-m", "2"])
        assert exc.value.code == 2

    def test_sqrt_zero_is_a_field_error(self, capsys):
        code, out, err = run(capsys, "trop", "-m", "1", "--sqrt", "0",
                             "--poly", "x1[0]")
        assert code == 2 and out == ""
        assert "nonsquare" in err

    def test_internal_error_exit_2_without_traceback(self, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_vertices", boom)
        code, out, err = run(capsys, "vertices", "--set", "{(1,0)}")
        assert code == 2 and out == ""
        assert err.strip() == "internal error: RuntimeError: boom"
        assert "Traceback" not in out + err

    def test_cap_refused_before_sampling(self):
        # 2^31 candidates: refused before any of the 200000 derivatives
        proc = run_process("enumerate", "-m", "1", "--poly", "x[1]-x[0]", "--box", "30",
                           "--derive-bound", "200000")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.strip().endswith("exceeding the cap of 100000")

    @pytest.mark.parametrize("argv", [
        ["check", "-m", "1", "--poly", "x[1]-x[0]", "--supports", "{(0)}",
         "--derive-bound", "100000"],
        ["enumerate", "-m", "1", "--poly", "x[1]-x[0]", "--box", "1",
         "--derive-bound", "200000"],
    ])
    def test_sample_cap_refused_before_sampling(self, argv):
        # few or no candidates, but over 100000 derivatives: the sample is refused
        proc = run_process(*argv)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: the derivative sample would hold")
        assert proc.stderr.strip().endswith("exceeding the cap of 10000")

    @pytest.mark.parametrize("argv, stdout", [
        (["trop", "-m", "1", "--poly", "x[0]^100000000"], "{(0)}*x1[0]^100000000\n"),
        (["trop", "-m", "1", "--poly", "t1^100000000"], "{(100000000)}\n"),
        (["derive", "-m", "1", "--index", "100000000", "--series", "t1"], "0\n"),
        (["derive", "-m", "1", "--index", "100000000", "--poly", "t1"], "0\n"),
    ])
    def test_large_exponents_and_indices(self, argv, stdout):
        # a power takes O(log n) products, and derivations stop at an exact zero
        proc = run_process(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, stdout, "")

    @pytest.mark.parametrize("argv, estimate", [
        (["-m", "1", "--poly", "x[0]", "--box", "30000"], "2^30001 or more"),
        (["-m", "2", "--poly", "x[0,0]", "--box", "120,120"], "2^14641 or more"),
    ])
    def test_large_boxes_refused_by_the_cap(self, argv, estimate):
        # the estimate takes O(1) or O(max_points) big-int steps, and prints
        # by magnitude, never as a string of thousands of digits
        proc = run_process("enumerate", *argv)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"error: enumeration would visit an estimated {estimate} "
                               "candidate tuples, exceeding the cap of 100000\n")

    @pytest.mark.parametrize("argv, bits", [
        (["-m", "2", "--poly", "x[0,0]", "--box", "100000,100000"], 100001 ** 2),
        (["-m", "1", "--poly", "x[0]", "--box", "10000000000"], 10**10 + 1),
        (["-m", "1", "--poly", "x[0]", "--box", "1000000", "--max-points", "500000"], None),
    ])
    def test_huge_boxes_refused_at_once(self, argv, bits):
        # exponents and partial sums are compared with the cap, so no power
        # of 2^grid is built; the bound printed is a true lower bound
        proc = run_process("enumerate", *argv, timeout=5)
        assert (proc.returncode, proc.stdout) == (2, "")
        head, tail = "error: enumeration would visit an estimated 2^", (
            " or more candidate tuples, exceeding the cap of 100000\n")
        assert proc.stderr.startswith(head) and proc.stderr.endswith(tail)
        k = int(proc.stderr[len(head):-len(tail)])
        assert k == bits if bits is not None else 100 <= k < 10**6

    @pytest.mark.parametrize("argv", [
        ["-m", "1", "--poly", "x[0]", "--box", "10000000"],
        ["-m", "2", "--poly", "x[0,0]", "--box", "100000,100000"],
    ])
    def test_max_points_zero_builds_no_grid(self, argv):
        # the only component is the empty set, whatever the box
        proc = run_process("enumerate", *argv, "--max-points", "0")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "{}\n1 solution(s)\n", "")

    def test_deep_nesting_exit_2_without_traceback(self):
        poly = "(" * 3000 + "x1[0]" + ")" * 3000
        proc = run_process("trop", "-m", "1", "--poly", poly, timeout=60)
        assert proc.returncode == 2
        assert "nested deeper" in proc.stderr
        assert "Traceback" not in proc.stderr

"""Seeded argv fuzzing of `cli.main`: every input ends in exit code 0, 1 or 2.

Arguments are drawn from DSL tokens, empty strings and small integers.  Digits
are kept single and apart, so exponents and derivative indices stay at 3 or
less: large powers and indices have no cap yet and would only make the run
slow.  `--derive-bound` also draws 10^5 and 10^6.  Few cases drawn from
tokens get past parsing, so some cases are well-formed arity-1 `check` and
`enumerate` requests with a drawn bound, box and cap: a bound of 10^5 or more
is refused by the derivative-sample cap, and the box 30 (2^31 candidate sets)
or a drawn `--max-candidates` by the candidate cap, each before any
derivation.  At least one case must end in each refusal.
"""

import contextlib
import io
import random

from tropdiff.cli import main

DIGITS = ("0", "1", "2", "3")
TOKENS = DIGITS + (
    "t", "t1", "t2", "t3", "x", "x1", "x2", "x[0]", "x1[1,0]", "x2[0,1]",
    "sqrtd", "cone", "+", "-", "*", "/", "^", "(", ")", "[", "]", "{", "}",
    ",", ";", " ",
)
# mostly 1 and 2, so that many cases get past the arity and variable checks
SMALL_INTS = ("1", "1", "1", "2", "2", "3", "0", "-1")
# derivative bounds: mostly small, sometimes far beyond the sample cap
BOUNDS = SMALL_INTS + ("100000", "1000000")

POLYS = ("x[1]^2 - 4*x[0]", "2*t1*x1[1] - x1[0]", "x[0]", "x[1] - x[0]",
         "x1[0] + x2[1]", "x1[1,0]*x1[0,1] - x1[0,0]")
SETS = ("{(0)}", "{(1)}", "{(0),(1)}", "cone{(1)}", "{(0)};{(1)}", "{}",
        "{(1,0),(0,1)}", "{(2,0),(1,1)} + cone{(0,2)}")
SERIES = ("t1^2 + 1", "1;t", "sqrtd*t1 - 1/2", "t1*t2;t2")
POINTS = ("1", "(2)", "0", "(1,0)", "1,1")

COMMON = {"--arity": "int", "--nvars": "int", "--sqrt": "int", "--format": "format"}
# command -> (groups of required options, of which one option per group is
#             drawn in most cases; options it may take)
COMMANDS = {
    "vertices": ([{"--set": "set"}], {"--arity": "int", "--format": "format"}),
    "trop": ([{"--arity": "int"}, {"--poly": "poly"}], COMMON),
    "eval": ([{"--arity": "int"}, {"--poly": "poly"}, {"--at": "series"}], COMMON),
    "derive": ([{"--arity": "int"}, {"--index": "point"},
                {"--poly": "poly", "--series": "series"}], COMMON),
    "check": ([{"--arity": "int"}, {"--supports": "set"},
               {"--poly": "poly", "--system": "file"}],
              {**COMMON, "--poly": "poly", "--derive-bound": "bound"}),
    "enumerate": ([{"--arity": "int"}, {"--box": "point"},
                   {"--poly": "poly", "--system": "file"}],
                  {**COMMON, "--poly": "poly", "--derive-bound": "bound",
                   "--max-points": "int", "--max-candidates": "int"}),
    "examples": ([], {"--format": "format"}),
}
# `examples` replays four fixed fixtures; drawing it less keeps the run short
WEIGHTS = {"examples": 1}

# well-formed arity-1 requests, completed by a drawn bound and, for
# `enumerate`, a drawn box and optional caps
WELL_FORMED = {
    "check": ["check", "-m", "1", "--poly", "x[1] - x[0]", "--supports", "{(0)}"],
    "enumerate": ["enumerate", "-m", "1", "--poly", "x[1] - x[0]"],
}
BOXES = ("1", "2", "30")
WELL_FORMED_SHARE = 0.1
SAMPLE_CAP = "error: the derivative sample would hold"
CANDIDATE_CAP = "error: enumeration would visit"


def dsl(rng: random.Random) -> str:
    out: list[str] = []
    for _ in range(rng.randint(0, 8)):
        tok = rng.choice(TOKENS)
        if out and out[-1][-1:].isdigit() and tok[:1].isdigit():
            out.append(" ")
        out.append(tok)
    return "".join(out)


def value(rng: random.Random, kind: str, files: tuple[str, ...]) -> str:
    roll = rng.random()
    if roll < 0.05:
        return ""
    if kind in ("int", "bound"):
        choices = SMALL_INTS if kind == "int" else BOUNDS
        return rng.choice(choices) if roll < 0.95 else dsl(rng)
    if kind == "format":
        return rng.choice(("text", "json", "text", "json", "xml"))
    if kind == "file":
        return rng.choice(files)
    fixtures = {"poly": POLYS, "series": SERIES, "set": SETS, "point": POINTS}[kind]
    return rng.choice(fixtures) if roll < 0.75 else dsl(rng)


def well_formed_case(rng: random.Random) -> list[str]:
    command = rng.choice(sorted(WELL_FORMED))
    argv = WELL_FORMED[command] + ["--derive-bound", rng.choice(BOUNDS)]
    if command == "enumerate":
        argv += ["--box", rng.choice(BOXES)]
        for option in ("--max-points", "--max-candidates"):
            if rng.random() < 0.3:
                argv += [option, rng.choice(SMALL_INTS)]
    return argv


def argv_case(rng: random.Random, files: tuple[str, ...]) -> list[str]:
    if rng.random() < WELL_FORMED_SHARE:
        return well_formed_case(rng)
    names = sorted(COMMANDS)
    command = rng.choices(names, [WEIGHTS.get(c, 6) for c in names])[0]
    needed, optional = COMMANDS[command]
    argv = [command]
    for group in needed:
        if rng.random() < 0.95:
            option = rng.choice(sorted(group))
            argv += [option, value(rng, group[option], files)]
    for option, kind in optional.items():
        if rng.random() < 0.2:
            argv += [option, value(rng, kind, files)]
    return argv


def test_every_argv_exits_0_1_or_2(tmp_path):
    system = tmp_path / "system.txt"
    system.write_text("# two polynomials\nx[1]^2 - 4*x[0]\nx[0]\n", encoding="utf-8")
    files = (str(system), str(tmp_path / "missing.txt"), "")
    rng = random.Random(61)
    codes = set()
    refused = {SAMPLE_CAP: 0, CANDIDATE_CAP: 0}
    for _ in range(1000):
        argv = argv_case(rng, files)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        assert code in (0, 1, 2), (argv, code, err.getvalue())
        assert "internal error" not in err.getvalue(), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv
        codes.add(code)
        for message in refused:
            refused[message] += err.getvalue().startswith(message)
    assert codes == {0, 1, 2}
    assert all(refused.values()), refused

"""The README's examples, run as written.

Each `$ tropdiff ...` example (with `\\` continuations joined) is run through
`cli.main`, and its stdout must match the lines below it byte for byte.  A
trailing `# exit code N` on an output line gives the exit code, else it is 0.
The Library snippet is executed.
"""

import re
import shlex
from pathlib import Path

import pytest

from tropdiff.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
EXIT_CODE = re.compile(r"\s+# exit code (\d+)$")


def cli_examples(text: str) -> list[tuple[list[str], str, int]]:
    """(argv, stdout, exit code) of each `$ tropdiff` example in `text`."""
    examples = []
    lines = iter(text.splitlines())
    for line in lines:
        if not line.startswith("$ tropdiff "):
            continue
        command = line
        while command.endswith("\\"):
            command = command[:-1] + next(lines)
        out, code = [], 0
        for line in lines:
            if not line or line.startswith("```"):
                break
            m = EXIT_CODE.search(line)
            if m:
                code, line = int(m.group(1)), line[:m.start()]
            out.append(line + "\n")
        examples.append((shlex.split(command)[2:], "".join(out), code))
    return examples


EXAMPLES = cli_examples(README)


def test_every_subcommand_with_arguments_has_an_example():
    assert {argv[0] for argv, _, _ in EXAMPLES} == {
        "vertices", "trop", "eval", "derive", "check", "enumerate"}


@pytest.mark.parametrize("argv, stdout, code", EXAMPLES,
                         ids=[" ".join(argv[:3]) for argv, _, _ in EXAMPLES])
def test_cli_example(capsys, argv, stdout, code):
    assert main(argv) == code
    out = capsys.readouterr()
    assert (out.out, out.err) == (stdout, "")


def test_library_snippet():
    snippet = re.search(r"## Library\n\n```python\n(.*?)```", README, re.S).group(1)
    exec(compile(snippet, "README.md", "exec"), {})

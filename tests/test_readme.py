"""The README's examples run as printed.

Each ``$ stackzeta ...`` line under "Command line" is run in process through
``cli.main``; its stdout must be the text that follows it, up to the next
blank line, with the timing of a ``verify`` line masked.  The "Library quick
tour" block is executed as is.
"""

import re
import shlex
from pathlib import Path

import pytest

from stackzeta.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
TIMING = re.compile(r"\(\d+(\.\d+)? ms\)")


def section(title: str) -> str:
    """The text of a ``## title`` section, up to the next ``## `` heading."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end >= 0 else len(README)]


def fenced(text: str, lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)


def cli_examples() -> list[tuple[str, str]]:
    """(command line, expected stdout) for each ``$ stackzeta`` example."""
    examples = []
    for block in fenced(section("Command line"), "sh"):
        for chunk in block.strip().split("\n\n"):
            command, *output = chunk.split("\n")
            if command.startswith("$ stackzeta "):
                examples.append((command[len("$ stackzeta ") :], "".join(f"{line}\n" for line in output)))
    return examples


EXAMPLES = cli_examples()


def test_the_readme_has_cli_examples():
    commands = [command.split()[0] for command, _ in EXAMPLES]
    assert commands == ["zeta", "sym", "power", "effective", "hd", "hd", "eval", "verify"]


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_cli_example_prints_what_the_readme_shows(command, expected, capsys):
    assert main(shlex.split(command)) == 0
    out, err = capsys.readouterr()
    assert (TIMING.sub("(… ms)", out), err) == (TIMING.sub("(… ms)", expected), "")


def test_library_quick_tour_runs():
    (block,) = fenced(section("Library quick tour"), "python")
    exec(compile(block, "README.md", "exec"), {})

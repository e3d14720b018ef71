"""The CLI replayed in process against recorded and documented output.

cli_transcript.json holds argv lists with the stdout, stderr and exit
status that cli.main gave for them: neighbor steps in both families and
directions (interior terms, 1/2, endpoints, non-members, m = 1, 2 and 6,
m <= 0), index, count and map on members, absent fractions and bounds,
small gen runs of every family and format, and a small verify sweep.
Usage errors are left out: argparse owns their wording, and
test_cli.TestUsage covers them.  Any change to a byte of that output
fails here, and so does a case that builds a sequence.

The README examples run the same way: each `$ fareylattice ...` line,
with an optional `| head -N`, must print the lines shown under it.
"""

import json
import shlex
from pathlib import Path

import pytest

from fareylattice.cli import main

HERE = Path(__file__).parent
TRANSCRIPT = json.loads((HERE / "cli_transcript.json").read_text())


@pytest.mark.parametrize("case", TRANSCRIPT, ids=[" ".join(c["argv"]) for c in TRANSCRIPT])
def test_transcript(capsys, no_sequence_built, case):
    status = main(case["argv"])
    captured = capsys.readouterr()
    assert (captured.out, captured.err, status) == (case["stdout"], case["stderr"], case["status"])


def _readme_examples() -> list[tuple[str, list[str]]]:
    """(command, the lines shown under it) for each `$ fareylattice` line."""
    examples: list[tuple[str, list[str]]] = []
    fenced, shown = False, None
    for line in (HERE.parent / "README.md").read_text().splitlines():
        if line.startswith("```"):
            fenced, shown = not fenced, None
        elif fenced and line.startswith("$ "):
            shown = []
            examples.append((line[2:], shown))
        elif shown is not None:
            shown.append(line)
    return [(c, s) for c, s in examples if c.startswith("fareylattice ")]


README_EXAMPLES = _readme_examples()


def test_readme_has_examples():
    assert len(README_EXAMPLES) >= 5


@pytest.mark.parametrize("command, shown", README_EXAMPLES, ids=[c for c, _ in README_EXAMPLES])
def test_readme_example(capsys, command, shown):
    words = shlex.split(command)
    head = None
    if "|" in words:
        i = words.index("|")
        assert words[i + 1] == "head" and words[i + 2].startswith("-"), command
        head = int(words[i + 2][1:])
        words = words[:i]
    assert main(words[1:]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[:head] == shown

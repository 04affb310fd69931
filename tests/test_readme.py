"""The CLI examples of README.md run, and the outputs it quotes are exact."""

import shlex
from pathlib import Path

import pytest

from quasinv.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
# subcommands whose comment lines in the README are their exact stdout
QUOTED = ("poincare", "hilbert", "dim")


def cli_examples():
    """(argv, comment lines that follow) for every ``quasinv`` command of the
    README's CLI block, with backslash continuations joined."""
    text = README.read_text().split("## CLI", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    pending = ""
    for line in block.splitlines():
        if pending or line.startswith("quasinv "):
            pending += line.rstrip("\\").strip() + " "
            if not line.endswith("\\"):
                examples.append((shlex.split(pending)[1:], []))
                pending = ""
        elif line.startswith("# ") and examples:
            examples[-1][1].append(line[2:])
    return examples


EXAMPLES = cli_examples()


def test_readme_has_cli_examples():
    commands = {argv[0] for argv, _ in EXAMPLES}
    assert {"poincare", "hilbert", "dim", "check", "generators", "verify",
            "freeness"} <= commands


@pytest.mark.parametrize("argv, comments", EXAMPLES,
                         ids=[" ".join(argv[:3]) for argv, _ in EXAMPLES])
def test_readme_example_runs(capsys, argv, comments):
    assert main(argv) == 0
    out = capsys.readouterr().out
    if argv[0] in QUOTED:
        assert out.splitlines() == comments

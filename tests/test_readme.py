"""The CLI examples of README.md run, and the outputs it quotes are exact."""

import shlex

import pytest

from quasinv.cli import main
from reference import README, readme_library_example

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


def test_readme_library_example_runs():
    # it imports from the package root, so it also guards the exports
    code = readme_library_example()
    assert code.startswith("from quasinv import (")
    # optimize=0 keeps its asserts under python -O too
    exec(compile(code, str(README), "exec", optimize=0), {})

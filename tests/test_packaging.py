"""The ``test`` extra of pyproject.toml names every package the tests use.

``pip install -e '.[test]' --no-build-isolation`` must be enough to run the
suite, so every top-level module that a test file imports is the standard
library, ``quasinv`` itself, a file next to the test, or listed in the
extra.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")   # standard library from 3.11

ROOT = Path(__file__).resolve().parents[1]
TEST_FILES = sorted((ROOT / "tests").glob("*.py")) + \
    [ROOT / "perfbench" / "test_smoke.py"]


def _test_extra() -> set[str]:
    with (ROOT / "pyproject.toml").open("rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    # a requirement such as "pytest>=7" starts with the distribution name
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in extra}


def _unlisted(source: str, siblings: set[str], extra: set[str]) -> list[str]:
    """Top-level modules imported by ``source`` that nothing provides."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return [name for name in names
            if name not in sys.stdlib_module_names and name != "quasinv"
            and name not in siblings and name.lower() not in extra]


def test_test_extra_lists_every_third_party_import():
    extra = _test_extra()
    assert {"pytest", "hypothesis", "sympy"} <= extra
    missing = []
    for path in TEST_FILES:
        siblings = {p.stem for p in path.parent.glob("*.py")}
        missing += [f"{path.relative_to(ROOT)}: {name}"
                    for name in _unlisted(path.read_text(), siblings, extra)]
    assert not missing, missing


def test_unlisted_imports_are_detected():
    snippet = ("import json\nimport numpy.linalg\nfrom quasinv import cli\n"
               "from . import local\nfrom tracer import Tracer\n"
               "from hypothesis import given\n")
    assert _unlisted(snippet, {"tracer"}, {"hypothesis"}) == ["numpy"]

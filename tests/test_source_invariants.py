"""Source-level invariants of the library, checked on its syntax trees.

The library signals broken internal invariants with typed ``QuasinvError``s,
never with ``assert``, which ``python -O`` strips.  It computes in exact
arithmetic only, so no float literal and no ``float(...)`` call may appear.
"""

import ast
from pathlib import Path

import quasinv

SOURCES = sorted(Path(quasinv.__file__).parent.glob("*.py"))


def _offences(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Constant) and type(node.value) is float:
            yield node.lineno, f"float literal {node.value!r}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "float(...) call"


def test_library_has_no_assert_and_no_float():
    assert len(SOURCES) > 5
    found = [f"{path.name}:{line}: {what}"
             for path in SOURCES
             for line, what in _offences(ast.parse(path.read_text(),
                                                   filename=str(path)))]
    assert not found, "\n".join(found)


def test_offences_are_detected():
    snippet = "assert x\ny = 0.5\nz = float(3)\nw = 2\n"
    assert [line for line, _ in _offences(ast.parse(snippet))] == [1, 2, 3]

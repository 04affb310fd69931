"""Source-level invariants of the library, checked on its syntax trees.

The library signals broken internal invariants with typed ``QuasinvError``s,
never with ``assert``, which ``python -O`` strips.  It computes in exact
arithmetic only, so no float literal and no ``float(...)`` call may appear.
The benchmark's tracer wraps library names from outside, so every name it
wraps or patches must keep existing.
"""

import ast
import importlib
import importlib.util
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


def _tracer():
    """perfbench/tracer.py, loaded by path without touching the file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_wraps_exists():
    # ``cli`` keeps ``solve_qi`` bound for this reason although it no longer
    # calls it: the tracer patches every CLI_STAGES name on the module
    tracer = _tracer()
    modules = {name: importlib.import_module(f"quasinv.{name}")
               for name in tracer.MODULES}
    missing = [f"{mod}.{attr}" for mod, attr, _spans, _note
               in tracer.FUNCTIONS if not callable(getattr(modules[mod],
                                                           attr, None))]
    missing += [f"{mod}.{cls}.{method}"
                for mod, cls, methods, _name, _spans in tracer.METHODS
                for method in methods
                if not callable(getattr(getattr(modules[mod], cls, None),
                                        method, None))]
    missing += [f"cli.{attr}" for attr in tracer.CLI_STAGES
                if not callable(getattr(modules["cli"], attr, None))]
    if not hasattr(modules["errors"], "NotDivisible"):
        missing.append("errors.NotDivisible")
    assert not missing, missing

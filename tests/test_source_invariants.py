"""Source-level invariants of the library, checked on its syntax trees.

The library signals broken internal invariants with typed ``QuasinvError``s,
never with ``assert``, which ``python -O`` strips.  It computes in exact
arithmetic only, so no float literal and no ``float(...)`` call may appear.
Its records are ``NamedTuple``s: importing ``dataclasses`` would load
``inspect`` with it and add its cost to every run's start-up.
The benchmark's tracer wraps library names from outside, and its workloads
and reference recorder read names off the package, so every such name must
keep existing.
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
        elif isinstance(node, ast.Import) and any(
                alias.name == "dataclasses" for alias in node.names):
            yield node.lineno, "dataclasses import"
        elif isinstance(node, ast.ImportFrom) and \
                node.module == "dataclasses":
            yield node.lineno, "dataclasses import"


def test_library_has_no_assert_and_no_float():
    assert len(SOURCES) > 5
    found = [f"{path.name}:{line}: {what}"
             for path in SOURCES
             for line, what in _offences(ast.parse(path.read_text(),
                                                   filename=str(path)))]
    assert not found, "\n".join(found)


def test_offences_are_detected():
    snippet = ("assert x\ny = 0.5\nz = float(3)\nw = 2\n"
               "import dataclasses\nfrom dataclasses import dataclass\n"
               "import typing, dataclasses as dc\n"
               "from typing import NamedTuple\n")
    assert sorted(line for line, _ in _offences(ast.parse(snippet))) == \
        [1, 2, 3, 5, 6, 7]


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer():
    """perfbench/tracer.py, loaded by path without touching the file."""
    path = PERFBENCH / "tracer.py"
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


def _package_names_read(path):
    """Every ``q.<name>`` that a perfbench script reads, ``q`` being the
    quasinv package there."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "q"}


def test_every_name_the_workloads_and_the_recorder_read_exists():
    names = {script: _package_names_read(PERFBENCH / script)
             for script in ("workloads.py", "record.py")}
    assert "quasi_basis" in names["record.py"]
    assert "freeness_check" in names["workloads.py"]
    missing = [f"{script}: q.{name}" for script, read in names.items()
               for name in sorted(read) if not hasattr(quasinv, name)]
    assert not missing, missing

"""Source-level invariants of the library, checked on its syntax trees.

The library signals broken internal invariants with typed ``QuasinvError``s,
never with ``assert``, which ``python -O`` strips.  It computes in exact
arithmetic only, so no float literal and no ``float(...)`` call may appear.
Its records are ``NamedTuple``s: importing ``dataclasses`` would load
``inspect`` with it and add its cost to every run's start-up.
The benchmark's tracer wraps library names from outside, and its workloads
and reference recorder read names off the package, so every such name must
keep existing.  The package root exports only what those scripts, the CLI,
the README example and the CI workflow's inline script use, and the records
the library returns; ``dihedral`` depends on no other module of the package,
``calogero``, whose operator takes rational polynomials only, imports
nothing from ``scalars``, and ``quasi``, which prints its residues from
their integer vectors, imports no ``CycloElem``; ``modstruct``, whose chain
rows are the integer terms of ``quasi.component_terms``, uses neither
``lcm`` nor ``coefficient_row``.  ``bipoly.rational_only``
is the one refusal of cyclotomic input: outside ``bipoly`` and ``scalars``
no module imports or raises ``ScalarKindMismatch`` or reads an ``order``
attribute.
"""

import ast
import importlib
import importlib.util
import textwrap
from pathlib import Path

import quasinv
from reference import readme_library_example

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


ROOT = PERFBENCH.parent
PACKAGE = Path(quasinv.__file__).parent


def _package_imports(tree):
    """The import statements of ``tree`` that import from the package:
    relative ones, and those of ``quasinv`` or its modules."""
    def of_package(name):
        return name == "quasinv" or name.startswith("quasinv.")
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or of_package(node.module or "")):
            yield node
        elif isinstance(node, ast.Import) and any(
                of_package(alias.name) for alias in node.names):
            yield node


def _imported_names(tree):
    """The names that the ``from ... import`` statements of ``tree`` bind
    from the package."""
    return {alias.asname or alias.name for node in _package_imports(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _workflow_scripts():
    """The inline Python scripts (``<<'EOF'`` heredocs) of the CI workflow."""
    lines = (ROOT / ".github" / "workflows" / "tier1.yml").read_text() \
        .splitlines()
    scripts, current = [], None
    for line in lines:
        if current is not None:
            if line.strip() == "EOF":
                scripts.append(textwrap.dedent("\n".join(current)))
                current = None
            else:
                current.append(line)
        elif line.rstrip().endswith("<<'EOF'"):
            current = []
    return scripts


def _record_classes(tree):
    """The classes of ``tree`` built on ``NamedTuple``, directly or through
    a functional ``NamedTuple(...)`` base."""
    def is_named_tuple(base):
        if isinstance(base, ast.Call):
            base = base.func
        return isinstance(base, ast.Name) and base.id == "NamedTuple"
    return {node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and any(map(is_named_tuple, node.bases))}


def _allowed_exports():
    """The names that the package root may export: those the perfbench
    scripts read off the package, the CLI imports, the README example and
    the workflow's inline scripts import from the package, the library's
    records, and ``BiPoly``."""
    allowed = {"BiPoly"}
    for script in ("workloads.py", "record.py"):
        allowed |= _package_names_read(PERFBENCH / script)
    allowed |= _imported_names(ast.parse((PACKAGE / "cli.py").read_text()))
    for code in [readme_library_example(), *_workflow_scripts()]:
        allowed |= _imported_names(ast.parse(code))
    for path in SOURCES:
        allowed |= _record_classes(ast.parse(path.read_text()))
    return allowed


def test_the_package_exports_only_what_its_users_import():
    assert len(_workflow_scripts()) >= 1
    assert {"DihedralSystem", "full_basis", "quasi_dimension",
            "CoeffVector", "GeneratorSet", "BiPoly"} <= _allowed_exports()
    # the root binds exactly the names it exports
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    assert _imported_names(init) == set(quasinv.__all__)
    extra = sorted(set(quasinv.__all__) - _allowed_exports())
    assert not extra, extra


def test_dihedral_imports_no_other_package_module():
    tree = ast.parse((PACKAGE / "dihedral.py").read_text())
    found = [node.lineno for node in _package_imports(tree)]
    assert not found, found
    # the check sees every spelling, and not the standard library
    snippet = ("from .bipoly import BiPoly\nimport quasinv.scalars\n"
               "from quasinv import errors\nfrom typing import NamedTuple\n")
    assert [node.lineno for node in _package_imports(ast.parse(snippet))] \
        == [1, 2, 3]


def _imported_modules(tree):
    """The package modules that the imports of ``tree`` name, in every
    spelling: ``from .scalars import x``, ``from . import scalars``,
    ``import quasinv.scalars`` and ``from quasinv import scalars``."""
    modules = set()
    for node in _package_imports(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name.rpartition(".")[2] for alias in node.names}
        elif node.module in (None, "quasinv"):
            modules |= {alias.name for alias in node.names}
        else:
            modules.add(node.module.rpartition(".")[2])
    return modules


def test_calogero_imports_nothing_from_scalars():
    tree = ast.parse((PACKAGE / "calogero.py").read_text())
    assert "scalars" not in _imported_modules(tree)
    assert {"quasi", "bipoly"} <= _imported_modules(tree)
    for snippet in ("from .scalars import CycloElem\n",
                    "from . import scalars\n", "import quasinv.scalars\n",
                    "from quasinv import scalars\n",
                    "from quasinv.scalars import euler_phi\n"):
        assert _imported_modules(ast.parse(snippet)) == {"scalars"}, snippet


def _uses(tree, name):
    """The lines of ``tree`` that import ``name``, under any alias, or
    name it, bare or as an attribute such as ``scalars.CycloElem``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(
                alias.name == name for alias in node.names):
            yield node.lineno
        elif (isinstance(node, ast.Attribute) and node.attr == name or
              isinstance(node, ast.Name) and node.id == name):
            yield node.lineno


def test_quasi_imports_no_cyclo_elem():
    # the per-line check prints its integer residues with residue_text
    tree = ast.parse((PACKAGE / "quasi.py").read_text())
    assert list(_uses(tree, "CycloElem")) == []
    assert "scalars" in _imported_modules(tree)
    for snippet in ("from .scalars import CycloElem\n",
                    "from .scalars import nullspace, CycloElem as C\n",
                    "from . import scalars\nscalars.CycloElem(4, [1])\n",
                    "import quasinv.scalars\nquasinv.scalars.CycloElem\n"):
        assert list(_uses(ast.parse(snippet), "CycloElem")), snippet


def test_modstruct_clears_rows_only_through_component_terms():
    # its chain rows are the integer terms of quasi.component_terms, so it
    # needs neither a dense coefficient row nor an lcm of its own
    tree = ast.parse((PACKAGE / "modstruct.py").read_text())
    assert list(_uses(tree, "component_terms"))
    for name in ("lcm", "coefficient_row"):
        assert list(_uses(tree, name)) == [], name
    for snippet in ("from math import gcd, lcm\n", "import math\nmath.lcm\n",
                    "from .quasi import coefficient_row as row\n",
                    "from . import quasi\nquasi.coefficient_row(p, 2)\n"):
        tree = ast.parse(snippet)
        assert list(_uses(tree, "lcm")) or \
            list(_uses(tree, "coefficient_row")), snippet


def _scalar_kind_tests(tree):
    """The places in ``tree`` that import or raise ``ScalarKindMismatch``
    or read an ``order`` attribute: a test of a coefficient's field."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(
                alias.name == "ScalarKindMismatch" for alias in node.names):
            yield node.lineno, "ScalarKindMismatch import"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else \
                getattr(exc, "id", None)
            if name == "ScalarKindMismatch":
                yield node.lineno, "ScalarKindMismatch raised"
        elif isinstance(node, ast.Attribute) and node.attr == "order" \
                and isinstance(node.ctx, ast.Load):
            yield node.lineno, ".order read"


def test_rational_only_is_the_one_refusal_of_cyclotomic_input():
    found = [f"{path.name}:{line}: {what}"
             for path in SOURCES
             if path.name not in ("bipoly.py", "scalars.py")
             for line, what in _scalar_kind_tests(ast.parse(path.read_text()))]
    assert not found, "\n".join(found)
    # the check sees every spelling, and not a keyword or a docstring
    snippet = ("from .errors import ScalarKindMismatch\n"
               "raise ScalarKindMismatch('x')\n"
               "raise errors.ScalarKindMismatch\n"
               "if p.order is not None: pass\n"
               "y = f(p).order\n"
               "v = Violation(order=1)\n"
               "'raise ScalarKindMismatch on p.order'\n"
               "raise ValueError('x')\n")
    found = _scalar_kind_tests(ast.parse(snippet))
    assert sorted(line for line, _ in found) == [1, 2, 3, 4, 5]

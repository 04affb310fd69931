"""The value records of the package are immutable ``NamedTuple``s.

Each keeps the ``repr`` a dataclass gave it, value equality and hashing,
read-only fields and a working ``_replace``; the two records that validate
their fields do so on every construction, ``_replace`` included.  Importing
the CLI loads neither ``dataclasses`` nor ``inspect``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import quasinv
from quasinv import (BiPoly, CoeffVector, DihedralSystem, apply_L1,
                     check_per_line, freeness_check, full_basis,
                     poincare_for_system, verify_L1_kernel)
from quasinv.generators import build_matrix_A
from quasinv.quasi import QuasiReport, Violation

SYS = DihedralSystem(4, 1, 0)
RECORDS = ["DihedralSystem", "QuasiReport", "Violation",
           "CoeffVector", "L1Result", "KernelReport", "GeneratorSet",
           "GeneratorEntry", "MatrixA", "FreenessReport", "DegreeRow",
           "SeriesPoly"]
# records with a BiPoly field, which is unhashable
UNHASHABLE = {"L1Result", "GeneratorSet", "GeneratorEntry"}


def _records():
    """A fresh instance of every record type, by name, built by the library
    where it builds one."""
    gens = full_basis(SYS)
    failing = check_per_line(SYS, BiPoly.monomial(1, 0))
    freeness = freeness_check(SYS, gens, 4)
    return {"DihedralSystem": DihedralSystem(4, 1, 0),
            "QuasiReport": failing,
            "Violation": failing.violations[0],
            "CoeffVector": CoeffVector(2, (1, 0, 1)),
            "L1Result": apply_L1(SYS, BiPoly.constant(1)),
            "KernelReport": verify_L1_kernel(SYS, gens),
            "GeneratorSet": gens,
            "GeneratorEntry": gens.entries[0],
            "MatrixA": build_matrix_A(SYS, 1),
            "FreenessReport": freeness,
            "DegreeRow": freeness.rows[0],
            "SeriesPoly": poincare_for_system(SYS)}


def test_repr_is_the_field_form():
    assert repr(SYS) == "DihedralSystem(mirrors=4, mult_even=1, mult_odd=0)"
    assert repr(Violation(2, 3, 5, "zb^2")) == \
        "Violation(line=2, order=3, degree=5, residual='zb^2')"
    assert repr(QuasiReport(True, ())) == "QuasiReport(ok=True, violations=())"


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_values_with_read_only_fields(name):
    record, twin = _records()[name], _records()[name]
    assert type(record).__name__ == name
    assert twin == record and twin is not record
    if name not in UNHASHABLE:
        assert hash(twin) == hash(record)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", RECORDS)
def test_replace_keeps_the_type(name):
    record = _records()[name]
    for field in record._fields:
        copy = record._replace(**{field: getattr(record, field)})
        assert type(copy) is type(record) and copy == record


def test_replace_makes_a_new_record():
    assert SYS._replace(mult_odd=2) == DihedralSystem(4, 1, 2)
    assert SYS == DihedralSystem(4, 1, 0)
    vector = CoeffVector(2, (1, 0, 1))
    assert vector._replace(entries=(0, 3, 0)).to_poly() == \
        BiPoly.monomial(1, 1).scale(3)


def test_replace_and_make_validate():
    with pytest.raises(ValueError):
        SYS._replace(mirrors=0)
    with pytest.raises(ValueError):
        SYS._replace(mult_even=True)
    with pytest.raises(ValueError):
        DihedralSystem._make((5, 1, 2))
    with pytest.raises(ValueError):
        CoeffVector(2, (1, 0, 1))._replace(degree=3)
    with pytest.raises(ValueError):
        CoeffVector._make((0, ()))


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = str(Path(quasinv.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, quasinv.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

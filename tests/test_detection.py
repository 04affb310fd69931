"""Which ``verify`` check catches which fault: one matrix of faults by
arrangements.  Each cell runs ``quasinv verify`` with one fault in place and
asserts the exact sets of failing and of skipped checks, and the generators
that the failing generator checks name.

A fault is either a changed basis, handed to ``cli._cmd_verify`` in place of
``full_basis``, or one patched library name.  A cell exists where the fault
has something to act on: the faults on ``q1_i`` and on the condition rows
need the normal-form generators, which M = 1 and M = 2 do not have, and
``sigma1 * q1`` needs the q1 of an even arrangement.  The outcome of a fault
is the same at every arrangement, except that M = 2 also skips the two
checks that read the normal-form generators.
"""

import json
from fractions import Fraction

import pytest

from quasinv import cli, generators, quasi
from quasinv.bipoly import BiPoly
from quasinv.cli import main
from quasinv.dihedral import DihedralSystem
from quasinv.generators import full_basis, valid_indices
from quasinv.quasi import coefficient_row
from quasinv.scalars import exact_rank
from reference import kernel_of_L1_in_Q

ARRANGEMENTS = [DihedralSystem(4, 2, 1), DihedralSystem(8, 2, 1),
                DihedralSystem(6, 1, 2), DihedralSystem(12, 2, 2),
                DihedralSystem.uniform(7, 2), DihedralSystem(2, 1, 3)]

# the checks that name the generators they reject when they fail
NAMING = ("basis_quasi_invariance", "dual_path_generators", "l1_kernel",
          "uniqueness")


def _changed_basis(monkeypatch, system, change):
    """Hand verify the basis of ``system`` with ``change(polys)`` applied:
    ``polys`` maps each generator name to its polynomial, and the change
    returns the new polynomials by name.  Returns the changed names, in
    basis order."""
    gens = full_basis(system)
    new = change({e.name: e.poly for e in gens.entries})
    bad = gens._replace(entries=tuple(
        e._replace(poly=new[e.name], degree=new[e.name].degree())
        if e.name in new else e for e in gens.entries))
    monkeypatch.setattr(cli, "full_basis", lambda *args, **kwargs: bad)
    return [e.name for e in gens.entries if e.name in new]


def q1_scaled(monkeypatch, system):
    return _changed_basis(monkeypatch, system,
                          lambda g: {"q1_1": g["q1_1"].scale(2)})


def q1_plus_q2(monkeypatch, system):
    return _changed_basis(monkeypatch, system,
                          lambda g: {"q1_1": g["q1_1"] + g["q2_1"]})


def q3_plus_h(monkeypatch, system):
    # h in Q and in the operator's kernel, of the degree of q3, and not a
    # multiple of it
    def change(g):
        q3 = g["q3"]
        D = q3.degree()
        h = next(h for h in kernel_of_L1_in_Q(system, D)
                 if exact_rank([coefficient_row(q3, D),
                                coefficient_row(h, D)]) == 2)
        return {"q3": q3 + h}
    return _changed_basis(monkeypatch, system, change)


def q3_is_sigma1_q1(monkeypatch, system):
    return _changed_basis(monkeypatch, system, lambda g: {
        "q3": BiPoly.monomial(1, 1) * g["q1"]})


def q1_coefficient_plus_1(monkeypatch, system):
    # the coefficient of z^(D - P) zb^P, a column of the support ansatz
    def change(g):
        q1 = g["q1_1"]
        D, P = q1.degree(), system.period
        return {"q1_1": q1 + BiPoly.monomial(D - P, P)}
    return _changed_basis(monkeypatch, system, change)


def q1_term_outside_q(monkeypatch, system):
    # 7 z^(D-1) zb, off the support ansatz
    def change(g):
        q1 = g["q1_1"]
        wrong = BiPoly.monomial(q1.degree() - 1, 1).scale(Fraction(7))
        return {"q1_1": q1 + wrong}
    return _changed_basis(monkeypatch, system, change)


def shared_condition_row(monkeypatch, system):
    # one scaled entry of the condition rows: the solve and determinant
    # routes read the same rows, so they agree on wrong polynomials, and
    # every q1_i is wrong, with its mirror image q2_i; the kernel route
    # reads neither
    wrong = [e.name for e in full_basis(system).entries if e.i is not None]
    original = generators._condition_rows

    def scaled(system, i):
        rows = original(system, i)
        return [(2 * rows[0][0], *rows[0][1:]), *rows[1:]]

    monkeypatch.setattr(generators, "_condition_rows", scaled)
    return wrong


def grouped_sum_zero(monkeypatch, system):
    # the grouped checker passes everything: the verdicts differ
    monkeypatch.setattr(quasi, "_class_sum", lambda *args: 0)
    return []


def per_line_blind_to_order_one(monkeypatch, system):
    # the verdicts agree, the first failing levels do not
    original = quasi.line_derivative_coefficient
    monkeypatch.setattr(quasi, "line_derivative_coefficient",
                        lambda k, a, b: 0 if k == 1 else original(k, a, b))
    return []


OUTSIDE_Q = ({"basis_quasi_invariance", "dual_path_generators", "l1_kernel",
              "uniqueness", "freeness"}, {"ideal_complement"})
# fault: (failing checks, skipped checks)
EXPECTED = {
    q1_scaled: ({"dual_path_generators", "uniqueness"}, set()),
    q1_plus_q2: ({"dual_path_generators", "uniqueness"}, set()),
    # the blind spot: every check passes
    q3_plus_h: (set(), set()),
    q3_is_sigma1_q1: ({"degree_table", "l1_kernel", "freeness",
                       "ideal_complement"}, set()),
    q1_coefficient_plus_1: OUTSIDE_Q,
    q1_term_outside_q: OUTSIDE_Q,
    # dual_path_generators passes: both of its routes read the rows
    shared_condition_row: ({"basis_quasi_invariance", "l1_kernel",
                            "uniqueness", "freeness"}, {"ideal_complement"}),
    grouped_sum_zero: ({"checker_agreement"}, set()),
    per_line_blind_to_order_one: ({"checker_agreement"}, set()),
}
NEEDS_NORMAL_FORM = {q1_scaled, q1_plus_q2, q1_coefficient_plus_1,
                     q1_term_outside_q, shared_condition_row}
# the checks that read only the q1_i, skipped where there are none
Q1_CHECKS = {"dual_path_generators", "uniqueness"}


def _applies(fault, system):
    if fault in NEEDS_NORMAL_FORM:
        return bool(valid_indices(system))
    if fault is q3_is_sigma1_q1:
        return system.is_even
    return True


CELLS = [(fault, system) for fault in EXPECTED for system in ARRANGEMENTS
         if _applies(fault, system)]


def _argv(system):
    if system.is_even:
        return ["--mirrors", str(system.mirrors), "--mult-even",
                str(system.mult_even), "--mult-odd", str(system.mult_odd)]
    return ["--mirrors", str(system.mirrors), "--mult",
            str(system.mult_even)]


@pytest.mark.parametrize("fault,system", CELLS,
                         ids=[f"{f.__name__}-{s.mirrors},{s.mult_even},"
                              f"{s.mult_odd}" for f, s in CELLS])
def test_detection(capsys, monkeypatch, fault, system):
    wrong = fault(monkeypatch, system)
    code = main(["verify", *_argv(system)])
    payload = json.loads(capsys.readouterr().out)
    checks = {c["name"]: c for c in payload["checks"]}
    failing, skipped = EXPECTED[fault]
    if not valid_indices(system):
        skipped = skipped | Q1_CHECKS
    assert {n for n, c in checks.items() if c["status"] == "fail"} == failing
    assert {n for n, c in checks.items()
            if c["status"] == "skipped"} == skipped
    assert (code, payload["ok"]) == ((1, False) if failing else (0, True))
    # a failing generator check names the wrong generators it reads
    for name in failing & {"basis_quasi_invariance", "l1_kernel"}:
        assert checks[name]["detail"] == f"failing: {wrong}"
    for name in failing & Q1_CHECKS:
        named = [n for n in wrong if n.startswith("q1_")]
        assert checks[name]["detail"] == f"failing: {named}"
    if "ideal_complement" in skipped:
        assert checks["ideal_complement"]["detail"] == \
            f"built from generators outside Q: {wrong}"

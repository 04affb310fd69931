"""CLI behavior: golden text output, JSON stability, and exit codes."""

import json
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from quasinv.bipoly import BiPoly, from_text
from quasinv import calogero, cli, generators, modstruct, quasi
from quasinv.cli import (MAX_DEGREE, MAX_MIRRORS, MAX_MULTIPLICITY,
                         MAX_POLY_DIGITS, MAX_TRIALS,
                         _default_max_degree, build_parser, emit_latex, main)
from quasinv.dihedral import DihedralSystem
from quasinv.errors import DegreeTableMismatch
from quasinv.generators import (full_basis, generator_from_determinant,
                                solve_qi, valid_indices)
from quasinv.quasi import (check_per_line, grouped_rows, quasi_dimension,
                           quasi_dimensions)
from quasinv.scalars import exact_rank
from reference import power

SYS = ["--mirrors", "4", "--mult-even", "1", "--mult-odd", "0"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# poincare / hilbert / dim
# ---------------------------------------------------------------------------

def test_poincare_text_golden(capsys):
    code, out, _ = run(capsys, "poincare", *SYS, "--format", "text")
    assert code == 0
    assert out == "1 + t^2 + 2 t^3 + 2 t^5 + t^6 + t^8\n"


@pytest.mark.parametrize("system, text, latex", [
    (["--mirrors", "6", "--mult-even", "1", "--mult-odd", "2"],
     "1 + t^9 + 2 t^10 + 2 t^11 + 2 t^13 + 2 t^14 + t^15 + t^24",
     "1 + t^{9} + 2 t^{10} + 2 t^{11} + 2 t^{13} + 2 t^{14} + t^{15} "
     "+ t^{24}"),
    (["--mirrors", "4", "--mult", "0"],
     "1 + 2 t + 2 t^2 + 2 t^3 + t^4",
     "1 + 2 t + 2 t^{2} + 2 t^{3} + t^{4}"),
])
def test_poincare_text_and_latex_exponents(capsys, system, text, latex):
    for fmt, want in (("text", text), ("latex", latex)):
        code, out, _ = run(capsys, "poincare", *system, "--format", fmt)
        assert code == 0 and out == want + "\n"


def test_poincare_odd_system(capsys):
    code, out, _ = run(capsys, "poincare", "--mirrors", "3", "--mult", "1")
    assert code == 0
    assert out == "1 + 2 t^4 + 2 t^5 + t^9\n"


def test_poincare_json(capsys):
    code, out, _ = run(capsys, "poincare", *SYS, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["coefficients"] == {"0": 1, "2": 1, "3": 2, "5": 2,
                                       "6": 1, "8": 1}


def test_hilbert_with_oracle(capsys):
    code, out, _ = run(capsys, "hilbert", *SYS, "--max-degree", "5",
                       "--oracle")
    assert code == 0
    assert out.splitlines() == ["1 0 2 2 3 4", "oracle: match"]


def test_hilbert_json_keys(capsys):
    code, out, _ = run(capsys, "hilbert", *SYS, "--max-degree", "5",
                       "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert set(payload) == {"schema_version", "system", "max_degree",
                            "coefficients"}
    assert payload["max_degree"] == 5
    assert payload["coefficients"] == [1, 0, 2, 2, 3, 4]
    code, out, _ = run(capsys, "hilbert", *SYS, "--max-degree", "5",
                       "--format", "json", "--oracle")
    payload = json.loads(out)
    assert code == 0
    assert set(payload) == {"schema_version", "system", "max_degree",
                            "coefficients", "oracle_match",
                            "oracle_mismatches"}
    assert payload["oracle_match"] is True
    assert payload["oracle_mismatches"] == []


def test_hilbert_oracle_reports_mismatches(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "quasi_dimensions",
        lambda system, top: [d + 1 for d in quasi_dimensions(system, top)])
    code, out, _ = run(capsys, "hilbert", *SYS, "--max-degree", "5",
                       "--oracle")
    assert code == 1
    assert out.splitlines() == ["1 0 2 2 3 4", "oracle: 6 mismatches"]
    code, out, _ = run(capsys, "hilbert", *SYS, "--max-degree", "5",
                       "--oracle", "--format", "json")
    payload = json.loads(out)
    assert code == 1 and payload["oracle_match"] is False
    assert payload["oracle_mismatches"] == [
        {"degree": d, "hilbert": c, "oracle": c + 1}
        for d, c in enumerate([1, 0, 2, 2, 3, 4])]


def _hilbert_oracle_json(capsys, system, top):
    mults = (["--mult", str(system.mult_even)] if system.mirrors % 2 else
             ["--mult-even", str(system.mult_even),
              "--mult-odd", str(system.mult_odd)])
    code, out, _ = run(capsys, "hilbert", "--mirrors", str(system.mirrors),
                       *mults, "--max-degree", str(top), "--oracle",
                       "--format", "json")
    return code, json.loads(out)


@pytest.mark.parametrize("system,drop", [
    (DihedralSystem(2, 2, 1), slice(None, -1)),
    (DihedralSystem(1, 2, 2), slice(1, None))])
def test_hilbert_oracle_fails_closed_without_a_condition_class(
        capsys, monkeypatch, system, drop):
    # the dropped class has period 1, so what is left is still closed under
    # the class shift the parity chains rely on: the chain oracle and the
    # dense per-degree rank move identically, and away from the Hilbert
    # series
    honest = quasi_dimensions(system, 12)
    kept = quasi.row_classes
    monkeypatch.setattr(quasi, "row_classes", lambda sys: kept(sys)[drop])
    dims = quasi_dimensions(system, 12)
    assert dims != honest
    assert dims == [quasi_dimension(system, d) for d in range(13)] == \
        [d + 1 - exact_rank(grouped_rows(system, d), ncols=d + 1)
         for d in range(13)]
    code, payload = _hilbert_oracle_json(capsys, system, 12)
    assert code == 1 and payload["oracle_match"] is False
    assert payload["oracle_mismatches"] == [
        {"degree": d, "hilbert": c, "oracle": dims[d]}
        for d, c in enumerate(payload["coefficients"]) if dims[d] != c]
    assert payload["oracle_mismatches"]


def test_hilbert_oracle_fails_closed_without_a_periodic_class(
        capsys, monkeypatch):
    # a class of period 2 dropped alone leaves a row set that the class
    # shift does not map to itself; the two oracles then rank different
    # matrices, but each leaves the honest dimensions and the CLI fails
    system = DihedralSystem(4, 1, 0)
    honest = quasi_dimensions(system, 12)
    kept = quasi.row_classes
    monkeypatch.setattr(quasi, "row_classes", lambda sys: kept(sys)[1:])
    assert quasi_dimensions(system, 12) != honest
    assert [d + 1 - exact_rank(grouped_rows(system, d), ncols=d + 1)
            for d in range(13)] != honest
    code, payload = _hilbert_oracle_json(capsys, system, 12)
    assert code == 1 and payload["oracle_mismatches"]


def test_dim(capsys):
    code, out, _ = run(capsys, "dim", *SYS, "--degree", "5")
    assert code == 0 and out.strip() == "4"


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_pass_and_fail(capsys):
    code, out, _ = run(capsys, "check", *SYS, "--poly",
                       "1*z^3*zb^0 + 3*z^1*zb^2")
    assert code == 0
    assert json.loads(out)["report"]["ok"] is True
    code, out, _ = run(capsys, "check", *SYS, "--poly", "1*z^1*zb^0")
    assert code == 1
    report = json.loads(out)["report"]
    assert report["ok"] is False
    assert {(v["line"], v["order"]) for v in report["violations"]} == \
        {(0, 1), (2, 1)}



@pytest.mark.parametrize("poly", [
    "1e5000*z",                       # 5,000 digits, unprintable
    "1e3000000*z",                    # a Fraction of 3,000,001 digits
    f"{'9' * 3000}*{'7' * 3000}*z",   # a 6,000-digit product
    f"{'9' * (MAX_POLY_DIGITS + 1)}*z",
], ids=["exponent-form", "long-exponent-form", "product", "over-cap"])
def test_check_refuses_a_polynomial_it_cannot_print(capsys, poly):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as err:
        main(["check", "--mirrors", "4", "--mult", "1", "--poly", poly])
    assert time.perf_counter() - start < 0.5
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert message.startswith("usage: quasinv check")
    assert "Traceback" not in message


@pytest.mark.parametrize("poly", ["", "  "], ids=["empty", "blank"])
def test_check_refuses_an_empty_polynomial(capsys, poly):
    # a check that ran on no input must not pass; "0" is the zero polynomial
    with pytest.raises(SystemExit) as err:
        main(["check", "--mirrors", "3", "--mult", "1", "--poly", poly])
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith("usage: quasinv check")
    code, out, _ = run(capsys, "check", "--mirrors", "3", "--mult", "1",
                       "--poly", "0")
    assert code == 0 and json.loads(out)["poly"] == "0"


def test_check_prints_a_polynomial_at_the_digit_cap(capsys):
    # a 2,000-digit numerator and 100 distinct 19-digit denominators: the
    # residuals carry numbers of about 3,700 digits, near the cap's bound
    terms = [f"{'9' * 2000}*z^100"] + [
        f"1/{10 ** 18 + 2 * s + 1}*z^{99 - s}*zb^{s + 1}" for s in range(100)]
    assert sum(c.isdigit() for term in terms
               for c in term.split("*")[0]) == MAX_POLY_DIGITS
    code, out, _ = run(capsys, "check", "--mirrors", "32", "--mult", "8",
                       "--poly", " + ".join(terms))
    assert code == 1 and json.loads(out)["report"]["ok"] is False
    longest = max(len(digits) for digits in re.findall("[0-9]+", out))
    assert 3000 < longest <= MAX_POLY_DIGITS + 50


def test_check_fractional_coefficients_golden(capsys):
    # byte-exact check output for failing polynomials with mixed
    # denominators, several degrees, on an even and an odd arrangement: the
    # per-line residuals are computed on cleared integer terms and divided
    # back only for the text
    cases = json.loads((Path(__file__).parent / "golden" /
                        "check_fractional.json").read_text())
    assert len(cases) == 4
    for case in cases:
        code, out, _ = run(capsys, *case["argv"])
        assert (code, out) == (case["exit"], case["stdout"]), case["argv"]
        violations = json.loads(out)["report"]["violations"]
        assert any("/" in v["residual"] for v in violations)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_generators_text_n1(capsys):
    code, out, _ = run(capsys, "generators", "--mirrors", "2",
                       "--mult-even", "1", "--mult-odd", "1",
                       "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0] == "q0 deg=0 1*z^0*zb^0"
    assert lines[1].startswith("q1 deg=3 1*z^3*zb^0")
    polys = [from_text(line.split(" ", 2)[2]) for line in lines]
    plus = BiPoly({(1, 0): 1, (0, 1): 1})
    minus = BiPoly({(1, 0): 1, (0, 1): -1})
    assert polys == [BiPoly.constant(1), power(plus, 3), power(minus, 3),
                     power(plus, 3) * power(minus, 3)]


def test_generators_json_roundtrip_byte_identical(capsys):
    code, out, _ = run(capsys, "generators", *SYS, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out
    labels = [g["label"] for g in payload["generators"]]
    assert labels == ["q0", "q1", "q1_i", "q2_i", "q1_i", "q2_i", "q2", "q3"]
    q1_1 = payload["generators"][2]
    assert q1_1["i"] == 1 and q1_1["degree"] == 3
    assert q1_1["terms"] == [{"z": 3, "zb": 0, "num": 1, "den": 1},
                             {"z": 1, "zb": 2, "num": 3, "den": 1}]


def test_generators_method_both(capsys):
    code, _, _ = run(capsys, "generators", *SYS, "--method", "both")
    assert code == 0


def test_generators_method_both_builds_one_basis(capsys, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("method"))
        return full_basis(*args, **kwargs)

    monkeypatch.setattr(cli, "full_basis", counted)
    code, _, _ = run(capsys, "generators", *SYS, "--method", "both")
    assert code == 0 and calls == ["solve"]


def test_generators_method_both_reports_a_route_mismatch(capsys,
                                                         monkeypatch):
    def perturbed(system, i):
        poly = generator_from_determinant(system, i)
        if i != 1:
            return poly
        return poly + BiPoly.monomial(poly.degree() - 1, 1).scale(Fraction(7))

    monkeypatch.setattr(generators, "generator_from_determinant", perturbed)
    monkeypatch.setattr(cli, "generator_from_determinant", perturbed)
    code, out, err = run(capsys, "generators", *SYS, "--method", "both")
    assert code == 1 and out == ""
    assert err == "mismatch between solver and determinant at q1_1\n"


def test_verify_uniqueness_catches_rows_both_dual_routes_share(capsys,
                                                               monkeypatch):
    # one scaled entry of the condition rows: the solve and determinant
    # routes read the same rows, so they agree on a wrong polynomial and
    # dual_path_generators passes; the kernel route reads neither
    original = generators._condition_rows

    def scaled(system, i):
        rows = original(system, i)
        return [(2 * rows[0][0], *rows[0][1:]), *rows[1:]]

    monkeypatch.setattr(generators, "_condition_rows", scaled)
    system = DihedralSystem(6, 1, 2)
    wrong = solve_qi(system, 1)
    assert wrong == generator_from_determinant(system, 1)
    assert wrong != calogero.kernel_generator(system,
                                              generators._top(system) + 1)
    code, out, _ = run(capsys, "verify", "--mirrors", "6", "--mult-even",
                       "1", "--mult-odd", "2")
    payload = json.loads(out)
    assert code == 1 and payload["ok"] is False
    status = {c["name"]: c["status"] for c in payload["checks"]}
    assert status["dual_path_generators"] == "pass"
    assert status["uniqueness"] == "fail"


def test_library_errors_exit_one(capsys, monkeypatch):
    def broken(system, method="solve"):
        raise DegreeTableMismatch("generator degrees disagree")

    monkeypatch.setattr(cli, "full_basis", broken)
    code, out, err = run(capsys, "generators", *SYS)
    assert (code, out, err) == (1, "", "error: generator degrees disagree\n")


def test_generators_deterministic(capsys):
    _, first, _ = run(capsys, "generators", *SYS, "--format", "json")
    _, second, _ = run(capsys, "generators", *SYS, "--format", "json")
    assert first == second


def test_generators_odd_mirrors_usage_error(capsys):
    # odd mirror counts are built like even ones: 2M generators
    code, out, _ = run(capsys, "generators", "--mirrors", "3", "--mult", "1")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == \
        ["q0", "q1_1", "q2_1", "q1_2", "q2_2", "q3"]


@pytest.mark.parametrize("mirrors", [3, 5, 7, 9])
def test_odd_arrangements_pass_every_check(capsys, mirrors):
    for mult in range(3):
        system = ["--mirrors", str(mirrors), "--mult", str(mult)]
        code, out, _ = run(capsys, "verify", *system)
        payload = json.loads(out)
        assert code == 0 and payload["ok"] is True
        assert all(c["status"] == "pass" for c in payload["checks"])
        assert len(payload["checks"]) == 10
        code, _, _ = run(capsys, "generators", *system, "--method", "both")
        assert code == 0


# ---------------------------------------------------------------------------
# verify / freeness
# ---------------------------------------------------------------------------

def test_verify_worked_example(capsys):
    code, out, _ = run(capsys, "verify", *SYS)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(c["status"] == "pass" for c in payload["checks"])
    names = {c["name"] for c in payload["checks"]}
    assert {"checker_agreement", "hilbert_oracle", "dual_path_generators",
            "l1_kernel", "uniqueness", "freeness",
            "ideal_complement"} <= names


def test_verify_builds_no_dense_row(capsys, monkeypatch):
    # the checker agreement and the ideal check read the null vectors of
    # quasi._NullChain, so no graded piece goes through Bareiss
    calls = []
    original = quasi.grouped_rows
    monkeypatch.setattr(quasi, "grouped_rows",
                        lambda *args: calls.append(args) or original(*args))
    code, out, _ = run(capsys, "verify", "--mirrors", "8", "--mult-even",
                       "2", "--mult-odd", "1")
    assert code == 0 and json.loads(out)["ok"]
    assert calls == []
    assert not hasattr(quasi, "quasi_null_rows")
    # the counter sees the dense rows that the exported basis still builds
    quasi.quasi_basis(DihedralSystem(8, 2, 1), 9)
    assert calls == [(DihedralSystem(8, 2, 1), 9)]


def test_verify_exit_code_matches_report(capsys):
    code, out, _ = run(capsys, "verify", "--mirrors", "2",
                       "--mult-even", "1", "--mult-odd", "1")
    payload = json.loads(out)
    assert (code == 0) == payload["ok"]


def test_verify_odd_system_runs_generator_free_checks(capsys):
    # an odd arrangement runs every check an even one runs, in the same
    # order, and passes them all
    code, out, _ = run(capsys, "verify", "--mirrors", "3", "--mult", "1",
                       "--trials", "20")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    checks = payload["checks"]
    _, even_out, _ = run(capsys, "verify", *SYS, "--trials", "5")
    even_names = [c["name"] for c in json.loads(even_out)["checks"]]
    assert [c["name"] for c in checks] == even_names
    assert all(c["status"] == "pass" for c in checks)


def test_verify_two_mirrors_skips_checks_without_generators(capsys):
    # M = 2 has no normal-form generators q1_i, q2_i, so the dual-path and
    # uniqueness checks have no input and must not report pass
    code, out, _ = run(capsys, "verify", "--mirrors", "2", "--mult-even",
                       "1", "--mult-odd", "3", "--trials", "10")
    assert code == 0
    payload = json.loads(out)
    status = {c["name"]: c["status"] for c in payload["checks"]}
    for check in payload["checks"]:
        if check["name"] in ("dual_path_generators", "uniqueness"):
            assert check["status"] == "skipped"
            assert "no normal-form generators" in check["detail"]
        else:
            assert check["status"] == "pass", check
    assert len(status) == 10
    assert payload["ok"] is True


def test_verify_single_mirror_system(capsys):
    code, out, _ = run(capsys, "verify", "--mirrors", "1", "--mult", "2",
                       "--trials", "20")
    payload = json.loads(out)
    assert code == 0 and payload["ok"] is True
    # like M = 2, M = 1 has no normal-form generators
    for check in payload["checks"]:
        if check["name"] in ("dual_path_generators", "uniqueness"):
            assert check["status"] == "skipped"
            assert "no normal-form generators" in check["detail"]
        else:
            assert check["status"] == "pass", check
    assert len(payload["checks"]) == 10


def test_l1_control_values_do_not_share_the_operator_line_sum(capsys,
                                                              monkeypatch):
    # an error in S(0) = line_power_sum(sys, 0), which apply_L1 uses, must
    # not also move the value the control compares L(z zb) with
    line_power_sum = calogero.line_power_sum

    def off_by_one(sys, e):
        return line_power_sum(sys, e) + (e == 0)

    monkeypatch.setattr(calogero, "line_power_sum", off_by_one)
    if hasattr(cli, "line_power_sum"):
        monkeypatch.setattr(cli, "line_power_sum", off_by_one)
    _, out, _ = run(capsys, "verify", *SYS)
    status = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    assert status["l1_control_values"] == "fail"


def _basis_with_q1_1_outside_q(system):
    """The basis of ``system`` with q1_1 replaced by q1_1 + 7 z^(D-1) zb,
    which fails the per-line checks."""
    gens = full_basis(system)
    entries = []
    for e in gens.entries:
        if e.name == "q1_1":
            wrong = BiPoly.monomial(e.degree - 1, 1).scale(Fraction(7))
            e = e._replace(poly=e.poly + wrong)
        entries.append(e)
    return gens._replace(entries=tuple(entries))


def test_verify_reports_a_generator_outside_q(capsys, monkeypatch):
    # every generator-basis check reads the basis the command reports, and
    # the candidates built from a generator outside Q are not checked
    system = DihedralSystem(8, 2, 1)
    bad = _basis_with_q1_1_outside_q(system)
    monkeypatch.setattr(cli, "full_basis", lambda *args, **kwargs: bad)
    code, out, _ = run(capsys, "verify", "--mirrors", "8", "--mult-even",
                       "2", "--mult-odd", "1")
    payload = json.loads(out)
    assert code == 1 and payload["ok"] is False
    status = {c["name"]: c["status"] for c in payload["checks"]}
    failing = {"basis_quasi_invariance", "dual_path_generators",
               "l1_kernel", "uniqueness", "freeness"}
    assert {name for name, s in status.items() if s == "fail"} == failing
    assert status["ideal_complement"] == "skipped"
    assert "q1_1" in next(c["detail"] for c in payload["checks"]
                          if c["name"] == "ideal_complement")


def test_verify_checks_generators_above_the_degree_bound(capsys, monkeypatch):
    # freeness checks only the generators up to --max-degree; verify checks
    # the rest itself
    system = DihedralSystem(8, 2, 1)
    bad = _basis_with_q1_1_outside_q(system)
    assert next(e.degree for e in bad.entries if e.name == "q1_1") > 3
    monkeypatch.setattr(cli, "full_basis", lambda *args, **kwargs: bad)
    code, out, _ = run(capsys, "verify", "--mirrors", "8", "--mult-even",
                       "2", "--mult-odd", "1", "--max-degree", "3")
    payload = json.loads(out)
    assert code == 1 and payload["ok"] is False
    checks = {c["name"]: c for c in payload["checks"]}
    assert checks["freeness"]["status"] == "pass"
    assert checks["basis_quasi_invariance"] == {
        "name": "basis_quasi_invariance", "status": "fail",
        "detail": "failing: ['q1_1']"}
    assert checks["ideal_complement"]["status"] == "skipped"


def test_verify_checks_each_generator_once(capsys, monkeypatch):
    # freeness_check's per-line pass decides basis_quasi_invariance, and the
    # ideal test needs none: one call per generator, 2M in all
    calls = []

    def counted(system, p):
        calls.append(p)
        return check_per_line(system, p)

    for module in (cli, modstruct):
        monkeypatch.setattr(module, "check_per_line", counted)
    code, _, _ = run(capsys, "verify", "--mirrors", "8", "--mult-even", "2",
                     "--mult-odd", "1")
    assert code == 0
    assert len(calls) == 16


def test_verify_solves_each_generator_once(capsys, monkeypatch):
    calls = []

    def counted(system, i):
        calls.append(i)
        return solve_qi(system, i)

    # every module that imported the solver holds its own reference
    for module in list(sys.modules.values()):
        if module.__name__.startswith("quasinv") and \
                getattr(module, "solve_qi", None) is solve_qi:
            monkeypatch.setattr(module, "solve_qi", counted)
    code, _, _ = run(capsys, "verify", "--mirrors", "8", "--mult-even", "2",
                     "--mult-odd", "1", "--trials", "5")
    assert code == 0
    assert sorted(calls) == valid_indices(DihedralSystem(8, 2, 1))


def _grouped_passes_everything(monkeypatch):
    monkeypatch.setattr(quasi, "_class_sum", lambda *args: 0)


def _per_line_blind_to_order_one(monkeypatch):
    original = quasi.line_derivative_coefficient
    monkeypatch.setattr(quasi, "line_derivative_coefficient",
                        lambda k, a, b: 0 if k == 1 else original(k, a, b))


@pytest.mark.parametrize("sabotage", [_grouped_passes_everything,
                                      _per_line_blind_to_order_one],
                         ids=["verdicts-differ", "levels-differ"])
def test_verify_fails_when_the_checkers_disagree(capsys, monkeypatch,
                                                 sabotage):
    sabotage(monkeypatch)
    code, out, _ = run(capsys, "verify", "--mirrors", "4",
                       "--mult-even", "2", "--mult-odd", "1")
    payload = json.loads(out)
    assert code == 1 and payload["ok"] is False
    assert payload["checks"][0]["name"] == "checker_agreement"
    assert payload["checks"][0]["status"] == "fail"


def test_verify_deterministic(capsys):
    _, first, _ = run(capsys, "verify", *SYS, "--seed", "3", "--trials", "10")
    _, second, _ = run(capsys, "verify", *SYS, "--seed", "3", "--trials", "10")
    assert first == second


def _reference_default_max_degree(system):
    """The top generator degree written out per parity, plus 2M."""
    M = system.mirrors
    if system.is_even:
        top = (system.mult_even + system.mult_odd + 1) * M
    else:
        top = (2 * system.mult_even + 1) * M
    return top + 2 * M


def test_default_max_degree_matches_reference():
    for M in range(1, 17):
        for m in range(5):
            for n in range(5) if M % 2 == 0 else (m,):
                system = DihedralSystem(M, m, n)
                assert _default_max_degree(system) == \
                    _reference_default_max_degree(system)


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_rejects_trials_below_one(capsys, trials):
    with pytest.raises(SystemExit) as err:
        main(["verify", *SYS, "--trials", trials])
    assert err.value.code == 2
    assert "--trials" in capsys.readouterr().err


def test_freeness_command(capsys):
    code, out, _ = run(capsys, "freeness", *SYS, "--max-degree", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["degrees"]) == 9


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------

def test_usage_errors_exit_two():
    cases = [
        ["poincare", "--mirrors", "3", "--mult-even", "1", "--mult-odd", "1"],
        ["poincare", "--mirrors", "4", "--mult-even", "1"],
        ["poincare", "--mirrors", "4", "--mult", "1", "--mult-even", "1",
         "--mult-odd", "0"],
        ["poincare", "--mirrors", "0", "--mult", "1"],
        ["dim", *SYS],                     # missing --degree
        ["check", *SYS, "--poly", "1*w^2"],
        ["nonsense"],
    ]
    for argv in cases:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


# ---------------------------------------------------------------------------
# input caps, tested by argument parsing only
# ---------------------------------------------------------------------------

OVER_CAP = [
    ["poincare", "--mirrors", str(MAX_MIRRORS + 1), "--mult", "1"],
    ["poincare", "--mirrors", "5", "--mult", str(MAX_MULTIPLICITY + 1)],
    ["poincare", "--mirrors", "4", "--mult-even", str(MAX_MULTIPLICITY + 1),
     "--mult-odd", "0"],
    ["poincare", "--mirrors", "4", "--mult-even", "0",
     "--mult-odd", str(MAX_MULTIPLICITY + 1)],
    ["dim", *SYS, "--degree", str(MAX_DEGREE + 1)],
    ["hilbert", *SYS, "--max-degree", str(MAX_DEGREE + 1)],
    ["freeness", *SYS, "--max-degree", str(MAX_DEGREE + 1)],
    ["verify", *SYS, "--max-degree", str(MAX_DEGREE + 1)],
    ["verify", *SYS, "--trials", str(MAX_TRIALS + 1)],
    ["verify", "--mirrors", str(10 ** 6), "--mult", "1"],
]


@pytest.mark.parametrize("argv", OVER_CAP, ids=lambda a: " ".join(a[:3]))
def test_caps_refuse_larger_values_before_computing(capsys, monkeypatch,
                                                    argv):
    def computed(args, system):
        raise AssertionError("a refused input reached its subcommand")

    monkeypatch.setitem(cli._COMMANDS, argv[0], computed)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "must be at most" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--mirrors", str(MAX_MIRRORS + 1), "--mult", "1"],
    ["verify", *SYS, "--trials", "0"],
])
def test_usage_errors_print_the_subcommand_usage(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith("usage: quasinv verify")


def test_main_parses_each_call_afresh(capsys, monkeypatch):
    # main builds its parser once and reuses it: no flag of one call may
    # leak into the next
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "verify",
                        lambda args, system: seen.append(args) or 0)
    assert main(["verify", *SYS, "--seed", "5", "--max-degree", "7"]) == 0
    assert main(["verify", *SYS]) == 0
    assert [(a.seed, a.max_degree, a.trials) for a in seen] == \
        [(5, 7, 50), (0, None, 50)]
    with pytest.raises(SystemExit) as err:
        main(["verify", *SYS, "--trials", "0"])
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith("usage: quasinv verify")
    with pytest.raises(SystemExit) as err:
        main(["dim", *SYS])
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith("usage: quasinv dim")
    assert main(["verify", *SYS, "--trials", "3"]) == 0
    assert (seen[-1].seed, seen[-1].max_degree, seen[-1].trials) == \
        (0, None, 3)


def test_main_builds_the_parser_once(monkeypatch):
    built = []
    original = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or original())
    monkeypatch.setitem(cli._COMMANDS, "dim", lambda args, system: 0)
    for _ in range(3):
        assert main(["dim", *SYS, "--degree", "3"]) == 0
    assert built == [1]


def test_caps_refuse_a_polynomial_of_larger_degree(capsys):
    too_high = f"1*z^{MAX_DEGREE}*zb^1"
    with pytest.raises(SystemExit) as err:
        main(["check", *SYS, "--poly", too_high])
    assert err.value.code == 2
    assert f"at most {MAX_DEGREE}" in capsys.readouterr().err
    code, _, _ = run(capsys, "check", *SYS, "--poly", f"1*z^{MAX_DEGREE}")
    assert code in (0, 1)


def test_caps_admit_values_at_the_cap():
    parser = build_parser()
    for argv in (
            ["verify", "--mirrors", str(MAX_MIRRORS),
             "--mult-even", str(MAX_MULTIPLICITY),
             "--mult-odd", str(MAX_MULTIPLICITY),
             "--trials", str(MAX_TRIALS), "--max-degree", str(MAX_DEGREE)],
            ["dim", *SYS, "--degree", str(MAX_DEGREE)]):
        args = parser.parse_args(argv)
        assert [getattr(args, flag[2:].replace("-", "_"))
                for flag in argv[1::2]] == [int(v) for v in argv[2::2]]


def test_caps_admit_every_benchmarked_arrangement_and_default_bound():
    # test, benchmark and baseline arrangements, and their largest degrees
    for M, m, n in [(4, 1, 0), (6, 1, 2), (8, 2, 1), (12, 2, 2), (16, 3, 2),
                    (7, 2, 2), (9, 3, 3), (24, 4, 4), (32, 4, 4), (16, 8, 7)]:
        assert M <= MAX_MIRRORS and max(m, n) <= MAX_MULTIPLICITY
    assert 96 <= MAX_DEGREE
    # the default verify bound of every arrangement inside the caps
    for M in range(1, MAX_MIRRORS + 1):
        for m in range(MAX_MULTIPLICITY + 1):
            for n in range(MAX_MULTIPLICITY + 1) if M % 2 == 0 else (m,):
                assert _default_max_degree(DihedralSystem(M, m, n)) <= \
                    MAX_DEGREE


def test_caps_are_stated_in_help(capsys):
    for argv in [["--help"]] + [[name, "--help"] for name in cli._COMMANDS]:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 0
        flat = " ".join(capsys.readouterr().out.split())
        assert f"--mirrors {MAX_MIRRORS}" in flat
        assert f"multiplicities {MAX_MULTIPLICITY}" in flat
        assert f"{MAX_DEGREE}" in flat and f"--trials {MAX_TRIALS}" in flat


# ---------------------------------------------------------------------------
# LaTeX emission
# ---------------------------------------------------------------------------

def test_emit_latex_examples():
    assert emit_latex(from_text("1*z^3*zb^0 + 3*z^1*zb^2")) == \
        "z^{3} + 3 z \\bar{z}^{2}"
    assert emit_latex(BiPoly.zero()) == "0"
    assert emit_latex(from_text("1*z^5*zb^0 + 5/3*z^1*zb^4")) == \
        "z^{5} + \\tfrac{5}{3} z \\bar{z}^{4}"
    assert emit_latex(from_text("1*z^5*zb^0 + -5*z^3*zb^2")) == \
        "z^{5} - 5 z^{3} \\bar{z}^{2}"


def test_generators_latex_output(capsys):
    code, out, _ = run(capsys, "generators", *SYS, "--format", "latex")
    assert code == 0
    assert "q1_1 &= z^{3} + 3 z \\bar{z}^{2}" in out.splitlines()

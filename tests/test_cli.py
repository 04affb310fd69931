"""CLI behavior: golden text output, JSON stability, and exit codes."""

import json
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from quasinv.bipoly import BiPoly, from_text
from quasinv import cli, generators
from quasinv.cli import (MAX_DEGREE, MAX_MIRRORS, MAX_MULTIPLICITY, MAX_TRIALS,
                         _default_max_degree, build_parser, emit_latex, main)
from quasinv.dihedral import DihedralSystem
from quasinv.generators import (full_basis, generator_from_determinant,
                                solve_qi, valid_indices)

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
    assert polys == [BiPoly.constant(1), plus ** 3, minus ** 3,
                     plus ** 3 * minus ** 3]


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


def _basis_with_q1_1_outside_q(system):
    """The basis of ``system`` with q1_1 replaced by q1_1 + 7 z^(D-1) zb,
    which fails the per-line checks."""
    gens = full_basis(system)
    entries = []
    for e in gens.entries:
        if e.name == "q1_1":
            wrong = BiPoly.monomial(e.degree - 1, 1).scale(Fraction(7))
            e = replace(e, poly=e.poly + wrong)
        entries.append(e)
    return replace(gens, entries=tuple(entries))


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
    def computed(parser, args):
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
        cli._refuse_over_caps(parser, parser.parse_args(argv))


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

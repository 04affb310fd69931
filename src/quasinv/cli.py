"""Command-line front end.

Subcommands: poincare, hilbert, dim, check, generators, verify, freeness.
Arrangements come from ``--mirrors M --mult-even m --mult-odd n`` (or a
single ``--mult m``, mandatory for odd mirror counts).  Data goes to stdout,
diagnostics to stderr.  Exit codes: 0 success or all checks passed, 1 a
verification failed or the reader closed stdout early (quietly, as after
``| head``), 2 usage error.  JSON output is canonical (sorted keys,
fixed indentation) and carries a schema_version field, so identical flags
and seed reproduce byte-identical bytes.  The caps below are enforced by the
argument types, at parse time, so input above them is refused as a usage
error before any computation.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys as _sys
from argparse import ArgumentTypeError
from fractions import Fraction

from .bipoly import (COEFFICIENT, BiPoly, canonical_terms, from_text,
                     rational_only, to_text)
from .calogero import apply_L1, uniqueness_check, verify_L1_kernel
from .dihedral import DihedralSystem
from .errors import QuasinvError
from .generators import (GeneratorSet, full_basis, generator_from_determinant,
                         solve_qi, valid_indices)
from .modstruct import freeness_check, not_in_ideal_check
from .poincare import (SeriesPoly, degree_table, hilbert_from_poincare,
                       poincare_for_system)
from .quasi import (check_per_line, crosscheck_checkers, quasi_dimension,
                    quasi_dimensions)

SCHEMA_VERSION = 1

# Caps on the input, so that a mistyped value cannot start a computation
# that never ends.  MAX_DEGREE is the default ``verify`` degree bound
# (m + n + 3) M of the largest arrangement inside the caps.
MAX_MIRRORS = 32
MAX_MULTIPLICITY = 8
MAX_DEGREE = (2 * MAX_MULTIPLICITY + 3) * MAX_MIRRORS
MAX_TRIALS = 1000
# Every number ``check`` prints has at most the digits of the coefficient
# factors of --poly plus 50: a line residual sums at most 609 terms (3
# digits) of lcm(denominators) * c * K_k(a, b), |K_k(a, b)| <= 608^15 (42
# digits), and reduction modulo Phi_M, M <= 32, adds at most 2; so every
# report stays below CPython's 4,300-digit limit on int-to-str conversion.
MAX_POLY_DIGITS = 4000
_CAPS_HELP = (f"Caps: --mirrors {MAX_MIRRORS}, multiplicities "
              f"{MAX_MULTIPLICITY}, degrees (also of --poly) {MAX_DEGREE}, "
              f"--poly coefficient digits {MAX_POLY_DIGITS}, "
              f"--trials {MAX_TRIALS}; larger values exit with code 2.")


# ---------------------------------------------------------------------------
# rendering helpers
# ---------------------------------------------------------------------------

def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


# how t^d is written for d >= 2, by output format
_POWER_FORMATS = {"text": "t^{}", "latex": "t^{{{}}}"}


def render_series(series: SeriesPoly, power: str) -> str:
    """Terms ``c t^d`` joined by " + ", coefficient 1 omitted; ``power`` is
    the format string of t^d for d >= 2, one of ``_POWER_FORMATS``."""
    parts = []
    for degree, coeff in series.coeffs:
        if degree == 0:
            parts.append(str(coeff))
            continue
        t = "t" if degree == 1 else power.format(degree)
        parts.append(t if coeff == 1 else f"{coeff} {t}")
    return " + ".join(parts) if parts else "0"


def _latex_coeff(c: Fraction) -> str:
    if c.denominator == 1:
        return str(abs(c.numerator))
    return f"\\tfrac{{{abs(c.numerator)}}}{{{c.denominator}}}"


def emit_latex(poly: BiPoly) -> str:
    """Deterministic LaTeX for a rational polynomial, canonical term order;
    a cyclotomic coefficient is refused by ``rational_only``."""
    rational_only(poly, "LaTeX output")
    if poly.is_zero():
        return "0"
    out = []
    for (a, b), c in canonical_terms(poly):
        c = Fraction(c)
        factors = []
        if a:
            factors.append("z" if a == 1 else f"z^{{{a}}}")
        if b:
            factors.append("\\bar{z}" if b == 1 else f"\\bar{{z}}^{{{b}}}")
        magnitude = _latex_coeff(c)
        if factors and magnitude == "1":
            body = " ".join(factors)
        else:
            body = " ".join([magnitude] + factors)
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(out)


def _poly_terms_json(poly: BiPoly) -> list[dict]:
    terms = []
    for (a, b), c in canonical_terms(poly):
        c = Fraction(c)
        terms.append({"z": a, "zb": b,
                      "num": c.numerator, "den": c.denominator})
    return terms


def _generators_json(gens: GeneratorSet) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "system": gens.system._asdict(),
        "provenance": gens.provenance,
        "generators": [
            {"label": e.label, "i": e.i, "degree": e.degree,
             "terms": _poly_terms_json(e.poly)}
            for e in gens.entries
        ],
    }


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _count(low: int, high: int):
    """Argument type: an int in low..high, else a usage error."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise ArgumentTypeError(f"must be at least {low}")
        if value > high:
            raise ArgumentTypeError(f"must be at most {high}")
        return value
    return count


def _polynomial(text: str) -> BiPoly:
    """Argument type of --poly: its polynomial, inside the digit and degree
    caps."""
    digits = sum(c.isdigit() for factor in re.split("[+*]", text)
                 if COEFFICIENT.fullmatch(factor.strip()) for c in factor)
    if digits > MAX_POLY_DIGITS:
        raise ArgumentTypeError(f"digits must be at most {MAX_POLY_DIGITS}")
    try:
        poly = from_text(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ArgumentTypeError(f"cannot parse polynomial: {exc}")
    if poly.degree() > MAX_DEGREE:
        raise ArgumentTypeError(f"degree must be at most {MAX_DEGREE}")
    return poly


def _add_system_args(sub: argparse.ArgumentParser):
    sub.epilog = _CAPS_HELP
    # usage errors print the usage line of the subcommand they concern
    sub.set_defaults(subparser=sub)
    sub.add_argument("--mirrors", type=_count(1, MAX_MIRRORS), required=True,
                     help="number of mirror lines M")
    sub.add_argument("--mult-even", type=_count(0, MAX_MULTIPLICITY),
                     help="multiplicity of the even-index lines (even M)")
    sub.add_argument("--mult-odd", type=_count(0, MAX_MULTIPLICITY),
                     help="multiplicity of the odd-index lines (even M)")
    sub.add_argument("--mult", type=_count(0, MAX_MULTIPLICITY),
                     help="single multiplicity (required for odd M)")


def _system_from_args(parser: argparse.ArgumentParser,
                      args) -> DihedralSystem:
    if args.mult is not None:
        if args.mult_even is not None or args.mult_odd is not None:
            parser.error("--mult cannot be combined with "
                         "--mult-even/--mult-odd")
        return DihedralSystem.uniform(args.mirrors, args.mult)
    if args.mirrors % 2 == 1:
        parser.error("odd mirror counts take a single --mult flag")
    if args.mult_even is None or args.mult_odd is None:
        parser.error("even mirror counts need --mult-even and --mult-odd "
                     "(or --mult)")
    return DihedralSystem(args.mirrors, args.mult_even, args.mult_odd)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasinv",
        description="Exact quasi-invariant bases for dihedral arrangements",
        epilog=_CAPS_HELP)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("poincare", help="closed-form Poincare polynomial")
    _add_system_args(p)
    p.add_argument("--format", choices=("text", "json", "latex"),
                   default="text")

    p = subs.add_parser("hilbert", help="Hilbert series of quasi-invariants")
    _add_system_args(p)
    p.add_argument("--max-degree", type=_count(0, MAX_DEGREE), required=True)
    p.add_argument("--oracle", action="store_true",
                   help="also run the dimension oracle and report mismatches")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = subs.add_parser("dim", help="dimension of one graded piece")
    _add_system_args(p)
    p.add_argument("--degree", type=_count(0, MAX_DEGREE), required=True)

    p = subs.add_parser("check", help="quasi-invariance check of a polynomial")
    _add_system_args(p)
    p.add_argument("--poly", type=_polynomial, required=True,
                   help='canonical text form, e.g. "1*z^3*zb^0 + 3*z^1*zb^2"; '
                        'give text that starts with "-" as --poly=TEXT')

    p = subs.add_parser("generators", help="free-module generator basis")
    _add_system_args(p)
    p.add_argument("--method", choices=("solve", "det", "both"),
                   default="solve")
    p.add_argument("--format", choices=("text", "json", "latex"),
                   default="text")

    p = subs.add_parser("verify", help="run the full verification pipeline")
    _add_system_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_count(1, MAX_TRIALS), default=50,
                   help="random trials for the checker-agreement test")
    p.add_argument("--max-degree", type=_count(0, MAX_DEGREE),
                   help="degree bound for oracle and freeness checks")

    p = subs.add_parser("freeness", help="free module structure check")
    _add_system_args(p)
    p.add_argument("--max-degree", type=_count(0, MAX_DEGREE), required=True)

    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_poincare(args, system: DihedralSystem) -> int:
    series = poincare_for_system(system)
    if args.format == "json":
        print(_dump({"schema_version": SCHEMA_VERSION,
                     "system": system._asdict(),
                     "coefficients": {str(d): c for d, c in series.coeffs}}))
    else:
        print(render_series(series, _POWER_FORMATS[args.format]))
    return 0


def _cmd_hilbert(args, system: DihedralSystem) -> int:
    series = hilbert_from_poincare(poincare_for_system(system),
                                   system.mirrors, args.max_degree)
    coefficients = series.to_list(args.max_degree)
    mismatches = []
    if args.oracle:
        oracles = quasi_dimensions(system, args.max_degree)
        for d, (c, oracle) in enumerate(zip(coefficients, oracles)):
            if oracle != c:
                mismatches.append({"degree": d, "hilbert": c,
                                   "oracle": oracle})
    if args.format == "text":
        print(" ".join(str(c) for c in coefficients))
        if args.oracle:
            print("oracle: " + ("match" if not mismatches else
                                f"{len(mismatches)} mismatches"))
    else:
        payload = {"schema_version": SCHEMA_VERSION,
                   "system": system._asdict(),
                   "max_degree": args.max_degree,
                   "coefficients": coefficients}
        if args.oracle:
            payload["oracle_match"] = not mismatches
            payload["oracle_mismatches"] = mismatches
        print(_dump(payload))
    return 0 if not mismatches else 1


def _cmd_dim(args, system: DihedralSystem) -> int:
    print(quasi_dimension(system, args.degree))
    return 0


def _cmd_check(args, system: DihedralSystem) -> int:
    report = check_per_line(system, args.poly)
    print(_dump({"schema_version": SCHEMA_VERSION,
                 "system": system._asdict(),
                 "poly": to_text(args.poly),
                 "report": report.to_dict()}))
    return 0 if report.ok else 1


def _route_mismatches(gens: GeneratorSet, route) -> list[str]:
    """Names of the ``q1_i`` of ``gens``, in basis order, that differ from
    the generator of index i that ``route(system, i)`` builds."""
    return [e.name for e in gens.entries
            if e.label == "q1_i" and e.poly != route(gens.system, e.i)]


def _cmd_generators(args, system: DihedralSystem) -> int:
    if args.method == "both":
        gens = full_basis(system, method="solve")
        mismatches = _route_mismatches(gens, generator_from_determinant)
        if mismatches:
            print(f"mismatch between solver and determinant at "
                  f"{mismatches[0]}", file=_sys.stderr)
            return 1
    else:
        gens = full_basis(system, method=args.method)
    if args.format == "json":
        print(_dump(_generators_json(gens)))
    elif args.format == "latex":
        for e in gens.entries:
            print(f"{e.name} &= {emit_latex(e.poly)}")
    else:
        for e in gens.entries:
            print(f"{e.name} deg={e.degree} {to_text(e.poly)}")
    return 0


def _default_max_degree(system: DihedralSystem) -> int:
    """Degree bound of ``verify`` when none is given: the top generator
    degree plus 2M, so every generator also enters with invariant
    multiples."""
    return poincare_for_system(system).top_degree + 2 * system.mirrors


def _cmd_verify(args, system: DihedralSystem) -> int:
    d_max = args.max_degree if args.max_degree is not None \
        else _default_max_degree(system)
    checks = []

    def record(name, passed, detail=""):
        entry = {"name": name, "status": "pass" if passed else "fail"}
        if detail:
            entry["detail"] = detail
        checks.append(entry)

    def record_failing(name, failing):
        record(name, not failing, f"failing: {failing}" if failing else "")

    def skip(name, detail):
        checks.append({"name": name, "status": "skipped", "detail": detail})

    agreement = crosscheck_checkers(system, trials=args.trials,
                                    max_degree=12, seed=args.seed)
    record("checker_agreement", agreement,
           f"{args.trials} seeded random homogeneous polynomials")

    gens = full_basis(system)
    # every freeness row holds the closed-form and the oracle dimension
    freeness = freeness_check(system, gens, d_max)
    mism = [r.degree for r in freeness.rows if r.expected_dim != r.oracle_dim]
    record("hilbert_oracle", not mism,
           f"degrees 0..{d_max}" if not mism else f"mismatch at {mism}")

    # freeness checked the generators up to d_max (entries sorted by degree)
    bad = list(freeness.non_members) + [
        e.name for e in gens.entries
        if e.degree > d_max and not check_per_line(system, e.poly).ok]
    record("basis_quasi_invariance", not bad,
           "all generators" if not bad else f"failing: {bad}")

    record("degree_table",
           sorted(gens.degrees()) == degree_table(system) and
           len(gens.entries) == 2 * system.mirrors,
           f"{len(gens.entries)} generators")

    # M = 1 and M = 2 have no normal-form generators: the two checks that
    # run on them are skipped, not passed on no input
    indices = valid_indices(system)
    no_input = f"no normal-form generators for {system.mirrors} mirrors"
    if indices:
        record_failing("dual_path_generators",
                       _route_mismatches(gens, solve_qi))
    else:
        skip("dual_path_generators", no_input)

    one = apply_L1(system, BiPoly.constant(1))
    sig = apply_L1(system, BiPoly.monomial(1, 1))
    # L(z zb) = 4 (1 - S(0)), and S(0) is the sum of the multiplicities
    expected = 4 * (1 - sum(system.multiplicity(j) for j in system.lines()))
    control = (one.is_polynomial and one.polynomial.is_zero() and
               sig.is_polynomial and
               sig.polynomial == BiPoly.constant(expected))
    record("l1_control_values", control)

    record_failing("l1_kernel", [
        name for name, annihilated in verify_L1_kernel(system, gens).entries
        if not annihilated])

    if indices:
        record_failing("uniqueness", [
            e.name for e in gens.entries
            if e.label == "q1_i" and not uniqueness_check(system, e.poly)])
    else:
        skip("uniqueness", no_input)

    record("freeness", freeness.ok, f"degrees 0..{d_max}")

    rng = random.Random(args.seed)
    by_label = {e.name: e.poly for e in gens.entries}
    candidates = [by_label[name] for name in ("q1", "q2", "q3")
                  if name in by_label]
    for i in indices:
        first = by_label[f"q1_{i}"]
        second = by_label[f"q2_{i}"]
        candidates += [first, second]
        for _ in range(3):
            w1, w2 = 0, 0
            while w1 == 0 and w2 == 0:
                w1, w2 = rng.randint(-5, 5), rng.randint(-5, 5)
            candidates.append(first.scale(w1) + second.scale(w2))
    if bad:
        skip("ideal_complement", f"built from generators outside Q: {bad}")
    else:
        record("ideal_complement", not_in_ideal_check(system, *candidates),
               f"weights in [-5, 5], seed {args.seed}")

    ok = all(c["status"] == "pass" for c in checks
             if c["status"] != "skipped")
    print(_dump({"schema_version": SCHEMA_VERSION,
                 "system": system._asdict(),
                 "seed": args.seed,
                 "max_degree": d_max,
                 "checks": checks,
                 "ok": ok}))
    return 0 if ok else 1


def _cmd_freeness(args, system: DihedralSystem) -> int:
    gens = full_basis(system)
    report = freeness_check(system, gens, args.max_degree)
    payload = {"schema_version": SCHEMA_VERSION,
               "system": system._asdict()}
    payload.update(report.to_dict())
    print(_dump(payload))
    return 0 if report.ok else 1


_COMMANDS = {
    "poincare": _cmd_poincare,
    "hilbert": _cmd_hilbert,
    "dim": _cmd_dim,
    "check": _cmd_check,
    "generators": _cmd_generators,
    "verify": _cmd_verify,
    "freeness": _cmd_freeness,
}


_PARSER = None


def main(argv=None) -> int:
    # built on the first call, not at import: parsing leaves no state in it
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    system = _system_from_args(args.subparser, args)
    try:
        code = _COMMANDS[args.command](args, system)
        # a reader that closed the pipe then raises here, not at exit
        _sys.stdout.flush()
    except QuasinvError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except BrokenPipeError:
        # point stdout at the null device, so that the interpreter's last
        # flush at exit has nothing left to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), _sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line front end.

Subcommands: poincare, hilbert, dim, check, generators, verify, freeness.
Arrangements come from ``--mirrors M --mult-even m --mult-odd n`` (or a
single ``--mult m``, mandatory for odd mirror counts).  Data goes to stdout,
diagnostics to stderr.  Exit codes: 0 success or all checks passed, 1 a
verification failed, 2 usage error.  JSON output is canonical (sorted keys,
fixed indentation) and carries a schema_version field, so identical flags
and seed reproduce byte-identical bytes.  Inputs above the caps below are
refused as usage errors before any computation.
"""

from __future__ import annotations

import argparse
import json
import random
import sys as _sys
from fractions import Fraction

from .bipoly import BiPoly, canonical_terms, from_text, to_text
from .calogero import (apply_L1, line_power_sum, uniqueness_check,
                       verify_L1_kernel)
from .dihedral import DihedralSystem
from .errors import QuasinvError
# solve_qi is not called here, but perfbench/tracer.py patches cli.solve_qi
from .generators import (GeneratorSet, full_basis, generator_from_determinant,
                         solve_qi, valid_indices)
from .modstruct import freeness_check, not_in_ideal_check
from .poincare import (SeriesPoly, degree_table, hilbert_from_poincare,
                       poincare_for_system)
from .quasi import check_per_line, crosscheck_checkers, quasi_dimension

SCHEMA_VERSION = 1

# Caps on the input, so that a mistyped value cannot start a computation
# that never ends.  MAX_DEGREE is the default ``verify`` degree bound
# (m + n + 3) M of the largest arrangement inside the caps.
MAX_MIRRORS = 32
MAX_MULTIPLICITY = 8
MAX_DEGREE = (2 * MAX_MULTIPLICITY + 3) * MAX_MIRRORS
MAX_TRIALS = 1000
# argument name -> cap
_CAPS = {"mirrors": MAX_MIRRORS, "mult_even": MAX_MULTIPLICITY,
         "mult_odd": MAX_MULTIPLICITY, "mult": MAX_MULTIPLICITY,
         "degree": MAX_DEGREE, "max_degree": MAX_DEGREE,
         "trials": MAX_TRIALS}
_CAPS_HELP = (f"Caps: --mirrors {MAX_MIRRORS}, multiplicities "
              f"{MAX_MULTIPLICITY}, degrees (also of --poly) {MAX_DEGREE}, "
              f"--trials {MAX_TRIALS}; larger values exit with code 2.")


# ---------------------------------------------------------------------------
# rendering helpers
# ---------------------------------------------------------------------------

def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _system_dict(system: DihedralSystem) -> dict:
    return {"mirrors": system.mirrors, "mult_even": system.mult_even,
            "mult_odd": system.mult_odd}


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
    """Deterministic LaTeX for a rational polynomial, canonical term order."""
    poly = poly.demote()
    if poly.order is not None:
        raise ValueError("LaTeX output supports rational coefficients only")
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
        "system": _system_dict(gens.system),
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

def _add_system_args(sub: argparse.ArgumentParser):
    sub.epilog = _CAPS_HELP
    # usage errors print the usage line of the subcommand they concern
    sub.set_defaults(subparser=sub)
    sub.add_argument("--mirrors", type=int, required=True,
                     help="number of mirror lines M")
    sub.add_argument("--mult-even", type=int, default=None,
                     help="multiplicity of the even-index lines (even M)")
    sub.add_argument("--mult-odd", type=int, default=None,
                     help="multiplicity of the odd-index lines (even M)")
    sub.add_argument("--mult", type=int, default=None,
                     help="single multiplicity (required for odd M)")


def _refuse_over_caps(parser: argparse.ArgumentParser, args):
    for name, cap in _CAPS.items():
        value = getattr(args, name, None)
        if value is not None and value > cap:
            parser.error(f"--{name.replace('_', '-')} must be at most {cap}")


def _system_from_args(parser: argparse.ArgumentParser,
                      args) -> DihedralSystem:
    try:
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
    except ValueError as exc:
        parser.error(str(exc))


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
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--oracle", action="store_true",
                   help="also run the dimension oracle and report mismatches")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = subs.add_parser("dim", help="dimension of one graded piece")
    _add_system_args(p)
    p.add_argument("--degree", type=int, required=True)

    p = subs.add_parser("check", help="quasi-invariance check of a polynomial")
    _add_system_args(p)
    p.add_argument("--poly", required=True,
                   help='canonical text form, e.g. "1*z^3*zb^0 + 3*z^1*zb^2"')

    p = subs.add_parser("generators", help="free-module generator basis")
    _add_system_args(p)
    p.add_argument("--method", choices=("solve", "det", "both"),
                   default="solve")
    p.add_argument("--format", choices=("text", "json", "latex"),
                   default="text")

    p = subs.add_parser("verify", help="run the full verification pipeline")
    _add_system_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50,
                   help="random trials for the checker-agreement test")
    p.add_argument("--max-degree", type=int, default=None,
                   help="degree bound for oracle and freeness checks")

    p = subs.add_parser("freeness", help="free module structure check")
    _add_system_args(p)
    p.add_argument("--max-degree", type=int, required=True)

    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_poincare(parser, args) -> int:
    system = _system_from_args(parser, args)
    series = poincare_for_system(system)
    if args.format == "json":
        print(_dump({"schema_version": SCHEMA_VERSION,
                     "system": _system_dict(system),
                     "coefficients": {str(d): c for d, c in series.coeffs}}))
    else:
        print(render_series(series, _POWER_FORMATS[args.format]))
    return 0


def _cmd_hilbert(parser, args) -> int:
    system = _system_from_args(parser, args)
    if args.max_degree < 0:
        parser.error("--max-degree must be nonnegative")
    series = hilbert_from_poincare(poincare_for_system(system),
                                   system.mirrors, args.max_degree)
    coefficients = series.to_list(args.max_degree)
    mismatches = []
    if args.oracle:
        for d, c in enumerate(coefficients):
            oracle = quasi_dimension(system, d)
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
                   "system": _system_dict(system),
                   "max_degree": args.max_degree,
                   "coefficients": coefficients}
        if args.oracle:
            payload["oracle_match"] = not mismatches
            payload["oracle_mismatches"] = mismatches
        print(_dump(payload))
    return 0 if not mismatches else 1


def _cmd_dim(parser, args) -> int:
    system = _system_from_args(parser, args)
    if args.degree < 0:
        parser.error("--degree must be nonnegative")
    print(quasi_dimension(system, args.degree))
    return 0


def _cmd_check(parser, args) -> int:
    system = _system_from_args(parser, args)
    try:
        poly = from_text(args.poly)
    except (ValueError, ZeroDivisionError) as exc:
        parser.error(f"cannot parse polynomial: {exc}")
    if poly.degree() > MAX_DEGREE:
        parser.error(f"--poly must have degree at most {MAX_DEGREE}")
    report = check_per_line(system, poly)
    print(_dump({"schema_version": SCHEMA_VERSION,
                 "system": _system_dict(system),
                 "poly": to_text(poly),
                 "report": report.to_dict()}))
    return 0 if report.ok else 1


def _route_mismatches(gens: GeneratorSet) -> list[str]:
    """Names of the ``q1_i`` of ``gens``, in basis order, that differ from
    the determinant route's generator of index i."""
    return [e.name for e in gens.entries
            if e.label == "q1_i" and
            e.poly != generator_from_determinant(gens.system, e.i)]


def _cmd_generators(parser, args) -> int:
    system = _system_from_args(parser, args)
    if args.method == "both":
        gens = full_basis(system, method="solve")
        mismatches = _route_mismatches(gens)
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


def _cmd_verify(parser, args) -> int:
    system = _system_from_args(parser, args)
    d_max = args.max_degree if args.max_degree is not None \
        else _default_max_degree(system)
    if d_max < 0:
        parser.error("--max-degree must be nonnegative")
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    checks = []

    def record(name, passed, detail=""):
        entry = {"name": name, "status": "pass" if passed else "fail"}
        if detail:
            entry["detail"] = detail
        checks.append(entry)

    def skip(name, detail):
        checks.append({"name": name, "status": "skipped", "detail": detail})

    agreement = crosscheck_checkers(system, trials=args.trials,
                                    max_degree=12, seed=args.seed)
    record("checker_agreement", agreement,
           f"{args.trials} seeded random homogeneous polynomials")

    gens = full_basis(system, method="solve")
    # every freeness row holds the closed-form and the oracle dimension
    freeness = freeness_check(system, gens, d_max)
    mism = [r.degree for r in freeness.rows if r.expected_dim != r.oracle_dim]
    record("hilbert_oracle", not mism,
           f"degrees 0..{d_max}" if not mism else f"mismatch at {mism}")

    bad = [e.name for e in gens.entries
           if not check_per_line(system, e.poly).ok]
    record("basis_quasi_invariance", not bad,
           "all generators" if not bad else f"failing: {bad}")

    table = [d for d, count in degree_table(system) for _ in range(count)]
    record("degree_table",
           sorted(gens.degrees()) == table and
           len(gens) == 2 * system.mirrors,
           f"{len(gens)} generators")

    # M = 1 and M = 2 have no normal-form generators: the two checks that
    # run on them are skipped, not passed on no input
    indices = valid_indices(system)
    no_input = f"no normal-form generators for {system.mirrors} mirrors"
    if indices:
        record("dual_path_generators", not _route_mismatches(gens))
    else:
        skip("dual_path_generators", no_input)

    one = apply_L1(system, BiPoly.constant(1))
    sig = apply_L1(system, BiPoly.monomial(1, 1))
    expected = Fraction(4 * (1 - line_power_sum(system, 0)))
    control = (one.is_polynomial and one.polynomial.is_zero() and
               sig.is_polynomial and
               sig.polynomial == BiPoly.constant(expected))
    record("l1_control_values", control)

    record("l1_kernel", verify_L1_kernel(system, gens).ok)

    if indices:
        record("uniqueness",
               all(uniqueness_check(system, e.poly) for e in gens.entries
                   if e.label == "q1_i"))
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
            candidates.append(first.scale(Fraction(w1)) +
                              second.scale(Fraction(w2)))
    if bad:
        skip("ideal_complement", f"built from generators outside Q: {bad}")
    else:
        record("ideal_complement", not_in_ideal_check(system, *candidates),
               f"weights in [-5, 5], seed {args.seed}")

    ok = all(c["status"] == "pass" for c in checks
             if c["status"] != "skipped")
    print(_dump({"schema_version": SCHEMA_VERSION,
                 "system": _system_dict(system),
                 "seed": args.seed,
                 "max_degree": d_max,
                 "checks": checks,
                 "ok": ok}))
    return 0 if ok else 1


def _cmd_freeness(parser, args) -> int:
    system = _system_from_args(parser, args)
    if args.max_degree < 0:
        parser.error("--max-degree must be nonnegative")
    gens = full_basis(system, method="solve")
    report = freeness_check(system, gens, args.max_degree)
    payload = {"schema_version": SCHEMA_VERSION,
               "system": _system_dict(system)}
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _refuse_over_caps(args.subparser, args)
    try:
        return _COMMANDS[args.command](args.subparser, args)
    except QuasinvError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

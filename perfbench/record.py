"""Record the reference outputs that the benchmark's correctness gate uses.

    python3 perfbench/record.py

Writes ``perfbench/reference/{verify_even,check_stream,oracle_ladder}.json``
from the library in ``src/``.  The references pin the outputs of the commit
that recorded them: re-record only when an output is meant to change, and say
so in the change that does it.

The check-stream pool is generated here from fixed per-candidate seeds and
stored as polynomial text, so a benchmark run only parses it.  Failing
candidates are random homogeneous polynomials with coefficients in [-5, 5];
passing ones are random combinations, with weights in [-3, 3], of the exact
null-space basis of their degree.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import workloads as wl


def _write(name: str, payload) -> None:
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    path = wl.REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def record_verify_even(q, cli) -> dict:
    out = {}
    for system in wl.VERIFY_LADDER:
        code, stdout = wl.run_verify(cli, wl.verify_argv(system))
        if code != 0:
            raise SystemExit(f"verify {system} exited with {code}")
        out[wl.system_key(system)] = {"code": code, "stdout": stdout}
    return out


def _random_failing(q, system, degree, rng):
    while True:
        entries = tuple(Fraction(rng.randint(-5, 5))
                        for _ in range(degree + 1))
        poly = q.CoeffVector(degree, entries).to_poly()
        if not poly.is_zero() and not q.check_per_line(system, poly).ok:
            return poly


def _random_passing(q, basis, rng):
    while True:
        poly = q.BiPoly.zero()
        for vec in basis:
            w = rng.randint(-3, 3)
            if w:
                poly = poly + vec.scale(Fraction(w))
        if not poly.is_zero():
            return poly


def _candidate(q, system, poly) -> dict:
    report = q.check_per_line(system, poly)
    coeffs = q.CoeffVector.from_poly(poly)
    grouped_ok = all(r == 0 for r in q.grouped_conditions(system, coeffs))
    if grouped_ok != report.ok:
        raise SystemExit(f"checkers disagree on {q.to_text(poly)}")
    if q.from_text(q.to_text(poly)) != poly:
        raise SystemExit(f"text round trip changed {q.to_text(poly)}")
    return {"poly": q.to_text(poly), "ok": report.ok,
            "violations": len(report.violations),
            "report_sha256": wl.report_digest(report.to_dict())}


def record_check_stream(q) -> dict:
    slots = []
    for index, triple in enumerate(wl.CHECK_SYSTEMS):
        system = q.DihedralSystem(*triple)
        passing = [d for d in range(wl.CHECK_FAIL_DEGREES[0],
                                    wl.CHECK_FAIL_DEGREES[-1] + 1)
                   if q.quasi_dimension(system, d) > 0]
        last = len(passing) - 1
        pass_degrees = [passing[round(k * last / (wl.CHECK_PASS_SLOTS - 1))]
                        for k in range(wl.CHECK_PASS_SLOTS)]
        plan = ([(d, "fail") for d in wl.CHECK_FAIL_DEGREES] +
                [(d, "pass") for d in pass_degrees])
        for degree, kind in plan:
            basis = q.quasi_basis(system, degree) if kind == "pass" else None
            candidates = []
            for c in range(wl.CHECK_CANDIDATES):
                rng = random.Random(
                    f"pool:{wl.system_key(triple)}:{degree}:{kind}:{c}")
                poly = (_random_failing(q, system, degree, rng)
                        if kind == "fail" else _random_passing(q, basis, rng))
                cand = _candidate(q, system, poly)
                if cand["ok"] != (kind == "pass"):
                    raise SystemExit(f"{kind} candidate has ok={cand['ok']}")
                candidates.append(cand)
            slots.append({"system": index, "degree": degree, "kind": kind,
                          "candidates": candidates})
    return {"systems": [list(s) for s in wl.CHECK_SYSTEMS], "slots": slots}


def record_oracle_ladder(q) -> dict:
    out = {}
    for triple, top, freeness in wl.ORACLE_LADDER:
        system = q.DihedralSystem(*triple)
        dims = q.hilbert_from_poincare(q.poincare_for_system(system),
                                       system.mirrors, top).to_list(top)
        mismatches = [d for d in range(top + 1)
                      if q.quasi_dimension(system, d) != dims[d]]
        if mismatches:
            raise SystemExit(f"oracle mismatch for {triple} at {mismatches}")
        entry = {"dims": dims}
        if freeness:
            report = q.freeness_check(system, q.full_basis(system), top)
            if not report.ok:
                raise SystemExit(f"freeness fails for {triple}")
            entry["rows"] = [row.to_dict() for row in report.rows]
        out[wl.system_key(triple)] = entry
    return out


def main() -> None:
    q, cli = wl.import_quasinv()
    _write("verify_even", record_verify_even(q, cli))
    _write("check_stream", record_check_stream(q))
    _write("oracle_ladder", record_oracle_ladder(q))


if __name__ == "__main__":
    main()

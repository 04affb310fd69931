"""The three benchmark workloads: their seeded inputs, operations and checks.

Each workload turns its seed into the list of operations of a pass.  An
operation's ``run`` is the timed call into quasinv; its ``check`` compares the
result with the reference recorded in ``reference/`` and is not timed.  The
library only ever sees the generated inputs, never the seed.

- verify-even: ``quasinv verify`` through ``cli.main`` on an even ladder.
  The seed only orders the ladder: every call uses the CLI defaults, so its
  byte-exact JSON is fixed.
- check-stream: ``check_per_line`` plus ``grouped_conditions`` on a stream of
  100 homogeneous polynomials.  The stream has fixed slots (system, degree,
  failing or passing); the seed picks one recorded candidate per slot and
  the order.  Fixing the slots keeps the cost of a pass nearly independent
  of the seed, so latency percentiles from different seeds are comparable.
- oracle-ladder: the graded dimension oracle at every degree against the
  Hilbert series, then ``full_basis`` plus ``freeness_check``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
from functools import partial
from pathlib import Path
from typing import Any, Callable, NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE_DIR = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"

WORKLOADS = ("verify-even", "check-stream", "oracle-ladder")

# (mirrors, mult_even, mult_odd)
VERIFY_LADDER = [(4, 1, 0), (6, 1, 2), (8, 2, 1), (12, 2, 2)]
VERIFY_TINY = [(4, 1, 0)]

CHECK_SYSTEMS = [(7, 2, 2), (9, 1, 1), (8, 2, 1), (12, 2, 2), (16, 3, 2)]
CHECK_FAIL_DEGREES = [4 + round(k * 20 / 14) for k in range(15)]
CHECK_PASS_SLOTS = 5
CHECK_CANDIDATES = 4
CHECK_TINY_MAX_DEGREE = 5

# (system, top degree, run the freeness stage)
ORACLE_LADDER = [((16, 3, 2), 96, True), ((24, 4, 4), 96, True),
                 ((9, 3, 3), 96, False)]
ORACLE_TINY = [((16, 3, 2), 20, True), ((9, 3, 3), 20, False)]


class Op(NamedTuple):
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def system_key(system) -> str:
    return ",".join(str(v) for v in system)


def report_digest(report_dict) -> str:
    """SHA-256 of the canonical JSON of a ``QuasiReport.to_dict()``."""
    text = json.dumps(report_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def verify_argv(system) -> list[str]:
    mirrors, m, n = system
    return ["verify", "--mirrors", str(mirrors), "--mult-even", str(m),
            "--mult-odd", str(n)]


def run_verify(cli, argv):
    """One ``quasinv verify`` call; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def import_quasinv():
    """Import quasinv and its CLI from this checkout's ``src``, never from
    an installed copy."""
    sys.path.insert(0, str(SOURCE_DIR))
    q = importlib.import_module("quasinv")
    cli = importlib.import_module("quasinv.cli")
    if Path(q.__file__).resolve().parent != SOURCE_DIR / "quasinv":
        raise ImportError(f"quasinv was imported from {q.__file__}, "
                          f"not from {SOURCE_DIR}")
    return q, cli


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / (workload.replace("-", "_") + ".json")
    with path.open() as fh:
        return json.load(fh)


def build(workload: str, q, cli, reference: dict, seed: int,
          tiny: bool) -> list[Op]:
    """Seeded operations of one pass.  ``q`` is the quasinv package and
    ``cli`` its CLI module; both are looked up at call time, so wrappers
    installed after the build are seen."""
    rng = random.Random(f"{workload}:{seed}")
    builder = {"verify-even": _verify_even, "check-stream": _check_stream,
               "oracle-ladder": _oracle_ladder}[workload]
    return builder(q, cli, reference, rng, tiny)


def _verify_even(q, cli, reference, rng, tiny):
    ladder = VERIFY_TINY if tiny else VERIFY_LADDER
    ops = []
    for system in rng.sample(ladder, len(ladder)):
        expected = reference[system_key(system)]
        ops.append(Op(
            f"verify {system_key(system)}",
            partial(run_verify, cli, verify_argv(system)),
            lambda got, e=expected: got == (e["code"], e["stdout"])))
    return ops


def _check_stream(q, cli, reference, rng, tiny):
    systems = [q.DihedralSystem(*s) for s in reference["systems"]]
    slots = reference["slots"]
    if tiny:
        slots = [s for s in slots if s["degree"] <= CHECK_TINY_MAX_DEGREE]
    ops = []
    for slot in rng.sample(slots, len(slots)):
        cand = rng.choice(slot["candidates"])
        system = systems[slot["system"]]
        poly = q.from_text(cand["poly"])
        coeffs = q.CoeffVector.from_poly(poly)
        ops.append(Op(
            f"check {system_key(reference['systems'][slot['system']])} "
            f"deg {slot['degree']} {slot['kind']}",
            partial(_run_check, q, system, poly, coeffs),
            partial(_check_report, cand)))
    return ops


def _run_check(q, system, poly, coeffs):
    return q.check_per_line(system, poly), q.grouped_conditions(system, coeffs)


def _check_report(cand, got) -> bool:
    report, residuals = got
    grouped_ok = all(r == 0 for r in residuals)
    return (report.ok == grouped_ok == cand["ok"] and
            report_digest(report.to_dict()) == cand["report_sha256"])


def _oracle_ladder(q, cli, reference, rng, tiny):
    ladder = ORACLE_TINY if tiny else ORACLE_LADDER
    ops = []
    for system, top, freeness in rng.sample(ladder, len(ladder)):
        key = system_key(system)
        expected = reference[key]
        dims = expected["dims"][:top + 1]
        sys_ = q.DihedralSystem(*system)
        ops.append(Op(f"hilbert {key}",
                      partial(_hilbert, q, sys_, top),
                      lambda got, dims=dims: got == dims))
        for d in range(top + 1):
            ops.append(Op(f"oracle {key} deg {d}",
                          partial(_oracle, q, sys_, d),
                          lambda got, want=dims[d]: got == want))
        if freeness:
            rows = expected["rows"][:top + 1]
            ops.append(Op(f"freeness {key}",
                          partial(_freeness, q, sys_, top),
                          lambda got, rows=rows: got == rows))
    return ops


def _hilbert(q, system, top):
    series = q.hilbert_from_poincare(q.poincare_for_system(system),
                                     system.mirrors, top)
    return series.to_list(top)


def _oracle(q, system, degree):
    return q.quasi_dimension(system, degree)


def _freeness(q, system, top):
    report = q.freeness_check(system, q.full_basis(system), top)
    return [row.to_dict() for row in report.rows]

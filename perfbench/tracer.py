"""Per-layer tracing of quasinv, installed from outside the library.

The traced run wraps the public functions of each quasinv module.  A wrapper
replaces the name in every quasinv module that holds it, because
``from .bipoly import x`` copies the reference into the importing module.
Every wrapper counts calls and keeps self time: its own duration minus the
time of the wrapped calls made inside it.  Wrappers also record a span
(name, start, end, parent span, operation index), except on functions called
more than about 10^5 times per run, whose per-call spans would cost more
than the work they describe; those still charge their time to the caller.

Counts that depend on arguments (``terms``, ``cells``, ``pow_path``) are
computed from the arguments seen at the boundary, so for one seed they repeat
exactly from run to run.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter, defaultdict
from pathlib import Path

# Reported metrics, in output order, with their units.  ``calls``, ``terms``,
# ``cells``, ``pow_path`` and ``not_divisible`` are counts; ``*_s`` are
# seconds of self time, except the CLI stages, which are inclusive.
CLI_STAGE_NAMES = ("checker_agreement", "hilbert_oracle", "basis",
                   "basis_quasi_invariance", "dual_path", "l1_kernel",
                   "uniqueness", "freeness", "ideal_complement")

PER_LAYER = (
    [(f"cli.stage.{s}_s", "s") for s in CLI_STAGE_NAMES] +
    [("cli.render_s", "s")] +
    [(name, "count" if name.rsplit(".", 1)[1] != "self_s" else "s")
     for name in (
         "quasi.check_per_line.calls", "quasi.check_per_line.self_s",
         "bipoly.normal_derivative.calls", "bipoly.normal_derivative.self_s",
         "bipoly.normal_derivative.terms",
         "bipoly.restrict_to_line.calls", "bipoly.restrict_to_line.self_s",
         "scalars.cyclo_mul.calls", "scalars.cyclo_mul.self_s",
         "scalars.cyclo_inverse.calls",
         "scalars.root_of_unity.calls", "scalars.root_of_unity.pow_path",
         "bipoly.divide_by_linear.calls", "bipoly.divide_by_linear.self_s",
         "bipoly.divide_by_linear.not_divisible",
         "calogero.apply_L1.calls", "calogero.apply_L1.self_s",
         "calogero.uniqueness_check.self_s",
         "scalars.exact_rank.calls", "scalars.exact_rank.self_s",
         "scalars.exact_rank.cells",
         "scalars.nullspace.calls", "scalars.nullspace.self_s",
         "scalars.nullspace.cells",
         "scalars.solve_affine.self_s", "scalars.solve_exact.self_s",
         "scalars.det_fraction_free.self_s",
         "quasi.grouped_rows.calls", "quasi.grouped_rows.self_s",
         "quasi.quasi_dimension.calls", "quasi.quasi_basis.calls",
         "quasi.crosscheck_checkers.self_s",
         "bipoly.mul.calls", "bipoly.mul.self_s",
         "modstruct.freeness_check.self_s",
         "modstruct.not_in_ideal_check.calls",
         "modstruct.not_in_ideal_check.self_s",
         "generators.full_basis.calls", "generators.full_basis.self_s",
         "generators.solve_qi.calls", "generators.solve_qi.self_s",
         "generators.generator_from_determinant.self_s",
         "poincare.hilbert_from_poincare.self_s")] +
    [("quasi.graded.distinct_ratio", "ratio"), ("trace.overhead_s", "s")])

# Metrics that must repeat exactly for one seed.
COUNT_SUFFIXES = (".calls", ".cells", ".terms", ".pow_path",
                  ".not_divisible", ".distinct_ratio")

# The calls ``_cmd_verify`` makes through the CLI module's namespace, by
# pipeline stage.  ``valid_indices`` is left out: it only lists indices.
CLI_STAGES = {
    "crosscheck_checkers": "checker_agreement",
    "poincare_for_system": "hilbert_oracle",
    "hilbert_from_poincare": "hilbert_oracle",
    "quasi_dimension": "hilbert_oracle",
    "full_basis": "basis",
    "degree_table": "basis",
    "check_per_line": "basis_quasi_invariance",
    "solve_qi": "dual_path",
    "generator_from_determinant": "dual_path",
    "apply_L1": "l1_kernel",
    "verify_L1_kernel": "l1_kernel",
    "uniqueness_check": "uniqueness",
    "freeness_check": "freeness",
    "not_in_ideal_check": "ideal_complement",
}


@functools.lru_cache(maxsize=None)
def _euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _note_pow_path(tracer, order, k):
    # root_of_unity builds zeta**k by repeated squaring when k >= phi(order)
    if k % order >= _euler_phi(order):
        tracer.extra["scalars.root_of_unity.pow_path"] += 1


def _note_terms(tracer, p, j, mirrors):
    tracer.extra["bipoly.normal_derivative.terms"] += len(p.terms)


def _note_rank_cells(tracer, rows, ncols=None):
    width = ncols if ncols is not None else (len(rows[0]) if rows else 0)
    tracer.extra["scalars.exact_rank.cells"] += len(rows) * width


def _note_nullspace_cells(tracer, rows, ncols):
    tracer.extra["scalars.nullspace.cells"] += len(rows) * ncols


def _note_graded(tracer, system, degree):
    tracer.graded.add((system, degree))


MODULES = ("scalars", "bipoly", "dihedral", "quasi", "poincare",
           "generators", "calogero", "modstruct", "cli", "errors")

# (module, function, record spans, argument note)
FUNCTIONS = [
    ("scalars", "root_of_unity", False, _note_pow_path),
    ("scalars", "exact_rank", True, _note_rank_cells),
    ("scalars", "nullspace", True, _note_nullspace_cells),
    ("scalars", "solve_affine", True, None),
    ("scalars", "solve_exact", True, None),
    ("scalars", "det_fraction_free", True, None),
    ("bipoly", "normal_derivative", True, _note_terms),
    ("bipoly", "restrict_to_line", True, None),
    ("bipoly", "divide_by_linear", True, None),
    ("quasi", "check_per_line", True, None),
    ("quasi", "grouped_rows", True, _note_graded),
    ("quasi", "quasi_dimension", True, None),
    ("quasi", "quasi_basis", True, None),
    ("quasi", "crosscheck_checkers", True, None),
    ("poincare", "hilbert_from_poincare", True, None),
    ("generators", "full_basis", True, None),
    ("generators", "solve_qi", True, None),
    ("generators", "generator_from_determinant", True, None),
    ("calogero", "apply_L1", True, None),
    ("calogero", "uniqueness_check", True, None),
    ("modstruct", "freeness_check", True, None),
    ("modstruct", "not_in_ideal_check", True, None),
]

# (module, class, method names sharing one function, metric name, spans)
METHODS = [
    ("scalars", "CycloElem", ("__mul__", "__rmul__"), "scalars.cyclo_mul",
     False),
    ("scalars", "CycloElem", ("inverse",), "scalars.cyclo_inverse", False),
    ("bipoly", "BiPoly", ("__mul__", "__rmul__"), "bipoly.mul", False),
]


class Tracer:
    """Call counts, self times and spans of the wrapped functions, timed
    with ``clock`` (seconds as a float)."""

    def __init__(self, clock):
        self.clock = clock
        # one frame per active wrapped call: [child seconds, span id]
        self.stack = [[0.0, None]]
        self.stats: dict[str, list] = {}   # name -> [calls, self s, total s]
        self.extra: Counter = Counter()
        self.graded: set = set()
        self.spans: list = []
        self.op = None

    def wrap(self, name, fn, spans=True, note=None, error=None):
        """Wrap ``fn``.  ``note(tracer, *args)`` sees the arguments;
        ``error`` is (exception type, counter) for an exception that is
        counted and re-raised."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, clock, span_list = self.stack, self.clock, self.spans
        error_type, error_counter = error or ((), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if note is not None:
                note(self, *args, **kwargs)
            parent = stack[-1]
            if spans:
                sid = len(span_list)
                span_list.append(None)
            else:
                sid = parent[1]
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except error_type:
                self.extra[error_counter] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                stats[0] += 1
                stats[1] += elapsed - frame[0]
                stats[2] += elapsed
                if spans:
                    span_list[sid] = (name, start, end, parent[1], self.op)
        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap the library functions in every module of ``modules`` (short
        name -> module: each of ``MODULES`` plus the package itself under
        ``""``), then the CLI stages and ``cli.main``."""
        not_divisible = modules["errors"].NotDivisible
        for mod_name, attr, spans, note in FUNCTIONS:
            original = getattr(modules[mod_name], attr)
            error = ((not_divisible, "bipoly.divide_by_linear.not_divisible")
                     if attr == "divide_by_linear" else None)
            wrapper = self.wrap(f"{mod_name}.{attr}", original, spans, note,
                                error)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        for mod_name, cls_name, methods, name, spans in METHODS:
            cls = getattr(modules[mod_name], cls_name)
            wrapper = self.wrap(name, getattr(cls, methods[0]), spans)
            for method in methods:
                setattr(cls, method, wrapper)
        cli = modules["cli"]
        for attr, stage in CLI_STAGES.items():
            setattr(cli, attr,
                    self.wrap(f"cli.stage.{stage}", getattr(cli, attr)))
        cli.main = self.wrap("cli.main", cli.main)

    def _stat(self, name, index):
        return self.stats.get(name, [0, 0.0, 0.0])[index]

    def metrics(self) -> dict:
        """Every per-layer metric except ``trace.overhead_s``, which needs an
        untraced pass; layers a workload never calls report 0."""
        out = {}
        for name, _unit in PER_LAYER:
            if name.startswith("cli.stage."):
                out[name] = self._stat(name[:-2], 2)
            elif name == "cli.render_s":
                out[name] = self._stat("cli.main", 1)
            elif name == "quasi.graded.distinct_ratio":
                calls = self._stat("quasi.grouped_rows", 0)
                out[name] = len(self.graded) / calls if calls else 0.0
            elif name.endswith(".calls"):
                out[name] = self._stat(name[:-6], 0)
            elif name.endswith(".self_s"):
                out[name] = self._stat(name[:-7], 1)
            elif name != "trace.overhead_s":
                out[name] = self.extra[name]
        return out

    def module_self_s(self) -> dict:
        """Self seconds summed by module over every wrapped function."""
        shares = defaultdict(float)
        for name, (_calls, self_s, _total) in self.stats.items():
            shares[name.split(".", 1)[0]] += self_s
        return dict(shares)

    def dump_spans(self, path: Path) -> None:
        names = sorted({span[0] for span in self.spans})
        index = {name: k for k, name in enumerate(names)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent",
                                  "op"],
                       "names": names,
                       "spans": [[index[n], s, e, p, op]
                                 for n, s, e, p, op in self.spans]}, fh)

"""The quasinv benchmark.

    python3 perfbench/run.py --seed N --seconds S --trace {0,1} [--tiny]
        --workload {verify-even,check-stream,oracle-ladder}

Run from the root of a checkout; it needs ``src/quasinv`` there.  A run is a
closed loop with one client.  Five set-up-only workers first time importing
quasinv and building the seeded inputs.  Then passes of the workload run one
after another, each in a fresh worker process (``worker.py``) on the same
inputs: at least two, and more while the next still fits in ``--seconds``.

With ``--trace 0`` it prints the end-to-end metrics.  With ``--trace 1`` it
runs rounds of one untraced and one traced pass, again at least two, and
prints the per-layer metrics, including the tracing overhead.  ``--tiny``
shrinks each workload to a few small operations, for the smoke test.  The
last stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 0 whenever it is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from tracer import CLI_STAGE_NAMES, COUNT_SUFFIXES, PER_LAYER

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB")]
SETUP_PROBES = 5
MIN_PASSES = 2
DEADLINE_S = 170.0
WORKER = Path(__file__).resolve().parent / "worker.py"


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def p90(values):
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


class Runner:
    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def worker(self, *flags):
        """Run one worker; returns its JSON payload, or None if it failed."""
        cmd = [sys.executable, str(WORKER), "--workload", self.args.workload,
               "--seed", str(self.args.seed), *flags]
        if self.args.tiny:
            cmd.append("--tiny")
        try:
            proc = subprocess.run(cmd, cwd=wl.ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=max(self.remaining(), 1))
        except subprocess.TimeoutExpired:
            print("a worker timed out", file=sys.stderr)
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"a worker exited with {proc.returncode}", file=sys.stderr)
            return None
        return json.loads(lines[-1])

    def probes(self):
        """Set-up samples and the number of operations in a pass."""
        samples = []
        for _ in range(SETUP_PROBES):
            result = self.worker("--setup-only")
            if result is None:
                raise BenchError("a set-up worker failed")
            samples.append(result["setup_s"])
        return samples, result["ops"]

    def rounds(self, flag_sets, min_rounds):
        """Rounds of one pass per entry of ``flag_sets``: at least
        ``min_rounds``, then more while another fits in ``--seconds``."""
        start = time.monotonic()
        rounds, durations = [], []
        while True:
            round_start = time.monotonic()
            rounds.append([self.worker(*flags) for flags in flag_sets])
            durations.append(time.monotonic() - round_start)
            estimate = statistics.median(durations)
            if estimate > self.remaining() - 5:
                return rounds
            if (len(rounds) >= min_rounds and
                    time.monotonic() - start + estimate > self.args.seconds):
                return rounds


def _count_outcomes(results, planned_ops):
    """A worker that died counts every operation of its pass as failed."""
    attempted = failed = 0
    for result in results:
        attempted += planned_ops if result is None else result["attempted"]
        failed += planned_ops if result is None else result["failed"]
    return attempted, failed


def _figures(values):
    return ", ".join(f"{v:.4g}" for v in values)


def end_to_end(runner):
    setups, planned = runner.probes()
    results = [r for (r,) in runner.rounds([()], MIN_PASSES)]
    attempted, failed = _count_outcomes(results, planned)
    done = [r for r in results if r is not None]
    if not done:
        raise BenchError("no pass completed")
    setups += [r["setup_s"] for r in done]
    walls = [r["wall_s"] for r in done]
    raw_walls = [r["raw_wall_s"] for r in done]
    # Every pass runs the same operations; an operation's latency is its
    # median over the passes.
    per_op = [statistics.median(op)
              for op in zip(*(r["latencies_ms"] for r in done))]
    peaks = [r["peak_rss_mb"] for r in done]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(per_op),
        "op_p90_ms": p90(per_op),
        "peak_rss_mb": statistics.median(peaks),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"median of {len(walls)} passes: {_figures(walls)}; "
                  f"raw {_figures(raw_walls)}",
        "op_p50_ms": f"{len(per_op)} operations, each the median of "
                     f"{len(done)} passes",
        "op_p90_ms": f"{len(per_op)} operations, nearest rank",
        "peak_rss_mb": f"median of {len(peaks)} workers: {_figures(peaks)}",
    }
    lines = [(name, metrics[name], unit, notes[name])
             for name, unit in END_TO_END]
    lines.append(("fail_ratio", failed / attempted, "ratio",
                  f"{failed} of {attempted} operations failed"))
    return attempted, failed, metrics, dict(END_TO_END), lines


def per_layer(runner):
    _, planned = runner.probes()
    spans = f"perfbench/out/spans-{runner.args.workload}-" \
            f"seed{runner.args.seed}.json"
    rounds = runner.rounds([(), ("--trace", "--spans", spans)], MIN_PASSES)
    attempted, failed = _count_outcomes([r for pair in rounds for r in pair],
                                        planned)
    plain = [p for p, _ in rounds if p is not None]
    traced = [t for _, t in rounds if t is not None]
    if not plain or not traced:
        raise BenchError("no untraced and traced pair completed")
    metrics = {}
    for name, _unit in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        values = [t["layers"][name] for t in traced]
        if name.endswith(COUNT_SUFFIXES):
            if len(set(values)) != 1:
                raise BenchError(f"{name} differs between passes with the "
                                 f"same inputs: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    overhead = (statistics.median(t["wall_s"] for t in traced) -
                statistics.median(p["wall_s"] for p in plain))
    metrics["trace.overhead_s"] = overhead
    # Layer times are raw, so they are compared with raw pass times.
    traced_wall = statistics.median(t["raw_wall_s"] for t in traced)
    lines = [(name, metrics[name], unit, "") for name, unit in PER_LAYER]
    lines.append(("traced raw wall_s", traced_wall, "s",
                  f"median of {len(traced)} traced passes"))
    for module in sorted(traced[0]["module_self_s"]):
        share = statistics.median(t["module_self_s"][module]
                                  for t in traced) / traced_wall
        lines.append((f"share.{module}", share, "ratio",
                      "self time of its wrapped functions / traced raw wall"))
    if runner.args.workload == "verify-even":
        remainder = max(
            t["raw_wall_s"] - t["layers"]["cli.render_s"] -
            sum(t["layers"][f"cli.stage.{stage}_s"]
                for stage in CLI_STAGE_NAMES)
            for t in traced)
        lines.append(("cli.unaccounted_s", remainder, "s",
                      "traced wall_s - cli.stage.* - cli.render_s, "
                      "largest over traced passes"))
        if remainder > abs(overhead):
            raise BenchError(f"the CLI stages leave {remainder:.6f} s of the "
                             f"traced wall time unaccounted, more than the "
                             f"{overhead:.6f} s tracing overhead")
    return attempted, failed, metrics, dict(PER_LAYER), lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small operations per workload")
    args = parser.parse_args(argv)
    if not (wl.SOURCE_DIR / "quasinv" / "__init__.py").is_file():
        print(f"error: no quasinv sources under {wl.SOURCE_DIR}",
              file=sys.stderr)
        return 2
    runner = Runner(args)
    try:
        attempted, failed, metrics, units, lines = (
            per_layer(runner) if args.trace else end_to_end(runner))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"# workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}{', tiny' if args.tiny else ''}")
    for name, value, unit, note in lines:
        print(f"{name:46s} {value!r:>24} {unit:5s} {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""One benchmark pass in a fresh interpreter; ``run.py`` starts it.

    python3 perfbench/worker.py --workload NAME --seed N
        [--trace] [--tiny] [--setup-only] [--spans PATH]

Times the set-up (importing quasinv and building the pass's seeded inputs),
then runs the operations one after another, then checks every result against
the recorded reference.  Prints one JSON object as its last stdout line.
Timings are reported raw and corrected for the host's speed (``hostspeed``).

Each pass runs in its own process, as one ``quasinv`` invocation would, so a
cache that outlives a process cannot carry work from one pass to the next.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import traceback

import hostspeed
import workloads as wl
from tracer import MODULES, Tracer


FAILED = object()


def traced_run(q, clock) -> Tracer:
    tracer = Tracer(clock)
    modules = {name: importlib.import_module(f"quasinv.{name}")
               for name in MODULES}
    modules[""] = q
    tracer.install(modules)
    return tracer


def run_ops(ops, clock, tracer):
    """Run the operations one after another; returns their results (FAILED
    for an exception) and their (start, end) clock readings."""
    results, intervals = [], []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        start = clock()
        try:
            result = op.run()
        except Exception:
            print(f"{op.label}: raised", file=sys.stderr)
            traceback.print_exc()
            result = FAILED
        intervals.append((start, clock()))
        results.append(result)
    return results, intervals


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    reference = wl.load_reference(args.workload)
    with hostspeed.SpeedMeter() as meter:
        setup_start = meter.clock()
        q, cli = wl.import_quasinv()
        ops = wl.build(args.workload, q, cli, reference, args.seed,
                       args.tiny)
        setup_end = meter.clock()
        if not args.setup_only:
            tracer = traced_run(q, meter.clock) if args.trace else None
            results, intervals = run_ops(ops, meter.clock, tracer)
    setup = (setup_end - setup_start, meter.corrected(setup_start, setup_end))
    if args.setup_only:
        print(json.dumps({"raw_setup_s": setup[0], "setup_s": setup[1],
                          "ops": len(ops)}))
        return 0

    failed = 0
    for op, result in zip(ops, results):
        if result is FAILED:
            failed += 1
        elif not op.check(result):
            print(f"{op.label}: output differs from the reference",
                  file=sys.stderr)
            failed += 1
    latencies = [meter.corrected(*interval) for interval in intervals]
    payload = {
        "raw_setup_s": setup[0],
        "setup_s": setup[1],
        "raw_wall_s": sum(end - start for start, end in intervals),
        "wall_s": sum(latencies),
        "latencies_ms": [t * 1000.0 for t in latencies],
        "attempted": len(ops),
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        payload["layers"] = tracer.metrics()
        payload["module_self_s"] = tracer.module_self_s()
        if args.spans:
            tracer.dump_spans(wl.ROOT / args.spans)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

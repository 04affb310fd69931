"""Run ``quasinv verify`` on every arrangement inside the CLI caps.

Usage: ``PYTHONPATH=src python -O tests/sweep_caps.py``

Every mirror count M = 1..MAX_MIRRORS is swept: for even M every pair of
multiplicities (m, n) in 0..MAX_MULTIPLICITY, and for odd M every single
multiplicity, 1,440 arrangements in all.  Each runs ``cli.main`` in process
with the command's defaults, the arguments a shell invocation would pass,
and its JSON report is read back.  The work is split over
``os.cpu_count()`` worker processes, largest arrangements first.  The script
prints the slowest five and exits 1 when any arrangement exits with a code
other than 0 or reports an ``ok`` other than ``true``.  pytest does not
collect it: its name does not start with ``test_``.
"""

import contextlib
import io
import json
import os
import sys
import time
import traceback
from multiprocessing import get_context

from quasinv import cli


def arrangements():
    """The verify arguments of every arrangement inside the caps."""
    mults = range(cli.MAX_MULTIPLICITY + 1)
    for mirrors in range(1, cli.MAX_MIRRORS + 1):
        if mirrors % 2:
            for m in mults:
                yield ("--mirrors", str(mirrors), "--mult", str(m))
        else:
            for m in mults:
                for n in mults:
                    yield ("--mirrors", str(mirrors), "--mult-even", str(m),
                           "--mult-odd", str(n))


def verify(args):
    """(args, seconds, problem): problem is None when the run passed."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", *args])
    except SystemExit as exc:   # a usage error; it would end the worker
        code = exc.code
    except Exception:
        return args, time.perf_counter() - start, traceback.format_exc()
    seconds = time.perf_counter() - start
    if code != 0:
        return args, seconds, f"exit code {code}"
    try:
        ok = json.loads(out.getvalue())["ok"]
    except (ValueError, KeyError, TypeError) as exc:
        return args, seconds, f"unreadable report ({exc!r})"
    return args, seconds, None if ok is True else f"ok is {ok!r}"


def _size(args):
    # M times the largest multiplicity: the degree bound grows with both
    return int(args[1]) * max(int(x) for x in args[3::2])


def main() -> int:
    workers = os.cpu_count() or 1
    jobs = sorted(arrangements(), key=_size, reverse=True)
    start = time.perf_counter()
    with get_context("spawn").Pool(workers) as pool:
        results = list(pool.imap_unordered(verify, jobs))
    wall = time.perf_counter() - start
    failed = [(args, problem) for args, _, problem in results if problem]
    print(f"{len(results)} arrangements, {len(failed)} failed, "
          f"{wall:.1f} s on {workers} workers, "
          f"{sum(s for _, s, _ in results):.1f} s in verify")
    print("slowest five:")
    for args, seconds, _ in sorted(results, key=lambda r: -r[1])[:5]:
        print(f"  {seconds:7.2f} s  verify {' '.join(args)}")
    for args, problem in failed:
        print(f"FAILED verify {' '.join(args)}: {problem}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

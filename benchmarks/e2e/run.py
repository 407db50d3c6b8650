"""One command for the whole benchmark.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace 0|1] [--out FILE]

Without ``--workload`` all six run, each in a process of its own so that one
workload's memory does not count toward the next one's peak.  ``--trace 0``
(default) is the end-to-end pass, measured with tracing off; ``--trace 1`` is
the shorter traced pass that yields the per-layer metrics.  Every metric is
printed by name with its unit; the last line of standard output is one JSON
object (``correct``, ``attempted``, ``failed``, ``metrics``).  Exits 1 when
any op failed.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

from e2ebench import WORKLOADS, report  # noqa: E402


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload's result document (see ``report.document``)."""
    return report.document(WORKLOADS[name](seed, seconds, trace), trace, report.declared())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), help="default: all six")
    parser.add_argument("--seed", type=int, default=0, help="every input derives from it")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed work per workload; op counts scale with it (0.1 = smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the full result document here")
    args = parser.parse_args(argv)

    document = {
        "environment": report.environment(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "workloads": {},
    }
    names = [args.workload] if args.workload else list(WORKLOADS)
    # Several workloads: each in a fresh process, one at a time.
    spawn = multiprocessing.get_context("spawn")
    pool = spawn.Pool(1, maxtasksperchild=1) if len(names) > 1 else None
    try:
        for name in names:
            job = (name, args.seed, args.seconds, bool(args.trace))
            result = pool.apply(run_workload, job) if pool else run_workload(*job)
            document["workloads"][name] = result
            print(report.table(name, result), flush=True)
    finally:
        if pool:
            pool.terminate()
            pool.join()
    if args.out:
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    print(report.result_line(document["workloads"]))
    return 1 if any(r["failed"] for r in document["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())

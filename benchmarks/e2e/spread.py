"""Run-to-run spread of every end-to-end metric, the way the acceptance check takes it.

    python3 benchmarks/e2e/spread.py [--workload NAME ...] [--seeds 10] [--first-seed 0]
                                     [--batches 1]

Runs ``run.py`` once per seed (each seed is other inputs), then prints for
each (workload, metric) the median over the runs and the distance between the
first and third quartile as a share of that median, next to the metric's
bound from ``BENCHMARK.json``.  A spread above a third of the bound is marked
``!``, above the bound ``!!``.  With ``--batches 2`` the same seeds run a
second time and a median that got worse by more than the bound is marked
``<<``.  Exits 1 on any ``!!`` (``setup_s`` exempt) or ``<<``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def run_once(workload: str, seed: int, seconds: int) -> dict[str, float]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=180,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} ops failed")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--batches", type=int, default=1, choices=(1, 2))
    args = parser.parse_args()

    over = False
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        first: dict[str, float] = {}
        for batch in range(args.batches):
            runs = [
                run_once(workload, args.first_seed + offset, spec["run_seconds"])
                for offset in range(args.seeds)
            ]
            print(f"== {workload}: {args.seeds} seeds from {args.first_seed}, batch {batch + 1}")
            for entry in spec["end_to_end"]:
                name, bound = entry["name"], entry["bound"]
                values = [run[name] for run in runs]
                median = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
                mark = "!!" if spread > bound else "!" if spread > bound / 3 else ""
                over |= mark == "!!" and name != "setup_s"
                worse = (median - first.setdefault(name, median)) / first[name]
                if (-worse if entry["better"] == "higher" else worse) > bound:
                    mark += " <<"
                    over = True
                print(f"   {name:<24s} median {median:>14.6g}   spread {spread:7.4f}   "
                      f"bound {bound:.2f} {mark}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())

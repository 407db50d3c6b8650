"""Compare two result files of ``run.py --out``: one row per (workload, metric).

    python3 benchmarks/e2e/compare.py A.json B.json

A is the baseline, B the candidate.  Each row shows both values, the quartiles
of the slices behind them, the bound from ``BENCHMARK.json`` and a verdict.
A value's *noise* is what ``run.py`` recorded beside it: for a best-of-slices
timing the gap to the third-best slice, otherwise the quartile distance.

``worse`` / ``better``
    B's value moved by more than the bound (and by more than the noise, if
    the noise is the wider of the two);
``unresolved``
    the move is within the bound, but either side's noise is wider than the
    bound, so "no change" cannot be claimed;
``unchanged``
    the move is within the bound and so is the noise.

Exits 1 on any ``worse`` or any rise in ``failed_share``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """(verdict, change) with ``change`` > 0 meaning B is worse, as a share of A."""
    change = (b["value"] - a["value"]) / a["value"]
    if better == "higher":
        change = -change
    noise = max(a["noise"], b["noise"])
    if abs(change) > max(bound, noise):
        return ("worse" if change > 0 else "better"), change
    return ("unresolved" if noise > bound else "unchanged"), change


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], bool]:
    """The report lines, and whether anything got worse."""
    lines = [f"A: seed {a['seed']} commit {a['environment']['git_commit'][:12]} "
             f"cpus {a['environment']['cpu_count']}    "
             f"B: seed {b['seed']} commit {b['environment']['git_commit'][:12]} "
             f"cpus {b['environment']['cpu_count']}",
             "value [q1, q3 of its samples] A -> B, and the share of A by which B is worse (+)"]
    failed = False
    for workload, result_a in a["workloads"].items():
        result_b = b["workloads"].get(workload)
        if result_b is None:
            continue
        share_a, share_b = result_a["failed_share"], result_b["failed_share"]
        rose = share_b > share_a
        failed |= rose
        lines.append(f"== {workload}: failed_share {share_a:.6f} -> {share_b:.6f}"
                     + ("  WORSE" if rose else ""))
        for entry in spec["end_to_end"]:
            name = entry["name"]
            metric_a, metric_b = result_a["metrics"][name], result_b["metrics"][name]
            word, change = verdict(metric_a, metric_b, entry["better"], entry["bound"])
            failed |= word == "worse"
            lines.append(
                f"   {name:<24s} {metric_a['value']:>14.6g} [{metric_a['q1']:.5g}, "
                f"{metric_a['q3']:.5g}] -> {metric_b['value']:>14.6g} [{metric_b['q1']:.5g}, "
                f"{metric_b['q3']:.5g}] {entry['unit']:<6s} {change:+8.2%}  "
                f"bound {entry['bound']:.0%}  {word}"
            )
    return lines, failed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    if a["trace"] or b["trace"]:
        print("compare.py compares end-to-end passes (--trace 0), not traced ones")
        return 2
    lines, failed = compare(a, b, json.loads((ROOT / "BENCHMARK.json").read_text()))
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

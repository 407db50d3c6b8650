"""Compare a fresh ``BENCH_*.json`` report against a committed baseline.

The crash-if-slower gate of the CI bench job, also runnable locally::

    PYTHONPATH=src python benchmarks/bench_perf_suite.py
    PYTHONPATH=src python benchmarks/compare_bench.py \
        --baseline /tmp/bench_baseline.json --current BENCH_segment_kernels.json \
        --metric engine_per_query_warm --max-ratio 2.0

For every ``--metric NAME [--max-ratio X]`` pair the gate fails (exit 1) when
the current run is more than X times *worse* than the committed report.  The
direction is unit-aware: for seconds-unit metrics worse means slower
(``current / baseline > X``); for rate and ratio units (``qps``, ``x``)
higher is better, so the gate inverts (``baseline / current > X`` — e.g. a
throughput metric fails when it drops below 1/X of the baseline).  Metrics
present in both reports are always printed for context; metrics measured for
the first time (current only) are printed marked ``(new)``.  A gated metric
missing from the *baseline* is a warning, not a failure (the metric was
introduced after the baseline was committed) — likewise one missing from
*both* reports (a first-run metric whose bench has not produced a baseline
yet).  Missing from the *current* report while the baseline has it is a
failure (the suite stopped measuring something it gates on).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.perf_tracking import compare_to_baseline, load_report  # noqa: E402

DEFAULT_REPORT = REPO_ROOT / "BENCH_segment_kernels.json"
DEFAULT_METRIC = "engine_per_query_warm"
DEFAULT_MAX_RATIO = 2.0

#: Units where a larger value is *better* — the gate ratio inverts for these.
HIGHER_IS_BETTER_UNITS = {"qps", "x"}


def _values_by_name(report: dict) -> dict[str, dict]:
    return {record["name"]: record for record in report.get("results", [])}


def _render(value: float, unit: str) -> str:
    if unit == "s":
        return f"{value * 1e6:.1f} µs"
    return f"{value:.1f} {unit}"


def check(
    baseline: dict,
    current: dict,
    gates: list[tuple[str, float]],
) -> tuple[list[str], list[str]]:
    """Evaluate the gates; returns ``(failures, warnings)``."""
    baseline_records = _values_by_name(baseline)
    current_records = _values_by_name(current)
    failures: list[str] = []
    warnings: list[str] = []
    for metric, max_ratio in gates:
        if metric not in current_records:
            if metric not in baseline_records:
                # A first-run metric: gated in CI before its bench has ever
                # written a baseline (or run at all).  Skip, don't fail —
                # the gate arms itself once the baseline is committed.
                warnings.append(
                    f"{metric}: in neither report yet (skipping the gate)"
                )
            else:
                failures.append(f"{metric}: missing from the current report")
            continue
        if metric not in baseline_records:
            warnings.append(f"{metric}: not in the baseline yet (skipping the gate)")
            continue
        baseline_value = baseline_records[metric]["value"]
        if not baseline_value:
            warnings.append(f"{metric}: baseline value is zero (skipping the gate)")
            continue
        current_value = current_records[metric]["value"]
        unit = current_records[metric].get("unit", "s")
        if unit in HIGHER_IS_BETTER_UNITS:
            # Rates and ratios: regression means the value *dropped*.
            if not current_value:
                failures.append(f"{metric}: current value is zero")
                continue
            ratio = baseline_value / current_value
        else:
            ratio = current_value / baseline_value
        if ratio > max_ratio:
            failures.append(
                f"{metric}: {ratio:.2f}x worse than the committed baseline "
                f"(limit {max_ratio:.2f}x; "
                f"{_render(baseline_value, unit)} -> "
                f"{_render(current_value, unit)})"
            )
    return failures, warnings


def format_table(baseline: dict, current: dict) -> str:
    """All shared timing metrics as ``name ratio`` lines (ratio >1 = slower).

    Metrics measured for the first time (present only in the current report)
    are listed too, marked ``(new)`` — they have no ratio yet.
    """
    ratios = compare_to_baseline(current, baseline)
    baseline_names = {record["name"] for record in baseline.get("results", [])}
    units = {record["name"]: record.get("unit", "") for record in current.get("results", [])}
    fresh = [
        record
        for record in current.get("results", [])
        if record["name"] not in baseline_names
    ]
    lines = ["== current / baseline =="]
    names = list(ratios) + [record["name"] for record in fresh]
    width = max((len(name) for name in names), default=4)
    for name, ratio in sorted(ratios.items()):
        marker = "" if units.get(name) != "s" else ("  <-- slower" if ratio > 1.25 else "")
        lines.append(f"  {name:<{width}s} {ratio:8.3f}x{marker}")
    for record in sorted(fresh, key=lambda record: record["name"]):
        rendered = _render(record["value"], record.get("unit", "s"))
        lines.append(f"  {record['name']:<{width}s} {rendered:>9s}  (new)")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, required=True,
                        help="committed BENCH_*.json to compare against")
    parser.add_argument("--current", type=Path, default=DEFAULT_REPORT,
                        help=f"freshly written report (default: {DEFAULT_REPORT.name})")
    parser.add_argument("--metric", action="append", default=None,
                        help=f"metric name to gate on (default: {DEFAULT_METRIC})")
    parser.add_argument("--max-ratio", type=float, action="append", default=None,
                        help="failure threshold for the corresponding --metric "
                             f"(default: {DEFAULT_MAX_RATIO})")
    args = parser.parse_args(argv)

    metrics = args.metric if args.metric else [DEFAULT_METRIC]
    ratios = list(args.max_ratio or [])
    if len(ratios) < len(metrics):
        ratios.extend([DEFAULT_MAX_RATIO] * (len(metrics) - len(ratios)))
    gates = list(zip(metrics, ratios))

    baseline = load_report(args.baseline)
    current = load_report(args.current)
    print(format_table(baseline, current))
    failures, warnings = check(baseline, current, gates)
    for message in warnings:
        print(f"[warn] {message}")
    if failures:
        for message in failures:
            print(f"[FAIL] {message}")
        return 1
    gated = ", ".join(f"{metric} <= {ratio:g}x" for metric, ratio in gates)
    print(f"[ok] perf gate passed ({gated})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Result documents: the machine, the declared metrics, the printed table."""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from typing import Any

import numpy as np

from e2ebench.measure import Measurement

ROOT = Path(__file__).resolve().parents[3]


def declared() -> dict[str, Any]:
    """``BENCHMARK.json``: the one place metric names, units and bounds are declared."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit() -> str:
    """HEAD of this checkout, read from ``.git`` directly (``unknown`` outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict[str, Any]:
    """The machine a number was taken on — a number without it does not count."""
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def document(measurement: Measurement, trace: bool, spec: dict[str, Any]) -> dict[str, Any]:
    """One workload's result: every declared metric of the pass, with its unit.

    The end-to-end pass carries every ``end_to_end`` metric; the traced pass
    every ``per_layer`` metric — a layer the workload does not touch reads 0
    and is listed under ``not_applicable``.
    """
    yardstick_ms = measurement.yardstick.seconds() * 1e3
    if trace:
        measured = {name: {"value": value} for name, value in measurement.per_layer.items()}
        measured["trace.yardstick_ms"] = {"value": yardstick_ms}  # layer times are as read
        names = spec["per_layer"]
    else:
        measured = measurement.end_to_end()
        names = spec["end_to_end"]
    unknown = set(measured) - {entry["name"] for entry in names}
    if unknown:
        raise KeyError(f"metrics measured but not declared in BENCHMARK.json: {sorted(unknown)}")
    metrics = {
        entry["name"]: {**measured.get(entry["name"], {"value": 0.0}), "unit": entry["unit"]}
        for entry in names
    }
    out = {
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "failed_share": measurement.failed / measurement.attempted,
        "first_error": measurement.first_error,
        "ops": measurement.ops,
        "yardstick_ms": yardstick_ms,
        "metrics": metrics,
    }
    if trace:
        out["not_applicable"] = sorted(set(metrics) - set(measured))
    if measurement.spans:  # the traced pass's spans; a failed server's stderr
        out["spans"] = measurement.spans
    return out


def result_line(results: dict[str, dict[str, Any]]) -> str:
    """The last line of standard output: the contract's one JSON object.

    For a single workload the metric names are bare; a run of several
    prefixes each with ``<workload>.``.
    """
    single = len(results) == 1
    metrics = {
        (name if single else f"{workload}.{name}"): {"value": m["value"], "unit": m["unit"]}
        for workload, result in results.items()
        for name, m in result["metrics"].items()
    }
    failed = sum(result["failed"] for result in results.values())
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": failed,
        "metrics": metrics,
    })


def table(workload: str, result: dict[str, Any]) -> str:
    """Every metric by name, with its unit (and the slices' quartiles where there are several)."""
    lines = [
        f"== {workload}: {result['attempted']} ops attempted, {result['failed']} failed "
        f"(failed_share {result['failed_share']:.6f})  ops={result['ops']}  "
        f"yardstick {result['yardstick_ms']:.3f} ms"
    ]
    if result["first_error"]:
        lines.append(f"   first error: {result['first_error']}")
    skipped = set(result.get("not_applicable", ()))
    for name, metric in result["metrics"].items():
        if name in skipped:
            continue
        line = f"   {name:<42s} {metric['value']:>16.6g} {metric['unit']}"
        if "raw" in metric:
            line += f" (as read {metric['raw']:.6g})"
        if metric.get("n", 1) > 1:
            line += (f"   [samples: q1 {metric['q1']:.6g}, median {metric['median']:.6g}, "
                     f"q3 {metric['q3']:.6g}, n={metric['n']}]")
        lines.append(line)
    if skipped:
        lines.append(f"   not applicable here (reported as 0): {', '.join(sorted(skipped))}")
    return "\n".join(lines)

"""Smoke tests of the end-to-end benchmark (tier-1; the whole file runs in seconds).

Every workload at smoke scale (``--seconds 0.1``, a few hundred ops) must emit
every declared metric with its unit and no failed op; byte metrics must be a
function of the seed alone; the oracle must catch a wrong answer; and no
server child may outlive a run.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import compare  # noqa: E402
from e2ebench import WORKLOADS, inputs, report  # noqa: E402
from e2ebench.server_proc import ServerProcess  # noqa: E402

SMOKE_SECONDS = 0.1
SPEC = report.declared()
EXACT = ("read_bytes_per_query", "write_bytes_per_query", "storage_overhead_x")


@functools.lru_cache(maxsize=None)
def smoke(workload: str, seed: int, trace: bool) -> dict:
    return report.document(WORKLOADS[workload](seed, SMOKE_SECONDS, trace), trace, SPEC)


def children() -> list[int]:
    """Live child processes of this one, from ``/proc``."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # raced with an exit
            continue
        if int(fields[1]) == os.getpid() and fields[0] != "Z":
            found.append(int(stat.parent.name))
    return found


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_pass_emits_every_metric(workload):
    result = smoke(workload, 3, False)
    assert result["failed"] == 0 and result["failed_share"] == 0, result["first_error"]
    assert result["attempted"] >= 100
    assert set(result["metrics"]) == {entry["name"] for entry in SPEC["end_to_end"]}
    for entry in SPEC["end_to_end"]:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert metric["value"] > 0, entry["name"]  # an end-to-end metric is never 0
    assert children() == []


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_pass_emits_every_layer_metric(workload):
    result = smoke(workload, 3, True)
    assert result["failed"] == 0, result["first_error"]
    assert set(result["metrics"]) == {entry["name"] for entry in SPEC["per_layer"]}
    for entry in SPEC["per_layer"]:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    measured = set(result["metrics"]) - set(result["not_applicable"])
    applicable = {name.split(".")[0] for name in measured}
    assert {"sql", "optimizer", "engine", "core", "trace"} <= applicable
    assert ("server" in applicable) == (workload == "server_pipelined")
    assert ("cluster" in applicable) == (workload == "routed_fleet")
    assert ("storage" in applicable) == (workload == "mixed_read_write")
    if workload not in ("server_pipelined", "routed_fleet"):
        assert 0.85 <= result["metrics"]["trace.closure"]["value"] <= 1.1
    assert result["spans"]["layers"]
    assert children() == []


def test_counts_depend_on_the_seed_and_on_nothing_else():
    first = smoke("adapt_scan", 3, False)["metrics"]
    smoke.cache_clear()
    again = smoke("adapt_scan", 3, False)["metrics"]
    other = smoke("adapt_scan", 4, False)["metrics"]
    assert [first[name]["value"] for name in EXACT] == [again[name]["value"] for name in EXACT]
    assert first["read_bytes_per_query"]["value"] != other["read_bytes_per_query"]["value"]


def test_oracle_flags_a_corrupted_answer():
    rng = inputs.rng_for(5)
    table = inputs.Table(inputs.int_column(rng, 5_000))
    lows, highs = inputs.uniform_ranges(rng, 300, inputs.INT_DOMAIN, 50_000.0)
    ops = inputs.read_ops(rng, table, lows, highs)
    answers = [table.scan(low, high) for low, high in zip(lows, highs)]
    counts = [ids.size for ids in answers]
    sums = [int(ids.sum()) for ids in answers]
    kept = {index: answers[index][::-1] for index in ops.samples}  # any order is equal
    assert ops.samples, "the sample must not be empty"
    assert inputs.count_failures(ops, counts, sums, kept) == 0

    wrong_sum = list(sums)
    wrong_sum[7] += 1
    assert inputs.count_failures(ops, counts, wrong_sum, kept) == 1
    raised = list(counts)
    raised[11] = -1  # an op that raised or was refused
    assert inputs.count_failures(ops, raised, sums, kept) == 1
    sampled = next(iter(ops.samples))
    swapped = dict(kept)
    swapped[sampled] = swapped[sampled].copy()
    swapped[sampled][:2] += (1, -1)  # same count, same sum, other rows
    assert inputs.count_failures(ops, counts, sums, swapped) == 1


def test_mixed_oracle_follows_inserts_and_deletes():
    rng = inputs.rng_for(6)
    table = inputs.Table(inputs.int_column(rng, 5_000))
    lows, highs = inputs.uniform_ranges(rng, 200, inputs.INT_DOMAIN, 100_000.0)
    ops = inputs.mixed_ops(rng, table, lows, highs, write_share=0.5)
    static, _ = table.expected(lows, highs)
    reads = ops.kind == inputs.READ
    assert 0 < reads.sum() < len(ops)
    assert (ops.expected_count[reads] != static[reads]).any()  # the shadow moved


def test_command_line_contract(tmp_path):
    out = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "adapt_scan", "--seed", "2",
         "--seconds", "0.1", "--trace", "0", "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {entry["name"] for entry in SPEC["end_to_end"]}
    assert all(set(metric) == {"value", "unit"} for metric in last["metrics"].values())
    document = json.loads(out.read_text())
    assert document["environment"]["cpu_count"] == os.cpu_count()
    assert document["seed"] == 2
    timed = document["workloads"]["adapt_scan"]["metrics"]["throughput_qps"]
    assert len(timed["samples"]) == timed["n"] and timed["q1"] <= timed["median"] <= timed["q3"]


def test_server_child_never_outlives_stop():
    server = ServerProcess("--batch-window-us", "200")
    try:
        assert children() != []
    finally:
        server.stop()
    assert children() == []
    assert server.stop() == server.stop()  # idempotent


def test_compare_verdicts():
    def metric(value, noise=0.01):
        return {"value": value, "noise": noise}

    assert compare.verdict(metric(100), metric(85), "higher", 0.10)[0] == "worse"
    assert compare.verdict(metric(100), metric(115), "higher", 0.10)[0] == "better"
    assert compare.verdict(metric(100), metric(115), "lower", 0.10)[0] == "worse"
    assert compare.verdict(metric(100), metric(104), "lower", 0.10)[0] == "unchanged"
    assert compare.verdict(metric(100), metric(104, noise=0.2), "lower", 0.10)[0] == "unresolved"
    assert compare.verdict(metric(100), metric(115, noise=0.2), "lower", 0.10)[0] == "unresolved"

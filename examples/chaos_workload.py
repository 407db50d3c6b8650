"""Chaos smoke: a client stream against a fault-injected replica fleet.

Boots a 3-replica server on a free loopback port with the deterministic
fault injector armed (:data:`FAULT_SPEC` crashes two replicas mid-stream),
points a resilient async client at it, and stops it with SIGINT afterwards;
the fleet must exit cleanly::

    PYTHONPATH=src timeout 120 python examples/chaos_workload.py

The workload fires bound range selects through the crash window, verifies
every completed answer against a client-side recomputation of the demo
table, then polls ``router_stats`` until the fleet converges back to full
health, and sends a second, checked batch to the healed fleet.  Exit 0
requires: zero wrong answers, health counters that show the injected
crashes actually exercised quarantine + rebuild, every replica healthy
again, and every replica serving part of the second batch (re-admission).
CI runs this as the ``chaos-smoke`` job.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, SRC)

import repro.aio  # noqa: E402
from repro.api.exceptions import OperationalError  # noqa: E402

HOST = "127.0.0.1"
SQL = "SELECT v FROM demo WHERE v BETWEEN ? AND ?"
#: ``python -m repro.server --demo-rows N`` loads uniform values seeded with 7.
DEMO_SEED = 7
#: Queries in the checked batch sent once the fleet has healed.
HEALED_QUERIES = 48
#: The faults the fleet is booted with: replicas 1 and 2 crash on their first waves.
FAULT_SPEC = {"seed": 7, "faults": [
    {"site": "wave.execute", "at": 1, "action": "crash", "match": {"replica": 1}},
    {"site": "wave.execute", "at": 2, "action": "crash", "match": {"replica": 2}},
]}


def boot_fleet(port: int, demo_rows: int) -> subprocess.Popen:
    """Start the fault-injected 3-replica server this smoke runs against."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.Popen(
        [sys.executable, "-m", "repro.server", "--host", HOST, "--port", str(port),
         "--replicas", "3", "--demo-rows", str(demo_rows), "--batch-window-us", "400",
         "--max-wave", "16", "--quarantine-after", "1", "--max-retries", "3",
         "--fault-spec", json.dumps(FAULT_SPEC)],
        env=env,
    )


def stop_fleet(server: subprocess.Popen) -> int:
    """SIGINT, the server's own shutdown path; returns its exit code."""
    server.send_signal(signal.SIGINT)
    try:
        return server.wait(timeout=30)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()
        return 1


async def wait_for_server(host: str, port: int, deadline_s: float) -> None:
    """Poll until the server accepts connections (it boots in parallel)."""
    deadline = time.perf_counter() + deadline_s
    while True:
        try:
            connection = await repro.aio.connect(host, port)
        except OSError:
            if time.perf_counter() > deadline:
                raise
            await asyncio.sleep(0.2)
        else:
            await connection.close()
            return


async def run_workload(port: int, args: argparse.Namespace) -> int:
    await wait_for_server(HOST, port, args.boot_timeout)
    connection = await repro.aio.connect(
        HOST,
        port,
        request_timeout=10.0,
        reconnect=True,
        retry_reads=True,
    )
    demo_rows = (await connection.admin.router_stats())["replicas"]
    del demo_rows  # the call doubles as a handshake sanity check

    # The demo table the server preloaded: recompute it client-side so every
    # completed answer can be checked for *correctness*, not just arrival.
    values = np.random.default_rng(DEMO_SEED).random(args.demo_rows)

    rng = np.random.default_rng(23)

    async def one(low: float, high: float):
        cursor = await connection.execute(SQL, (low, high))
        return cursor.rowcount

    async def batch(count: int) -> tuple[int, int, int] | None:
        """Send ``count`` queries at once and check every answer.

        Returns ``(completed, failed, wrong)``, or ``None`` on a fatal failure.
        """
        queries = []
        for _ in range(count):
            low = float(rng.uniform(0.0, 0.9))
            queries.append((low, low + float(rng.uniform(0.01, 0.08))))
        outcomes = await asyncio.gather(
            *(one(low, high) for low, high in queries), return_exceptions=True
        )
        completed = wrong = failed = 0
        for (low, high), outcome in zip(queries, outcomes):
            if isinstance(outcome, BaseException):
                if not isinstance(outcome, OperationalError):
                    print(f"FATAL: non-operational failure: {outcome!r}")
                    return None
                failed += 1
                continue
            completed += 1
            expected = int(np.count_nonzero((values >= low) & (values <= high)))
            if outcome != expected:
                wrong += 1
                print(f"WRONG ANSWER: [{low:.4f}, {high:.4f}] -> {outcome}, "
                      f"expected {expected}")
        return completed, failed, wrong

    first = await batch(args.queries)
    if first is None:
        return 1
    completed, failed, wrong = first

    # Convergence: the failure detector quarantined crashed replicas, the
    # admission layer kicked off rebuilds, the fleet must return to health.
    deadline = time.perf_counter() + args.heal_timeout
    stats = await connection.admin.router_stats()
    while time.perf_counter() < deadline:
        if all(state == "healthy" for state in stats["health"]["states"]):
            break
        await asyncio.sleep(0.2)
        stats = await connection.admin.router_stats()
    health = stats["health"]

    # Re-admission: a second batch against the healed fleet must be answered
    # correctly, and every replica — the rebuilt ones too — must serve part of it.
    served_before = [replica["queries_served"] for replica in stats["replicas"]]
    second = await batch(HEALED_QUERIES)
    if second is None:
        return 1
    served_after = [
        replica["queries_served"]
        for replica in (await connection.admin.router_stats())["replicas"]
    ]
    await connection.close()

    print(
        f"chaos workload: {completed}/{args.queries} completed, "
        f"{failed} transient-failed, {wrong} wrong; health={health}; "
        f"after healing {second[0]}/{HEALED_QUERIES} completed, "
        f"{second[2]} wrong, served per replica {served_before} -> {served_after}"
    )
    if wrong or second[2]:
        return 1
    if completed < args.queries * 0.9:
        print(f"FATAL: only {completed}/{args.queries} answers completed")
        return 1
    if health["quarantines"] < 1 or health["rebuilds"] < 1:
        print("FATAL: the injected crashes never exercised failover "
              f"(quarantines={health.get('quarantines')}, "
              f"rebuilds={health.get('rebuilds')})")
        return 1
    if not all(state == "healthy" for state in health["states"]):
        print(f"FATAL: fleet did not converge back to health: "
              f"{health['states']}")
        return 1
    if second[0] < HEALED_QUERIES:
        print(f"FATAL: the healed fleet completed only {second[0]}/"
              f"{HEALED_QUERIES} answers")
        return 1
    idle = [
        index
        for index, (before, after) in enumerate(zip(served_before, served_after))
        if after <= before
    ]
    if idle:
        print(f"FATAL: replicas {idle} served nothing after healing (not re-admitted)")
        return 1
    print("chaos smoke ok: crashed, failed over, rebuilt, healed, re-admitted")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--queries", type=int,
                        default=int(os.environ.get("CHAOS_QUERIES", "96")))
    parser.add_argument("--demo-rows", type=int,
                        default=int(os.environ.get("CHAOS_DEMO_ROWS", "20000")),
                        help="rows of the fleet's demo table")
    parser.add_argument("--boot-timeout", type=float, default=30.0)
    parser.add_argument("--heal-timeout", type=float, default=30.0)
    args = parser.parse_args()
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        port = probe.getsockname()[1]
    server = boot_fleet(port, args.demo_rows)
    try:
        status = asyncio.run(run_workload(port, args))
    finally:
        exit_code = stop_fleet(server)
    if exit_code != 0:
        print(f"FATAL: the fleet exited {exit_code} on SIGINT (not a clean shutdown)")
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())

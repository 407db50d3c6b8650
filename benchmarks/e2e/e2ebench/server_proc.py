"""The server under test as a child process: spawn, wait until ready, stop.

``python -m repro.server`` is started on a free loopback port with its own
interpreter, so the load generator and the server do not share a GIL — the
numbers are a client's, not a co-tenant's.  The child never outlives
:meth:`ServerProcess.stop`, whatever happened in between.
"""

from __future__ import annotations

import asyncio
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import repro.aio

from e2ebench.measure import peak_rss_mb

HOST = "127.0.0.1"
READY_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 30.0  # a hung server fails requests instead of hanging the benchmark
STOP_TIMEOUT_S = 5.0
SRC = Path(__file__).resolve().parents[3] / "src"


class ServerError(RuntimeError):
    """The child did not come up (its stderr is in the message)."""


def free_port() -> int:
    """A loopback port nobody listens on right now."""
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


class ServerProcess:
    """One ``python -m repro.server`` child."""

    def __init__(self, *server_args: str) -> None:
        self.port = free_port()
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(SRC), environment.get("PYTHONPATH")))
        )
        self._child = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--host", HOST,
             "--port", str(self.port), *server_args],
            env=environment,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        self._stderr: str | None = None

    async def connect(self) -> repro.aio.AsyncConnection:
        """A connection; the first one polls until the server accepts (or has died)."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            try:
                return await repro.aio.connect(
                    HOST, self.port, request_timeout=REQUEST_TIMEOUT_S
                )
            except OSError as exc:
                if self._child.poll() is not None or time.monotonic() > deadline:
                    raise ServerError(f"server not ready: {exc}\n{self.stop()}") from exc
                await asyncio.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """The child's peak resident set so far; read before stopping."""
        return peak_rss_mb(self._child.pid)

    def stop(self) -> str:
        """Terminate → wait → kill on timeout; returns what the child wrote to stderr."""
        if self._stderr is None:
            if self._child.poll() is None:
                self._child.terminate()
            try:
                _, stderr = self._child.communicate(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self._child.kill()
                _, stderr = self._child.communicate()
            self._stderr = stderr.decode("utf-8", "replace")
        return self._stderr

"""Run a standalone repro server: ``python -m repro.server --port 7733``.

Serves a fresh in-memory engine; use ``--demo-rows`` to preload a demo table
(``demo(v float64, w float64)``, uniform values in [0, 1)) so clients have
something to query immediately.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib

import numpy as np

from repro.engine.database import Database
from repro.server.server import ReproServer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve one self-organizing column-store engine over TCP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7733)
    parser.add_argument(
        "--batch-window-us",
        type=float,
        default=250.0,
        help="admission window in microseconds (0 flushes immediately)",
    )
    parser.add_argument("--max-inflight", type=int, default=1024)
    parser.add_argument("--max-wave", type=int, default=256)
    parser.add_argument(
        "--overflow",
        choices=("error", "wait"),
        default="error",
        help="backpressure policy when the admission queue is full",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=1,
        metavar="N",
        help="engine replicas behind the router (1 = a fleet of one: a failed "
        "wave is retried on it, and it is never quarantined)",
    )
    parser.add_argument(
        "--hot-query-threshold",
        type=float,
        default=0.5,
        help="traffic share above which a query cluster spreads over all replicas",
    )
    parser.add_argument(
        "--demo-rows",
        type=int,
        default=0,
        metavar="N",
        help="preload a 'demo' table with N uniform rows (adaptive on 'v')",
    )
    parser.add_argument(
        "--wave-deadline-s",
        type=float,
        default=None,
        metavar="S",
        help="per-wave deadline; a blown deadline quarantines the replica",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="failover retries per wave on transient replica failure",
    )
    parser.add_argument(
        "--quarantine-after",
        type=int,
        default=2,
        help="consecutive wave failures before a replica is quarantined",
    )
    parser.add_argument(
        "--fault-spec",
        default=None,
        metavar="JSON",
        help="arm the deterministic fault injector, e.g. "
        '\'{"seed": 7, "faults": [{"site": "wave.execute", "at": 5, '
        '"action": "crash", "match": {"replica": 1}}]}\' (chaos testing)',
    )
    return parser


def _build_server(args: argparse.Namespace) -> ReproServer:
    database = Database()
    if args.demo_rows > 0:
        rng = np.random.default_rng(7)
        database.create_table("demo", {"v": "float64", "w": "float64"})
        database.bulk_load(
            "demo",
            {
                "v": rng.random(args.demo_rows),
                "w": rng.random(args.demo_rows),
            },
        )
        database.enable_adaptive("demo", "v")
    injector = None
    if args.fault_spec:
        from repro.fault import specs_from_json

        injector = specs_from_json(args.fault_spec)
    return ReproServer(
        database,
        host=args.host,
        port=args.port,
        batch_window_us=args.batch_window_us,
        max_inflight=args.max_inflight,
        max_wave=args.max_wave,
        overflow=args.overflow,
        replicas=args.replicas,
        router_knobs={
            "hot_query_threshold": args.hot_query_threshold,
            "quarantine_after": args.quarantine_after,
        },
        wave_deadline_s=args.wave_deadline_s,
        max_retries=args.max_retries,
        injector=injector,
    )


async def _serve(server: ReproServer, args: argparse.Namespace) -> None:
    async with server:
        assert server.address is not None
        print(
            f"repro server listening on {server.address[0]}:{server.address[1]}"
            + (f" ({args.replicas} routed replicas)" if args.replicas > 1 else "")
        )
        with contextlib.suppress(asyncio.CancelledError):
            await server.serve_forever()


def main() -> None:
    parser = _build_parser()
    args = parser.parse_args()
    try:
        server = _build_server(args)
    except ValueError as exc:  # a setting out of bounds is a usage error
        parser.error(str(exc))
    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(_serve(server, args))


if __name__ == "__main__":
    main()

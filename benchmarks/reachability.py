"""Which functions of ``src/`` do the product's own drivers run?

    python benchmarks/reachability.py [--out FILE]

Runs every driver of the product under a call tracer and lists each ``def``
in ``src/`` that none of them entered, per file with its line count, then a
totals line.  The drivers are:

* the six ``benchmarks/e2e`` workloads at 0.5 s, each with its own
  ``--workload`` and with ``--trace 0`` and ``--trace 1``;
* the 14 paper figure / table / ablation scripts at default scale;
* every ``examples/*.py``, the files CI runs: ``server_smoke.py`` is CI's
  standalone-server smoke, and ``chaos_workload.py`` boots the
  fault-injected 3-replica fleet of CI's ``chaos-smoke`` job and stops it
  with SIGINT, so the server's shutdown path counts too.

The tracer is the standard library's ``sys.settrace`` /
``threading.settrace`` on every Python version (``coverage`` is not a
dependency).  It is installed by a ``sitecustomize.py`` on
``PYTHONPATH`` so that spawned pool workers and server subprocesses record
too.  Every traced process writes its hits every half second and again at
exit, because a terminated process runs no ``atexit``.  A hit is joined to an
``ast`` walk of ``src/`` on file, name and first line, decorators included.

Exits 1 when the unreached lines exceed ``MAX_UNREACHED_LINES``: code that no
product driver runs is added only on purpose, with the constant raised in
the same diff.  Exits 2 when a driver fails, since its hits are then
incomplete.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: The unreached-line total this check fails above: the last measured total
#: (573 lines, 94 of 744 defs) plus the difference between runs of the
#: same tree (0 lines over two).  The drivers are time-boxed, so it holds
#: for this tracer on the Python it was measured on (3.11, as CI runs it).
MAX_UNREACHED_LINES = 573

#: Environment of a traced process: where it writes its hits, and which tree
#: counts as ``src/``.
HITS_DIR_ENV = "REPRO_REACH_HITS"
SRC_ENV = "REPRO_REACH_SRC"
DUMP_INTERVAL_S = 0.5
DRIVER_TIMEOUT_S = 900

SITECUSTOMIZE = f"""\
import importlib.util
import sys
spec = importlib.util.spec_from_file_location("_reachability", {str(Path(__file__).resolve())!r})
module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
module.install()
"""

E2E_WORKLOADS = (
    "engine_narrow", "adapt_scan", "replica_budget",
    "mixed_read_write", "server_pipelined", "routed_fleet",
)


# ---------------------------------------------------------------------------
# The tracer (runs inside every traced process)
# ---------------------------------------------------------------------------


def install() -> None:
    """Record every code object this process enters; no-op outside a run."""
    hits_dir = os.environ.get(HITS_DIR_ENV)
    if not hits_dir:
        return
    src = os.path.realpath(os.environ[SRC_ENV]) + os.sep
    # Unique per process: a pid the kernel reuses must not overwrite hits.
    target = Path(hits_dir) / f"{os.getpid()}-{time.time_ns()}.json"
    seen: set = set()

    def tracer(frame, event, arg):
        seen.add(frame.f_code)  # "call" is the only event a global tracer gets

    def dump() -> None:
        hits = set()
        for code in list(seen):
            path = os.path.realpath(code.co_filename)
            if path.startswith(src):
                hits.add((path[len(src):], code.co_name, code.co_firstlineno))
        partial = target.with_suffix(".part")
        partial.write_text(json.dumps(sorted(hits)))
        partial.replace(target)

    def dump_periodically() -> None:
        while True:
            time.sleep(DUMP_INTERVAL_S)
            dump()

    sys.settrace(tracer)
    threading.settrace(tracer)
    threading.Thread(target=dump_periodically, name="reachability-dump", daemon=True).start()
    atexit.register(dump)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


@dataclass
class Driver:
    name: str
    argv: list[str]


def product_drivers() -> list[Driver]:
    python = sys.executable
    drivers = [
        Driver(f"e2e {workload} --trace {trace}",
               [python, "benchmarks/e2e/run.py", "--workload", workload,
                "--seconds", "0.5", "--trace", str(trace)])
        for workload in E2E_WORKLOADS for trace in (0, 1)
    ]
    paper = sorted(
        f"benchmarks/{path.name}"
        for pattern in ("bench_fig*.py", "bench_table*.py", "bench_ablation*.py")
        for path in (ROOT / "benchmarks").glob(pattern)
    )
    drivers.append(Driver("paper scripts", [
        python, "-m", "pytest", "-q", "-p", "no:cacheprovider", *paper, "--benchmark-disable",
    ]))
    drivers += [
        Driver(f"examples/{path.name}", [python, f"examples/{path.name}"])
        for path in sorted((ROOT / "examples").glob("*.py"))
    ]
    return drivers


def traced_env(hits_dir: Path, site_dir: Path, src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(site_dir), str(src), env.get("PYTHONPATH")))
    )
    env[HITS_DIR_ENV] = str(hits_dir)
    env[SRC_ENV] = str(src)
    return env


def run_driver(driver: Driver, cwd: Path, env: dict[str, str]) -> bool:
    """Run one driver; it fails on a non-zero exit or when no process recorded."""
    hits_dir = Path(env[HITS_DIR_ENV])
    before = set(hits_dir.glob("*.json"))
    started = time.perf_counter()
    completed = subprocess.run(
        driver.argv, cwd=cwd, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=DRIVER_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - started
    recorded = bool(set(hits_dir.glob("*.json")) - before)
    ok = completed.returncode == 0 and recorded
    status = "ok" if ok else f"FAILED (exit {completed.returncode}, recorded {recorded})"
    print(f"  {driver.name:<44s} {elapsed:6.1f} s  {status}", file=sys.stderr, flush=True)
    if not ok:
        sys.stderr.write(completed.stdout.decode("utf-8", "replace")[-4000:])
    return ok


def collect_hits(hits_dir: Path) -> set[tuple[str, str, int]]:
    hits = set()
    for path in hits_dir.glob("*.json"):
        hits.update((file, name, line) for file, name, line in json.loads(path.read_text()))
    return hits


def trace_product(hits_dir: Path, site_dir: Path) -> bool:
    env = traced_env(hits_dir, site_dir, SRC)
    return all([run_driver(driver, ROOT, env) for driver in product_drivers()])


# ---------------------------------------------------------------------------
# The join and the report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Def:
    file: str
    qualname: str
    first: int
    last: int

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.file, self.qualname.rsplit(".", 1)[-1], self.first)

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def span(defs: list[Def]) -> int:
    """The lines under ``defs``; a nested def's lines count once."""
    return len({(d.file, line) for d in defs for line in range(d.first, d.last + 1)})


def defs_in(src: Path) -> list[Def]:
    """Every ``def`` under ``src``, its span counted from its first decorator."""
    found = []
    for path in sorted(src.rglob("*.py")):
        relative = str(path.relative_to(src))

        def walk(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    qualname = prefix + child.name
                    found.append(Def(relative, qualname, first, child.end_lineno))
                    walk(child, qualname + ".")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def report(defs: list[Def], product: set) -> tuple[str, int]:
    """The per-file listing and the totals line; returns it with the line total."""
    unreached = [d for d in defs if d.key not in product]
    total_lines = span(unreached)
    out = []
    for file in sorted({d.file for d in unreached}):
        in_file = [d for d in unreached if d.file == file]
        out.append(f"src/{file}: {len(in_file)} defs, {span(in_file)} lines")
        for d in in_file:
            out.append(f"    {d.first:5d}  {d.lines:4d}  {d.qualname}")
    out.append("")
    out.append(
        f"unreached by the product drivers: {len(unreached)} of {len(defs)} defs, "
        f"{total_lines} lines (limit {MAX_UNREACHED_LINES})"
    )
    return "\n".join(out), total_lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="also write the report here")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        site_dir = Path(scratch) / "site"
        site_dir.mkdir()
        (site_dir / "sitecustomize.py").write_text(SITECUSTOMIZE)
        product_dir = Path(scratch) / "product"
        product_dir.mkdir()
        print("product drivers:", file=sys.stderr)
        ok = trace_product(product_dir, site_dir)
        text, total = report(defs_in(SRC), collect_hits(product_dir))

    print(text)
    if args.out:
        args.out.write_text(text + "\n")
    if not ok:
        print("a driver failed: its hits are incomplete", file=sys.stderr)
        return 2
    return 1 if total > MAX_UNREACHED_LINES else 0


if __name__ == "__main__":
    sys.exit(main())

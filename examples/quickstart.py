"""Quickstart: self-organizing columns behind a standard DB-API connection.

Builds a table of 100 K integers (the paper's simulation setup), runs the
same query stream through adaptive segmentation, adaptive replication and a
non-segmented baseline — all through ``repro.connect()`` and one prepared
statement — and prints how much data each strategy had to read and write.
The SQL front-end never changes between strategies: self-organization is
enabled per column with one ``admin.enable_adaptive`` call, exactly as the
paper integrates it "completely transparently for the SQL front-end".

It then walks the rest of the DB-API surface on one range select —
``description``, ``fetchone`` / ``fetchmany`` / ``fetchall``, iteration and
the ``with cursor`` form, the statement's Figure-1 plan text — and the other
statement shapes the engine lowers:
a ``COUNT`` / ``MIN`` / ``MAX`` / ``SUM`` / ``AVG`` aggregate, a ``LIMIT``, two
predicates, and a select with no ``WHERE`` after an insert and a delete,
checking every answer against the engine's result and numpy.

Run with:  python examples/quickstart.py
(QUICKSTART_QUERIES=200 scales the workload down, e.g. for CI smoke runs.)
"""

from __future__ import annotations

import math
import os

import numpy as np

import repro
from repro.util.units import KB, format_bytes
from repro.workloads import make_column, uniform_workload

STRATEGIES = {
    "APM segmentation": dict(strategy="segmentation", model="apm", m_min=3 * KB, m_max=12 * KB),
    "GD segmentation": dict(strategy="segmentation", model="gd", seed=1),
    "APM replication": dict(strategy="replication", model="apm", m_min=3 * KB, m_max=12 * KB),
    "full scan baseline": dict(strategy="unsegmented"),
}


def main() -> None:
    # The paper's simulation column: 100 K values from a 1 M integer domain.
    values = make_column(n_values=100_000, domain_size=1_000_000, seed=1)
    n_queries = int(os.environ.get("QUICKSTART_QUERIES", "2000"))
    workload = uniform_workload(
        n_queries=n_queries, domain=(0, 1_000_000), selectivity=0.1, seed=1
    )

    print(f"column: {values.size} values ({format_bytes(values.size * values.itemsize)}), "
          f"{len(workload)} range queries, selectivity {workload.selectivity}")
    print()
    header = f"{'strategy':>20s} | {'reads/query':>12s} | {'writes total':>12s} | {'segments':>8s} | {'storage':>9s}"
    print(header)
    print("-" * len(header))

    for name, options in STRATEGIES.items():
        with repro.connect() as connection:
            connection.admin.create_table("readings", {"oid": "int64", "value": "int32"})
            connection.admin.bulk_load(
                "readings",
                {"oid": np.arange(values.size, dtype=np.int64), "value": values},
            )
            connection.admin.enable_adaptive("readings", "value", **options)

            # One prepared statement serves the whole workload: the plan is
            # lowered once and every execution only binds (low, high).  A
            # single BETWEEN predicate compiles into one range selection —
            # two separate comparisons would each scan a half-infinite range.
            select = connection.prepare(
                "SELECT oid FROM readings WHERE value BETWEEN ? AND ?"
            )
            for query in workload:
                select.execute((query.low, query.high))

            adaptive = connection.admin.adaptive_handle("readings", "value").adaptive
            reads_per_query = adaptive.accountant.total_reads_bytes / len(workload)
            print(
                f"{name:>20s} | {format_bytes(reads_per_query):>12s} "
                f"| {format_bytes(adaptive.accountant.total_writes_bytes):>12s} "
                f"| {adaptive.segment_count:>8d} | {format_bytes(adaptive.storage_bytes):>9s}"
            )

    print()
    print("Adaptive strategies read only the query-relevant pieces of the column;")
    print("replication trades a little extra storage for a smaller write overhead.")
    print("Every strategy ran behind the same SQL and the same prepared statement.")
    print()
    walk_the_cursor(values)


def walk_the_cursor(values: np.ndarray, low: int = 250_000, high: int = 260_000) -> None:
    """Fetch one range select every DB-API way, and one aggregate; check each."""
    with repro.connect() as connection:
        connection.admin.create_table("readings", {"oid": "int64", "value": "int32"})
        connection.admin.bulk_load(
            "readings", {"oid": np.arange(values.size, dtype=np.int64), "value": values}
        )
        connection.admin.enable_adaptive("readings", "value", **STRATEGIES["APM segmentation"])
        sql = "SELECT oid, value FROM readings WHERE value BETWEEN ? AND ?"

        with connection.cursor() as cursor:
            cursor.execute(sql, (low, high))
            result = cursor.result
            expected = list(zip(result.column("oid"), result.column("value")))
            assert [entry[:2] for entry in cursor.description] == [
                ("oid", "int64"), ("value", "int32"),
            ]
            assert cursor.rowcount == len(expected) > 0
            first, some, rest = cursor.fetchone(), cursor.fetchmany(5), cursor.fetchall()
            assert [first, *some, *rest] == expected
            assert cursor.fetchone() is None
            cursor.execute(sql, (low, high))
            assert list(cursor) == expected  # iteration
        assert cursor.closed

        # The statement as the paper shows it: its Figure-1 plan after the
        # segment optimizer, rendered on first read, alike on the prepared
        # handle and on the result it answered.
        select = connection.prepare(sql)
        assert select.execute((low, high)).plan_text == select.plan_text
        assert "bpm.newIterator" in select.plan_text

        cursor = connection.execute(
            "SELECT COUNT(*), MIN(value), MAX(value), SUM(value), AVG(value) FROM readings "
            f"WHERE value BETWEEN {low} AND {high}"
        )
        hits = values[(values >= low) & (values <= high)]
        truth = (float(hits.size), float(hits.min()), float(hits.max()), float(hits.sum()))
        *exact, average = cursor.fetchone()
        assert tuple(exact) == truth and math.isclose(average, hits.mean(), rel_tol=1e-12)
        labels = ("count(*)", "min(value)", "max(value)", "sum(value)")
        assert tuple(cursor.result.scalar(label) for label in labels) == truth
        check_plan_shapes(connection, values, low, high)
    print(f"cursor: {len(expected)} rows of [{low}, {high}] read alike through description, "
          f"fetchone/fetchmany/fetchall and iteration; COUNT/MIN/MAX/SUM/AVG = "
          f"{int(truth[0])}/{int(truth[1])}/{int(truth[2])}/{int(truth[3])}/{average:.1f}, "
          f"as numpy finds them.")


def check_plan_shapes(connection, values: np.ndarray, low: int, high: int) -> None:
    """A ``LIMIT``, two predicates, and no ``WHERE`` beside pending writes; check each."""
    in_range = (values >= low) & (values <= high)
    rows = connection.execute(
        f"SELECT oid, value FROM readings WHERE value BETWEEN {low} AND {high} LIMIT 5"
    ).fetchall()
    assert len(rows) == 5 and all(in_range[oid] and values[oid] == value for oid, value in rows)

    both = connection.execute(
        f"SELECT oid FROM readings WHERE value BETWEEN {low} AND {high} AND oid < 50000"
    ).result.column("oid")
    assert sorted(both) == np.flatnonzero(in_range[:50_000]).tolist()

    connection.admin.insert("readings", {
        "oid": np.array([values.size, values.size + 1]), "value": np.array([7, 8], np.int32),
    })
    connection.admin.delete("readings", np.array([0, values.size]))
    result = connection.execute("SELECT oid, value FROM readings").result
    assert result.column("oid").tolist() == [*range(1, values.size), values.size + 1]
    assert result.column("value").tolist() == [*values[1:].tolist(), 8]
    print(f"shapes: LIMIT 5 and a two-predicate select ({len(both)} rows) answer as numpy; "
          f"with no WHERE, {result.row_count} live rows after one insert and one delete.")


if __name__ == "__main__":
    main()

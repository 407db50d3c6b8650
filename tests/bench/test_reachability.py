"""Tests for the reachability audit (benchmarks/reachability.py).

The audit's gate is only as good as its join: a traced hit must land on the
``def`` the ``ast`` walk found, decorated and nested ones included, or the
report lists reached code as dead (or dead code as reached).
"""

import importlib.util
import json
import sys
import textwrap
import threading
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "reachability",
    Path(__file__).resolve().parent.parent.parent / "benchmarks" / "reachability.py",
)
reachability = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reachability)
Def = reachability.Def

TOY = textwrap.dedent(
    """\
    import functools


    def called():
        def inner():
            return 1

        return inner()


    def never():
        return 0


    @functools.lru_cache
    def decorated(x):
        return x


    @functools.lru_cache
    def decorated_never(x):
        return x


    class Thing:
        def method(self):
            return 2

        @staticmethod
        def unused():
            return 3
    """
)


def _toy_tree(tmp_path):
    """A one-module ``src/`` and a traced environment over it."""
    src = tmp_path / "src"
    (src / "toy").mkdir(parents=True)
    (src / "toy" / "__init__.py").write_text("")
    (src / "toy" / "mod.py").write_text(TOY)
    site_dir = tmp_path / "site"
    site_dir.mkdir()
    (site_dir / "sitecustomize.py").write_text(reachability.SITECUSTOMIZE)
    hits_dir = tmp_path / "hits"
    hits_dir.mkdir()
    return src, hits_dir, reachability.traced_env(hits_dir, site_dir, src)


def test_a_traced_run_joins_to_the_defs_it_entered(tmp_path):
    src, hits_dir, env = _toy_tree(tmp_path)
    driver = reachability.Driver("toy", [
        sys.executable, "-c",
        "import toy.mod as m; m.called(); m.decorated(1); m.Thing().method()",
    ])

    assert reachability.run_driver(driver, tmp_path, env)
    defs = reachability.defs_in(src)
    text, total = reachability.report(defs, reachability.collect_hits(hits_dir))

    unreached = {line.split()[-1] for line in text.splitlines() if line.startswith("    ")}
    assert unreached == {"never", "decorated_never", "Thing.unused"}
    by_name = {d.qualname: d for d in defs}
    assert by_name["decorated"].first == TOY.splitlines().index("@functools.lru_cache") + 1
    assert total == sum(by_name[name].lines for name in unreached)
    assert f"src/toy/mod.py: 3 defs, {total} lines" in text


def test_span_counts_a_nested_def_once():
    outer = Def("a.py", "f", 1, 10)
    nested = Def("a.py", "f.g", 3, 5)
    elsewhere = Def("b.py", "h", 1, 2)
    assert reachability.span([outer, nested, elsewhere]) == 12
    assert reachability.span([nested]) == nested.lines == 3



def test_a_driver_that_exits_non_zero_fails(tmp_path):
    _, _, env = _toy_tree(tmp_path)
    driver = reachability.Driver(
        "toy", [sys.executable, "-c", "import toy.mod; raise SystemExit(3)"]
    )
    assert not reachability.run_driver(driver, tmp_path, env)


def test_a_driver_whose_processes_record_nothing_fails(tmp_path):
    # ``-S`` skips ``site``, so the tracer is never installed: the driver
    # exits 0, but its hits would be missing from the report.
    _, hits_dir, env = _toy_tree(tmp_path)
    driver = reachability.Driver("toy", [sys.executable, "-S", "-c", "pass"])
    assert not reachability.run_driver(driver, tmp_path, env)
    assert not list(hits_dir.iterdir())


def test_code_outside_src_is_not_recorded(tmp_path):
    src, hits_dir, env = _toy_tree(tmp_path)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    (elsewhere / "other.py").write_text("def helper():\n    return 4\n")
    driver = reachability.Driver("toy", [
        sys.executable, "-c",
        f"import sys; sys.path.insert(0, {str(elsewhere)!r}); "
        "import other, toy.mod as m; other.helper(); m.never()",
    ])

    assert reachability.run_driver(driver, tmp_path, env)
    hits = reachability.collect_hits(hits_dir)
    assert {file for file, _, _ in hits} <= {"toy/__init__.py", "toy/mod.py"}
    assert ("toy/mod.py", "never", TOY.splitlines().index("def never():") + 1) in hits
    assert not any(name == "helper" for _, name, _ in hits)


def test_hits_join_every_process_and_skip_a_partial_write(tmp_path):
    (tmp_path / "1-1.json").write_text(json.dumps([["a.py", "f", 1]]))
    (tmp_path / "2-2.json").write_text(json.dumps([["a.py", "f", 1], ["b.py", "g", 7]]))
    (tmp_path / "3-3.part").write_text('[["c.py", "h", ')  # a dump still being written
    assert reachability.collect_hits(tmp_path) == {("a.py", "f", 1), ("b.py", "g", 7)}


def test_install_outside_a_run_sets_no_tracer(monkeypatch):
    monkeypatch.delenv(reachability.HITS_DIR_ENV, raising=False)
    before = (sys.gettrace(), threading.gettrace())
    reachability.install()
    assert (sys.gettrace(), threading.gettrace()) == before


def test_defs_in_names_async_defs_and_methods_of_nested_classes(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "m.py").write_text(textwrap.dedent(
        """\
        class Outer:
            class Inner:
                async def fetch(self):
                    return 1

            if True:
                def guarded(self):
                    return 2
        """
    ))
    defs = reachability.defs_in(tmp_path)
    assert [(d.file, d.qualname, d.first, d.last) for d in defs] == [
        ("pkg/m.py", "Outer.Inner.fetch", 3, 4),
        ("pkg/m.py", "Outer.guarded", 7, 8),
    ]
    # A hit carries the code object's bare name, so the join key drops the prefix.
    assert defs[0].key == ("pkg/m.py", "fetch", 3)


def test_the_report_lists_files_in_order_then_the_totals_line():
    defs = [
        Def("b.py", "late", 1, 2),
        Def("a.py", "reached", 1, 4),
        Def("a.py", "Thing.dead", 6, 8),
    ]
    text, total = reachability.report(defs, {defs[1].key})
    assert total == 5
    assert text.splitlines() == [
        "src/a.py: 1 defs, 3 lines",
        "        6     3  Thing.dead",
        "src/b.py: 1 defs, 2 lines",
        "        1     2  late",
        "",
        "unreached by the product drivers: 2 of 3 defs, 5 lines "
        f"(limit {reachability.MAX_UNREACHED_LINES})",
    ]


def _gate(monkeypatch, *, unreached_lines, limit, drivers_ok=True):
    """``main`` over one unreached def of the given length, without tracing."""
    monkeypatch.setattr(reachability, "trace_product", lambda hits_dir, site_dir: drivers_ok)
    dead = Def("a.py", "dead", 1, unreached_lines)
    monkeypatch.setattr(reachability, "defs_in", lambda src: [dead])
    monkeypatch.setattr(reachability, "collect_hits", lambda hits_dir: set())
    monkeypatch.setattr(reachability, "MAX_UNREACHED_LINES", limit)


@pytest.mark.parametrize("limit, code", [(11, 0), (10, 0), (9, 1)], ids=["under", "at", "over"])
def test_the_gate_fails_only_above_its_limit(monkeypatch, capsys, limit, code):
    _gate(monkeypatch, unreached_lines=10, limit=limit)
    assert reachability.main([]) == code
    assert capsys.readouterr().out.endswith(f"1 of 1 defs, 10 lines (limit {limit})\n")


def test_a_failed_driver_fails_the_gate_even_under_its_limit(monkeypatch, capsys):
    _gate(monkeypatch, unreached_lines=1, limit=10, drivers_ok=False)
    assert reachability.main([]) == 2
    assert "hits are incomplete" in capsys.readouterr().err


def test_out_writes_the_report_it_prints(monkeypatch, capsys, tmp_path):
    _gate(monkeypatch, unreached_lines=3, limit=10)
    out = tmp_path / "reach.txt"
    assert reachability.main(["--out", str(out)]) == 0
    assert out.read_text() == capsys.readouterr().out

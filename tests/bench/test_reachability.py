"""Tests for the reachability audit (benchmarks/reachability.py).

The audit's gate is only as good as its join: a traced hit must land on the
``def`` the ``ast`` walk found, decorated and nested ones included, or the
report lists reached code as dead (or dead code as reached).
"""

import importlib.util
import sys
import textwrap
from pathlib import Path

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


def test_a_traced_run_joins_to_the_defs_it_entered(tmp_path):
    src = tmp_path / "src"
    (src / "toy").mkdir(parents=True)
    (src / "toy" / "__init__.py").write_text("")
    (src / "toy" / "mod.py").write_text(TOY)
    site_dir = tmp_path / "site"
    site_dir.mkdir()
    (site_dir / "sitecustomize.py").write_text(reachability.SITECUSTOMIZE)
    hits_dir = tmp_path / "hits"
    hits_dir.mkdir()
    env = reachability.traced_env(hits_dir, site_dir, src)
    driver = reachability.Driver("toy", [
        sys.executable, "-c",
        "import toy.mod as m; m.called(); m.decorated(1); m.Thing().method()",
    ])

    assert reachability.run_driver(driver, tmp_path, env)
    defs = reachability.defs_in(src)
    text, total = reachability.report(defs, reachability.collect_hits(hits_dir), None)

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


def test_the_report_labels_what_only_the_legacy_benches_reach():
    reached = Def("a.py", "reached", 1, 4)
    legacy = Def("a.py", "Bench.legacy_only", 6, 8)
    dead = Def("b.py", "dead", 1, 2)
    text, total = reachability.report(
        [reached, legacy, dead], product={reached.key}, legacy={legacy.key, reached.key}
    )
    assert total == legacy.lines + dead.lines
    assert "Bench.legacy_only  [legacy]" in text
    assert "dead  [legacy]" not in text
    assert "reached only by the legacy benches: 1 defs, 3 lines" in text
    assert text.splitlines()[-1].startswith(
        f"unreached by the product drivers: 2 of 3 defs, {total} lines"
    )

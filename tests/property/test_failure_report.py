"""A failing property test must report its falsifying example under the repo's config.

Tier-1 turns every ``DeprecationWarning`` into an error (``pyproject.toml``).
Hypothesis imports libcst to write a failure's example, and that import warns;
unfiltered, the run ends in ``INTERNALERROR`` and the example is never shown.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[2] / "pyproject.toml"

FAILING = textwrap.dedent(
    """\
    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_fails(x):
        assert x < 5
    """
)


def test_a_failing_given_test_shows_its_falsifying_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output

"""Every Python file parses as Python 3.10, the oldest version
``pyproject.toml`` supports, whichever interpreter runs the suite (as far
as ``ast.parse``'s ``feature_version`` checks: it rejects, for example,
``except*``, but not every newer construct)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "scripts", "tests", "perfbench")
                 for p in (ROOT / d).rglob("*.py"))


def test_sources_found():
    assert any(p.name == "solver.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))

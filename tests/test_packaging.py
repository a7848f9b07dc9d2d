"""The package data that ``pyproject.toml`` ships. An editable install reads
the source tree, so a data file left out of the wheel fails only in a real
install; this test catches it in the checkout."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "skysearch"


def package_data_globs() -> list[str]:
    tomllib = pytest.importorskip("tomllib")  # new in 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["tool"]["setuptools"]["package-data"]["skysearch"]


def test_every_data_file_is_package_data():
    globs = package_data_globs()
    shipped = {p for pattern in globs for p in PACKAGE.glob(pattern)}
    data = {p for p in PACKAGE.rglob("*")
            if p.is_file() and p.suffix != ".py" and "__pycache__" not in p.parts}
    assert "normal_quantiles.bin" in {p.name for p in data}
    assert sorted(map(str, data - shipped)) == []
    assert [pattern for pattern in globs if not any(PACKAGE.glob(pattern))] == []

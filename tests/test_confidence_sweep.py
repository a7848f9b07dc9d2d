"""scripts/confidence_sweep.py: a tiny sweep, and bad sizes rejected with exit 2."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "confidence_sweep.py"
_spec = importlib.util.spec_from_file_location("confidence_sweep", SCRIPT)
confidence_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(confidence_sweep)


def test_tiny_sweep_prints_one_row_per_point(capsys):
    confidence_sweep.main(["--points", "2", "--calls", "3", "--occlusion", "0.5"])
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 3  # the header and two altitudes
    assert all(len(row.split()) == 4 for row in rows[1:])


@pytest.mark.parametrize("flag,value", [("--points", "1"), ("--points", "0"),
                                        ("--calls", "0"), ("--occlusion", "2"),
                                        ("--occlusion", "-0.1"), ("--occlusion", "nan")])
def test_bad_value_exits_2(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        confidence_sweep.main([flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err

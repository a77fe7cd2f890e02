"""The root-system demos run to the end against the library's current API.

The cluster and XY demos are left out: they take several seconds each.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name, expected", [
    ("puzzle_encodings.py", "true placement verifies: True"),
    ("nash_roots.py", "matching pennies ->"),
])
def test_root_system_demo_runs(name, expected, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert expected in capsys.readouterr().out
